package archtest

import (
	"encoding/json"
	"go/ast"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"unicode"
)

// docs are the documents whose citations tier-1 resolves.
var docs = []string{"DESIGN.md", "README.md"}

var (
	codeFence  = regexp.MustCompile("(?s)```.*?```")
	codeSpan   = regexp.MustCompile("`([^`\n]+)`")
	docPointer = regexp.MustCompile(`(EXPERIMENTS|DESIGN)\.md,?\s+"([^"]+)"`)
	boldLabel  = regexp.MustCompile(`(?m)^\*\*([^*]+)\*\*`)
	quoted     = regexp.MustCompile(`"([^"]+)"`)
	testFunc   = regexp.MustCompile(`^(?:Test|Fuzz|Benchmark)\w*\*?$`)
	testInLine = regexp.MustCompile(`\b(?:Test|Fuzz)[A-Z0-9_]\w*`)
	metricName = regexp.MustCompile(`^[a-z][a-z0-9]*(?:\.[a-z0-9_]+)+$`)
	recvMethod = regexp.MustCompile(`^(?:([a-z]\w*)\.)?\(\*(\w+)\)\.(\w+)$`)
	selector   = regexp.MustCompile(`^[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+$`)
	repoPath   = regexp.MustCompile(`^[\w.-]+(?:/[\w.-]+)*/$|^[\w.-]+(?:/[\w.-]+)+$`)
	fileName   = regexp.MustCompile(`^[A-Za-z0-9][\w.-]*\.(?:go|s|md|json|sh|yml)$`)
)

// TestDocsNameRealIdentifiers: every name DESIGN.md and README.md cite
// in backticks resolves in the module, and every EXPERIMENTS.md pointer
// names a real heading, so a rename, a move or a deleted test fails
// here instead of leaving the design doc describing code that is gone.
// The rules, for a backticked span outside a fenced code block:
//
//   - `Test*`, `Fuzz*` or `Benchmark*` names a function declared in a
//     test file of the module; a trailing * names a prefix one has.
//   - `pkg.Ident` names a package-level declaration (test files
//     included) of a module package whose import path ends in pkg;
//     `pkg.T.Member`, `pkg.(*T).Method` and `(*T).Method` name a field
//     or method declared on the type T; `T.Member` does too when some
//     module package declares a type T. A leading * or & and anything
//     from the first (, { or [ on are dropped first.
//   - A selector whose package is not in the module is skipped: it is
//     the standard library's (`cipher.AEAD`, `atomic.Uint32`), or a
//     local variable's.
//   - A dotted snake_case name (`sched.parks_per_op`) is a benchmark
//     metric and must be a name BENCHMARK.json declares; the test only
//     reads that file.
//   - A path whose first element is at the repository root or under
//     internal/ (`internal/ring/pool.go`, `libos/loader.go`, `cmd/`)
//     exists relative to one of the two; a bare file name
//     (`rs_amd64.s`) is the name of a file in the tree.
//   - A pointer `EXPERIMENTS.md "<heading>"` names the start of a
//     heading of EXPERIMENTS.md, and a pointer `DESIGN.md "<section>"`
//     the start of a heading of DESIGN.md or of a bold label that opens
//     one of its lines (TestSectionPointersResolve holds EXPERIMENTS.md
//     and Go comments to the same rules).
//   - The identifiers of DESIGN.md's "Removed" table are the exception:
//     they must resolve to nothing, which TestRemovedDesignsStayRemoved
//     checks.
func TestDocsNameRealIdentifiers(t *testing.T) {
	tr := load(t)
	idx := newDocIndex(t, tr)
	removed := make(map[string]bool)
	for _, line := range tableRows(t, tr, "Removed") {
		if cells := strings.Split(line, " | "); len(cells) > 1 {
			for _, m := range codeSpan.FindAllStringSubmatch(cells[1], -1) {
				removed[m[1]] = true
			}
		}
	}
	for _, doc := range docs {
		src, err := os.ReadFile(filepath.Join(tr.root, doc))
		if err != nil {
			t.Fatal(err)
		}
		text := string(src)
		for _, why := range idx.badPointers(text) {
			t.Errorf("%s: %s", doc, why)
		}
		seen := make(map[string]bool)
		for _, m := range codeSpan.FindAllStringSubmatch(codeFence.ReplaceAllString(text, ""), -1) {
			if seen[m[1]] || removed[m[1]] {
				continue
			}
			seen[m[1]] = true
			if why := idx.resolve(m[1]); why != "" {
				t.Errorf("%s: `%s`: %s", doc, m[1], why)
			}
		}
	}
}

// TestSectionPointersResolve: every `DESIGN.md "<section>"` or
// `EXPERIMENTS.md "<heading>"` pointer in EXPERIMENTS.md or in a Go
// comment (test files included) names a real section by the rules of
// TestDocsNameRealIdentifiers. A pointer may wrap across comment lines;
// one whose quoted text starts with < is a placeholder, as here.
func TestSectionPointersResolve(t *testing.T) {
	tr := load(t)
	idx := newDocIndex(t, tr)
	exp, err := os.ReadFile(filepath.Join(tr.root, "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	for _, why := range idx.badPointers(string(exp)) {
		t.Errorf("EXPERIMENTS.md: %s", why)
	}
	for _, p := range tr.pkgs {
		for _, f := range append(append([]*srcFile(nil), p.files...), p.tests...) {
			for _, cg := range f.ast.Comments {
				for _, why := range idx.badPointers(cg.Text()) {
					t.Errorf("%s: %s", f.name, why)
				}
			}
		}
	}
}

// TestInvariantsTableNamesRealTests parses DESIGN.md's "Invariants"
// table. Every Test* or Fuzz* name in it must be a test declared in the
// module, and every row must name at least one test in its last column
// or read "none" there.
func TestInvariantsTableNamesRealTests(t *testing.T) {
	tr := load(t)
	idx := newDocIndex(t, tr)
	rows := 0
	for _, line := range tableRows(t, tr, "Invariants") {
		if strings.HasPrefix(line, "| invariant |") {
			continue
		}
		rows++
		cells := strings.Split(strings.Trim(line, "| "), " | ")
		last := cells[len(cells)-1]
		if len(cells) != 3 {
			t.Errorf("row has %d cells, want 3: %s", len(cells), line)
		}
		if !testInLine.MatchString(last) && last != "none" {
			t.Errorf("row names no test and does not read none: %s", line)
		}
		for _, name := range testInLine.FindAllString(line, -1) {
			if why := idx.resolve(name); why != "" {
				t.Errorf("Invariants names %s: %s", name, why)
			}
		}
	}
	if rows == 0 {
		t.Error("the Invariants table has no rows")
	}
}

// section returns the body of DESIGN.md's "## <name>" section.
func section(t *testing.T, tr *tree, name string) string {
	t.Helper()
	src, err := os.ReadFile(filepath.Join(tr.root, "DESIGN.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, body, ok := strings.Cut(string(src), "\n## "+name+"\n")
	if !ok {
		t.Fatalf(`DESIGN.md has no "## %s" section`, name)
	}
	if end := strings.Index(body, "\n## "); end >= 0 {
		body = body[:end]
	}
	return body
}

// tableRows returns the rows of the table in DESIGN.md's "## <name>"
// section, without its separator line.
func tableRows(t *testing.T, tr *tree, name string) []string {
	t.Helper()
	var rows []string
	for _, line := range strings.Split(section(t, tr, name), "\n") {
		if strings.HasPrefix(line, "|") && !strings.HasPrefix(line, "|---") {
			rows = append(rows, line)
		}
	}
	return rows
}

// removedDesign is one row of DESIGN.md's "Removed" table: a design
// that was measured and taken out, the declared identifiers that would
// bring it back, the directories searched for them (test files
// included) and the EXPERIMENTS.md section with the measurement.
type removedDesign struct {
	design string
	names  []*regexp.Regexp
	where  []string
}

// removedDesigns parses the "Removed" table: | design | identifiers |
// searched | EXPERIMENTS.md |, identifiers as backticked Go regexps,
// one per name, and the section as a quoted heading.
func removedDesigns(t *testing.T, tr *tree) []removedDesign {
	t.Helper()
	idx := newDocIndex(t, tr)
	var out []removedDesign
	for _, line := range tableRows(t, tr, "Removed") {
		cells := strings.Split(strings.Trim(line, "| "), " | ")
		if len(cells) != 4 {
			t.Errorf("Removed row has %d cells, want 4: %s", len(cells), line)
			continue
		}
		if cells[0] == "design" {
			continue
		}
		r := removedDesign{design: cells[0]}
		for _, m := range codeSpan.FindAllStringSubmatch(cells[1], -1) {
			re, err := regexp.Compile(m[1])
			if err != nil {
				t.Errorf("Removed %s: %v", r.design, err)
				continue
			}
			r.names = append(r.names, re)
		}
		for _, m := range codeSpan.FindAllStringSubmatch(cells[2], -1) {
			if fi, err := os.Stat(filepath.Join(tr.root, m[1])); err != nil || !fi.IsDir() {
				t.Errorf("Removed %s: searches %s, which is not a directory", r.design, m[1])
			}
			r.where = append(r.where, m[1])
		}
		if len(r.names) == 0 || len(r.where) == 0 {
			t.Errorf("Removed %s: names no identifier or no directory: %s", r.design, line)
		}
		if m := quoted.FindStringSubmatch(cells[3]); m == nil || !idx.heading(m[1]) {
			t.Errorf(`Removed %s: %q names no EXPERIMENTS.md heading`, r.design, cells[3])
		}
		out = append(out, r)
	}
	if len(out) == 0 {
		t.Error("the Removed table has no rows")
	}
	return out
}

// docIndex is what the module declares, for resolving doc citations.
type docIndex struct {
	root     string
	pkgs     map[string][]*pkg // by the last element of the import path
	top      map[*pkg]map[string]bool
	types    map[string][]typeRef // by type name, every package
	members  map[typeRef]map[string]bool
	tests    map[string]bool // Test*, Fuzz* and Benchmark* functions
	files    map[string]bool // base names of the files in the tree
	metrics  map[string]bool // names BENCHMARK.json declares
	headings []string        // EXPERIMENTS.md headings, without the #s
	sections []string        // DESIGN.md headings and line-opening bold labels
}

type typeRef struct {
	p    *pkg
	name string
}

func newDocIndex(t *testing.T, tr *tree) *docIndex {
	t.Helper()
	idx := &docIndex{
		root:    tr.root,
		pkgs:    make(map[string][]*pkg),
		top:     make(map[*pkg]map[string]bool),
		types:   make(map[string][]typeRef),
		members: make(map[typeRef]map[string]bool),
		tests:   make(map[string]bool),
		files:   make(map[string]bool),
		metrics: make(map[string]bool),
	}
	member := func(tp typeRef, name string) {
		if idx.members[tp] == nil {
			idx.members[tp] = make(map[string]bool)
		}
		idx.members[tp][name] = true
	}
	for _, p := range tr.pkgs {
		idx.pkgs[path.Base(p.path)] = append(idx.pkgs[path.Base(p.path)], p)
		top := make(map[string]bool)
		idx.top[p] = top
		for _, f := range append(append([]*srcFile(nil), p.files...), p.tests...) {
			test := strings.HasSuffix(f.name, "_test.go")
			for _, d := range f.ast.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil {
						top[d.Name.Name] = true
						if test && testFunc.MatchString(d.Name.Name) {
							idx.tests[d.Name.Name] = true
						}
					} else if len(d.Recv.List) > 0 {
						member(typeRef{p, embeddedName(d.Recv.List[0].Type)}, d.Name.Name)
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.ValueSpec:
							for _, n := range s.Names {
								top[n.Name] = true
							}
						case *ast.TypeSpec:
							top[s.Name.Name] = true
							tp := typeRef{p, s.Name.Name}
							idx.types[s.Name.Name] = append(idx.types[s.Name.Name], tp)
							var fields *ast.FieldList
							switch typ := s.Type.(type) {
							case *ast.StructType:
								fields = typ.Fields
							case *ast.InterfaceType:
								fields = typ.Methods
							}
							if fields == nil {
								continue
							}
							for _, fld := range fields.List {
								for _, n := range fld.Names {
									member(tp, n.Name)
								}
								if len(fld.Names) == 0 {
									member(tp, embeddedName(fld.Type))
								}
							}
						}
					}
				}
			}
		}
	}
	err := filepath.WalkDir(tr.root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && p != tr.root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		idx.files[d.Name()] = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	bench, err := os.ReadFile(filepath.Join(tr.root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var decl map[string]any
	if err := json.Unmarshal(bench, &decl); err != nil {
		t.Fatal(err)
	}
	for _, v := range decl {
		list, _ := v.([]any)
		for _, e := range list {
			if m, ok := e.(map[string]any); ok {
				if name, ok := m["name"].(string); ok {
					idx.metrics[name] = true
				}
			}
		}
	}
	exp, err := os.ReadFile(filepath.Join(tr.root, "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	idx.headings = headings(string(exp))
	design, err := os.ReadFile(filepath.Join(tr.root, "DESIGN.md"))
	if err != nil {
		t.Fatal(err)
	}
	idx.sections = headings(string(design))
	for _, m := range boldLabel.FindAllStringSubmatch(string(design), -1) {
		idx.sections = append(idx.sections, m[1])
	}
	return idx
}

// headings returns a markdown document's headings, without the #s.
func headings(doc string) []string {
	var out []string
	for _, line := range strings.Split(doc, "\n") {
		if strings.HasPrefix(line, "#") {
			out = append(out, strings.TrimSpace(strings.TrimLeft(line, "#")))
		}
	}
	return out
}

// anyMember reports whether some module type called typ has member name.
func (idx *docIndex) anyMember(typ, name string) bool {
	for _, tp := range idx.types[typ] {
		if idx.members[tp][name] {
			return true
		}
	}
	return false
}

// heading reports whether an EXPERIMENTS.md heading starts with h.
func (idx *docIndex) heading(h string) bool { return hasPrefix(idx.headings, h) }

func hasPrefix(list []string, h string) bool {
	for _, have := range list {
		if strings.HasPrefix(have, h) {
			return true
		}
	}
	return false
}

// badPointers returns why each EXPERIMENTS.md or DESIGN.md pointer in
// text does not resolve; a pointer's quoted text may wrap, and one that
// starts with < is a placeholder.
func (idx *docIndex) badPointers(text string) []string {
	var out []string
	for _, m := range docPointer.FindAllStringSubmatch(text, -1) {
		h := strings.Join(strings.Fields(m[2]), " ")
		list := idx.headings
		if m[1] == "DESIGN" {
			list = idx.sections
		}
		if !strings.HasPrefix(h, "<") && !hasPrefix(list, h) {
			out = append(out, m[1]+`.md has no section "`+h+`"`)
		}
	}
	return out
}

// resolve returns why the backticked span s does not resolve in the
// module, or "" if it does or is not a kind of name the rules check.
func (idx *docIndex) resolve(s string) string {
	switch {
	case testFunc.MatchString(s):
		if prefix, ok := strings.CutSuffix(s, "*"); ok {
			for name := range idx.tests {
				if strings.HasPrefix(name, prefix) {
					return ""
				}
			}
			return "no test function has this prefix"
		}
		if !idx.tests[s] {
			return "no such test function in the module"
		}
		return ""
	case metricName.MatchString(s) && strings.Contains(s, "_"):
		if !idx.metrics[s] {
			return "not a name BENCHMARK.json declares"
		}
		return ""
	case strings.Contains(s, "/") && repoPath.MatchString(s):
		return idx.resolvePath(s)
	case fileName.MatchString(s):
		if !idx.files[s] {
			return "no file of this name in the tree"
		}
		return ""
	case recvMethod.MatchString(s):
		m := recvMethod.FindStringSubmatch(s)
		if m[1] == "" {
			if !idx.anyMember(m[2], m[3]) {
				return "no module type " + m[2] + " has a method " + m[3]
			}
			return ""
		}
		ps := idx.pkgs[m[1]]
		if ps == nil {
			return ""
		}
		for _, p := range ps {
			if idx.members[typeRef{p, m[2]}][m[3]] {
				return ""
			}
		}
		return "package " + m[1] + " has no type " + m[2] + " with a method " + m[3]
	}
	s = strings.TrimLeft(s, "*&")
	if i := strings.IndexAny(s, "({["); i >= 0 {
		s = s[:i]
	}
	if !selector.MatchString(s) {
		return ""
	}
	segs := strings.Split(s, ".")
	if ps := idx.pkgs[segs[0]]; ps != nil && unicode.IsLower(rune(segs[0][0])) {
		for _, p := range ps {
			if !idx.top[p][segs[1]] {
				continue
			}
			if members := idx.members[typeRef{p, segs[1]}]; len(segs) > 2 && members != nil && !members[segs[2]] {
				return segs[0] + "." + segs[1] + " has no field or method " + segs[2]
			}
			return ""
		}
		return "no package " + segs[0] + " in the module declares " + segs[1]
	}
	if idx.types[segs[0]] != nil && !idx.anyMember(segs[0], segs[1]) {
		return "no module type " + segs[0] + " has a field or method " + segs[1]
	}
	return ""
}

// resolvePath checks a repository path: one whose first element is at
// the root or under internal/ must exist relative to one of the two.
func (idx *docIndex) resolvePath(s string) string {
	first, _, _ := strings.Cut(s, "/")
	inRepo := false
	for _, base := range []string{"", "internal"} {
		if _, err := os.Stat(filepath.Join(idx.root, base, first)); err != nil {
			continue
		}
		inRepo = true
		if _, err := os.Stat(filepath.Join(idx.root, base, s)); err == nil {
			return ""
		}
	}
	if inRepo {
		return "no such path in the repository"
	}
	return ""
}
