package archtest

import (
	"go/ast"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestInvariantsTableNamesRealTests parses DESIGN.md's "Invariants"
// table. Every Test* or Fuzz* name in it must be a test declared in the
// module, and every row must name at least one test in its last column
// or read "none" there.
func TestInvariantsTableNamesRealTests(t *testing.T) {
	tr := load(t)
	src, err := os.ReadFile(filepath.Join(tr.root, "DESIGN.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(src), "\n## Invariants\n")
	if !ok {
		t.Fatal(`DESIGN.md has no "## Invariants" section`)
	}
	if end := strings.Index(section, "\n## "); end >= 0 {
		section = section[:end]
	}

	declared := make(map[string]bool)
	for _, p := range tr.pkgs {
		for _, f := range p.tests {
			for _, d := range f.ast.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil {
					declared[fd.Name.Name] = true
				}
			}
		}
	}

	testName := regexp.MustCompile(`\b(?:Test|Fuzz)[A-Z0-9_]\w*`)
	rows := 0
	for _, line := range strings.Split(section, "\n") {
		if !strings.HasPrefix(line, "|") || strings.HasPrefix(line, "|---") || strings.HasPrefix(line, "| invariant |") {
			continue
		}
		rows++
		cells := strings.Split(strings.Trim(line, "| "), " | ")
		last := cells[len(cells)-1]
		if len(cells) != 3 {
			t.Errorf("row has %d cells, want 3: %s", len(cells), line)
		}
		if !testName.MatchString(last) && last != "none" {
			t.Errorf("row names no test and does not read none: %s", line)
		}
		for _, name := range testName.FindAllString(line, -1) {
			if !declared[name] {
				t.Errorf("Invariants names %s, which is not a test in the module", name)
			}
		}
	}
	if rows == 0 {
		t.Error("the Invariants table has no rows")
	}
}
