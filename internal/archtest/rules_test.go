package archtest

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// site is one place a rule found: a file and the function around it.
type site struct {
	file, fn string
}

// refs returns the non-test sites in the module that use the function
// pkgRel.name: any qualified reference from another package, and a call
// by its bare name inside its own package.
func (tr *tree) refs(pkgRel, name string) []site {
	target := path.Join(module, pkgRel)
	var out []site
	for _, p := range tr.pkgs {
		eachNode(p.files, func(f *srcFile, fd *ast.FuncDecl, n ast.Node) {
			hit := false
			switch n := n.(type) {
			case *ast.SelectorExpr:
				hit = f.isQualified(n, target, name)
			case *ast.CallExpr:
				id, ok := n.Fun.(*ast.Ident)
				hit = ok && p.path == target && id.Name == name
			}
			if hit {
				out = append(out, site{f.name, funcName(fd)})
			}
		})
	}
	slices.SortFunc(out, func(a, b site) int { return strings.Compare(a.file+a.fn, b.file+b.fn) })
	return out
}

// TestOneCPUPerDomain: a domain's CPU is made in one place, the warm
// slot's allocDomain; a second vm.New in the LibOS would hand a SIP a
// CPU the slot does not own.
func TestOneCPUPerDomain(t *testing.T) {
	tr := load(t)
	var inLibOS []site
	for _, s := range tr.refs("internal/vm", "New") {
		if path.Dir(s.file) == "internal/libos" {
			inLibOS = append(inLibOS, s)
		}
	}
	if want := []site{{"internal/libos/libos.go", "(*Occlum).allocDomain"}}; !slices.Equal(inLibOS, want) {
		t.Errorf("vm.New in internal/libos at %v, want only %v", inLibOS, want)
	}
}

// TestOneBaselineKernel: the goroutine-per-process kernel exists once.
// Only the LibOS and internal/baseline build a syscall table, and
// neither Table-1 model grows back a process table, a pid counter, or
// a run loop, trap entry, exit, wait4 or futex of its own.
func TestOneBaselineKernel(t *testing.T) {
	tr := load(t)
	var pkgs []string
	for _, s := range tr.refs("internal/sysdispatch", "NewTable") {
		pkgs = append(pkgs, path.Dir(s.file))
	}
	if want := []string{"internal/baseline", "internal/libos"}; !slices.Equal(pkgs, want) {
		t.Errorf("sysdispatch.NewTable is used in %v, want once in each of %v", pkgs, want)
	}
	kernelMethods := []string{"run", "exit", "syscall", "wait4", "sysFutex"}
	pidCounter := regexp.MustCompile(`(?i)pid`)
	for _, rel := range []string{"internal/linuxsim", "internal/eip"} {
		p := tr.pkg(t, rel)
		for _, f := range p.files {
			var pidNames []*ast.Ident
			ast.Inspect(f.ast, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					if n.Recv != nil && slices.Contains(kernelMethods, n.Name.Name) {
						t.Errorf("%s: %s is a kernel method; it belongs in internal/baseline", f.name, funcName(n))
					}
				case *ast.MapType:
					if _, v := tr.core(f, n.Value); embeddedName(v) == "Proc" {
						t.Errorf("%s: a map to Proc is a process table; it belongs in internal/baseline", f.name)
					}
				case *ast.Field:
					pidNames = append(pidNames, n.Names...)
				case *ast.ValueSpec:
					pidNames = append(pidNames, n.Names...)
				}
				return true
			})
			for _, id := range pidNames {
				if pidCounter.MatchString(id.Name) {
					t.Errorf("%s: %s looks like a pid counter; it belongs in internal/baseline", f.name, id.Name)
				}
			}
		}
	}
}

// TestOneRingOwner: the bounded byte stream exists once. Only the
// stream constructor makes a Ring, and a ring.Pool is a field of its
// owner, never a package-level variable or held by one: recycled
// buffers keep their old bytes, so a process-wide pool would mix trust
// domains.
func TestOneRingOwner(t *testing.T) {
	tr := load(t)
	if got, want := tr.refs("internal/ring", "New"), []site{{"internal/ring/stream.go", "newStream"}}; !slices.Equal(got, want) {
		t.Errorf("ring.New used at %v, want only %v", got, want)
	}
	for _, p := range tr.pkgs {
		for _, f := range p.files {
			for _, d := range f.ast.Decls {
				gd, ok := d.(*ast.GenDecl)
				if !ok || gd.Tok != token.VAR {
					continue
				}
				for _, s := range gd.Specs {
					vs := s.(*ast.ValueSpec)
					for i, id := range vs.Names {
						tf, typ := f, vs.Type
						if typ == nil && i < len(vs.Values) {
							tf, typ, _ = tr.resultType(f, vs.Values[i])
						}
						if typ != nil && tr.reaches(tf, typ, "internal/ring", "Pool", map[*ast.TypeSpec]bool{}) {
							t.Errorf("%s: package-level %s holds a ring.Pool", f.name, id.Name)
						}
					}
				}
			}
		}
	}
}

// lockRules is each table's locks: the mutexes it holds in place, by
// field path. One lock guards each table; none holds a slice, array or
// map of shards that carry locks of their own. objects names the
// containers whose elements are objects with a lock of their own state,
// one per object, not buckets of the table.
var lockRules = []struct {
	pkg, typ string
	mutexes  []string
	objects  []string
}{
	{"internal/sched", "Scheduler", []string{"mu"}, nil},
	{"internal/sched", "hart", nil, nil}, // a hart takes the Scheduler's lock
	{"internal/sysdispatch", "FDTable", []string{"mu"}, nil},
	{"internal/libos", "epollSet", []string{"mu"}, nil},
	// mu serves store I/O, futexMu the futex table, listenMu the port
	// table; connBufs.mu is the buffer pool's own, and a Listener's lock
	// guards its backlog.
	{"internal/hostos", "Host", []string{"mu", "futexMu", "listenMu", "connBufs.mu"}, []string{"listeners"}},
	{"internal/timers", "Queue", []string{"mu"}, nil},
}

// TestOneLockPerTable: the scheduler, the fd table, the epoll set, the
// host's futex and port tables and the LibOS deadline heap hold exactly
// the locks listed in lockRules, and no shard set. A second lock or a
// shard set comes back only with the measurement that keeps it.
func TestOneLockPerTable(t *testing.T) {
	tr := load(t)
	for _, r := range lockRules {
		td, ok := tr.pkg(t, r.pkg).types[r.typ]
		if !ok {
			t.Errorf("%s.%s not found", r.pkg, r.typ)
			continue
		}
		if got := tr.mutexes(td.file, td.spec.Type); !slices.Equal(got, r.mutexes) {
			t.Errorf("%s.%s holds mutexes %v, want %v", r.pkg, r.typ, got, r.mutexes)
		}
		tr.inPlace(td.file, td.spec.Type, "", func(at string, f *srcFile, typ ast.Expr) {
			if ef, el, ok := tr.element(f, typ); ok && !slices.Contains(r.objects, at) {
				if cf, c := tr.core(ef, el); len(tr.mutexes(cf, c)) > 0 {
					t.Errorf("%s.%s: %s is a set of locked shards", r.pkg, r.typ, at)
				}
			}
		})
	}
}

// TestOneRunQueue: the M:N scheduler has one FIFO run queue,
// Scheduler.q. No other field or variable in internal/sched holds a
// collection of tasks, so no hart owns a queue another could steal
// from, and a task links to no other task.
func TestOneRunQueue(t *testing.T) {
	tr := load(t)
	p := tr.pkg(t, "internal/sched")
	isTask := func(f *srcFile, e ast.Expr) bool { return tr.isType(f, e, "internal/sched", "G") }
	var queues []string
	check := func(f *srcFile, owner string, typ ast.Expr) {
		tr.inPlace(f, typ, owner, func(at string, f *srcFile, typ ast.Expr) {
			if ef, el, ok := tr.element(f, typ); ok {
				if cf, c := tr.core(ef, el); isTask(cf, c) {
					queues = append(queues, at)
				}
			}
		})
	}
	for _, f := range p.files {
		for _, d := range f.ast.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, s := range gd.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					if _, isStruct := s.Type.(*ast.StructType); isStruct {
						check(f, s.Name.Name, s.Type)
					}
				case *ast.ValueSpec:
					if s.Type != nil {
						for _, id := range s.Names {
							check(f, id.Name, s.Type)
						}
					}
				}
			}
		}
	}
	if want := []string{"Scheduler.q"}; !slices.Equal(queues, want) {
		t.Errorf("task collections in internal/sched: %v, want only %v", queues, want)
	}
	g := p.types["G"]
	for _, fld := range g.spec.Type.(*ast.StructType).Fields.List {
		if st, ok := fld.Type.(*ast.StarExpr); ok && isTask(g.file, st.X) {
			t.Errorf("G links to another G: an intrusive task queue")
		}
	}
}

// TestSyscallRecordLivesInProc: a syscall allocates nothing. The record
// (blockedSys) is a field of Proc, reset at entry, so nothing builds one
// on the heap; and it carries no atomic latch a stale wake callback
// could reach through a captured pointer. TestSyscallAllocationFloor is
// the behavioural check.
func TestSyscallRecordLivesInProc(t *testing.T) {
	tr := load(t)
	p := tr.pkg(t, "internal/libos")
	isRecord := func(e ast.Expr) bool { id, ok := e.(*ast.Ident); return ok && id.Name == "blockedSys" }
	eachNode(p.files, func(f *srcFile, fd *ast.FuncDecl, n ast.Node) {
		switch n := n.(type) {
		case *ast.UnaryExpr:
			if cl, ok := n.X.(*ast.CompositeLit); ok && n.Op == token.AND && isRecord(cl.Type) {
				t.Errorf("%s: %s builds &blockedSys{…}", f.name, funcName(fd))
			}
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "new" && len(n.Args) == 1 && isRecord(n.Args[0]) {
				t.Errorf("%s: %s calls new(blockedSys)", f.name, funcName(fd))
			}
		}
	})
	td := p.types["blockedSys"]
	if td == nil {
		t.Fatal("blockedSys not found")
	}
	tr.inPlace(td.file, td.spec.Type, "", func(at string, f *srcFile, typ ast.Expr) {
		ast.Inspect(typ, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok && f.importOf(sel.X) == "sync/atomic" {
				t.Errorf("blockedSys.%s is atomic", at)
			}
			return true
		})
	})
}

// TestSyscallsDescribedOnce: a syscall's new fds are the gate's. Outside
// internal/sysdispatch no non-test code calls FDTable.Install (the one
// Install method with a single argument): a handler leaves a new file
// in Call.Out, and the gate installs it after the call's out pointer
// has passed, so a failed call never leaves an fd behind. The
// constructors that decoded arguments per handler stay deleted
// (TestRemovedDesignsStayRemoved), and Register refuses a number Specs
// does not describe (sysdispatch TestRegisterRefusesUndescribedNumber).
func TestSyscallsDescribedOnce(t *testing.T) {
	tr := load(t)
	for _, p := range tr.pkgs {
		if p.path == path.Join(module, "internal/sysdispatch") {
			continue
		}
		eachNode(p.files, func(f *srcFile, fd *ast.FuncDecl, n ast.Node) {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) != 1 {
				return
			}
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Install" {
				t.Errorf("%s: %s installs an fd itself; leave the file in Call.Out", f.name, funcName(fd))
			}
		})
	}
}

// TestDomainEntryDefinedOnce: a domain's identity is set in one place.
// Only the loader's functions in internal/libos (PlaceCode, EnterDomain)
// turn a domain ID into the cfi_label value BND1 holds; every other
// runner — the LibOS, the Fig 7 kernels, RIPE, the test runners —
// enters its domain through them, so a change to the loader's bounds
// reaches every published result.
func TestDomainEntryDefinedOnce(t *testing.T) {
	tr := load(t)
	for _, s := range tr.refs("internal/isa", "CFILabelValue") {
		if dir := path.Dir(s.file); dir != "internal/libos" && dir != "internal/isa" {
			t.Errorf("%s: %s calls isa.CFILabelValue; enter the domain with libos.EnterDomain", s.file, s.fn)
		}
	}
}

// TestStoreNeverDropsDiskErrors: the store is fail-stop, so every
// write-side Disk call in internal/fs hands its error on. A call to
// WriteFileAt, RemoveFile or Sync, on any receiver, is never a bare
// statement, never run by go or defer, and never has its error
// assigned to _.
func TestStoreNeverDropsDiskErrors(t *testing.T) {
	tr := load(t)
	writes := []string{"WriteFileAt", "RemoveFile", "Sync"}
	isWrite := func(e ast.Expr) bool {
		call, ok := ast.Unparen(e).(*ast.CallExpr)
		if !ok {
			return false
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		return ok && slices.Contains(writes, sel.Sel.Name)
	}
	blank := func(e ast.Expr) bool { id, ok := e.(*ast.Ident); return ok && id.Name == "_" }
	// dropped reports whether an assignment of rhs to lhs discards the
	// error (the last result) of a write call among rhs.
	dropped := func(lhs []ast.Expr, rhs []ast.Expr) bool {
		if len(rhs) == 1 {
			return isWrite(rhs[0]) && blank(lhs[len(lhs)-1])
		}
		for i, r := range rhs {
			if isWrite(r) && blank(lhs[i]) {
				return true
			}
		}
		return false
	}
	eachNode(tr.pkg(t, "internal/fs").files, func(f *srcFile, fd *ast.FuncDecl, n ast.Node) {
		bad := false
		switch n := n.(type) {
		case *ast.ExprStmt:
			bad = isWrite(n.X)
		case *ast.GoStmt:
			bad = isWrite(n.Call)
		case *ast.DeferStmt:
			bad = isWrite(n.Call)
		case *ast.AssignStmt:
			bad = dropped(n.Lhs, n.Rhs)
		case *ast.ValueSpec:
			lhs := make([]ast.Expr, len(n.Names))
			for i, id := range n.Names {
				lhs[i] = id
			}
			bad = len(n.Values) > 0 && dropped(lhs, n.Values)
		}
		if bad {
			t.Errorf("%s: %s discards the error of a %v call", f.name, funcName(fd), writes)
		}
	})
}

// TestStoreSealsOnlyWithGCM: the store seals every block with GCM. The
// retired v3 block cipher (cipher.NewCTR and its keystream XOR) and the
// key labels of v3's block HMAC appear nowhere in internal/fs, test
// files included.
func TestStoreSealsOnlyWithGCM(t *testing.T) {
	tr := load(t)
	p := tr.pkg(t, "internal/fs")
	for _, f := range append(slices.Clone(p.files), p.tests...) {
		ast.Inspect(f.ast, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if f.isQualified(n, "crypto/cipher", "NewCTR") || n.Sel.Name == "XORKeyStream" {
					t.Errorf("%s: uses %s", f.name, n.Sel.Name)
				}
			case *ast.BasicLit:
				if s, err := strconv.Unquote(n.Value); err == nil && n.Kind == token.STRING && (s == "enc:" || s == "mac:") {
					t.Errorf("%s: v3 HMAC label %q", f.name, s)
				}
			}
			return true
		})
	}
}

// TestNoWholeTableMAC: a commit MACs only the stripes that changed and
// then one MAC per stripe. Nothing in internal/fs computes a MAC over
// the whole table, the retired v4 root rule.
func TestNoWholeTableMAC(t *testing.T) {
	tr := load(t)
	// wholeTable reports whether e is x.table or x.table[:].
	wholeTable := func(e ast.Expr) bool {
		if sl, ok := e.(*ast.SliceExpr); ok && sl.Low == nil && sl.High == nil {
			e = sl.X
		}
		sel, ok := e.(*ast.SelectorExpr)
		return ok && sel.Sel.Name == "table"
	}
	var got []site
	eachNode(tr.pkg(t, "internal/fs").files, func(f *srcFile, fd *ast.FuncDecl, n ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) != 1 || !wholeTable(call.Args[0]) {
			return
		}
		if w, ok := call.Fun.(*ast.SelectorExpr); ok && w.Sel.Name == "Write" {
			if m, ok := w.X.(*ast.SelectorExpr); ok && m.Sel.Name == "mac" {
				got = append(got, site{f.name, funcName(fd)})
			}
		}
	})
	if len(got) > 0 {
		t.Errorf("whole-table MAC at %v", got)
	}
}

// declared returns the identifiers f declares, at any scope: functions,
// methods, types, variables, constants, fields, parameters and labels,
// plus its package name and import paths.
func declared(f *ast.File) []string {
	out := []string{f.Name.Name}
	for _, is := range f.Imports {
		out = append(out, is.Path.Value)
	}
	add := func(ids ...*ast.Ident) {
		for _, id := range ids {
			out = append(out, id.Name)
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			add(n.Name)
		case *ast.TypeSpec:
			add(n.Name)
		case *ast.ValueSpec:
			add(n.Names...)
		case *ast.Field:
			add(n.Names...)
		case *ast.LabeledStmt:
			add(n.Label)
		case *ast.AssignStmt:
			if n.Tok == token.DEFINE {
				for _, l := range n.Lhs {
					if id, ok := l.(*ast.Ident); ok {
						add(id)
					}
				}
			}
		case *ast.RangeStmt:
			if n.Tok == token.DEFINE {
				for _, e := range []ast.Expr{n.Key, n.Value} {
					if id, ok := e.(*ast.Ident); ok {
						add(id)
					}
				}
			}
		}
		return true
	})
	return out
}

// TestRemovedDesignsStayRemoved: no file declares an identifier of a
// design that was measured and removed. The designs, their identifiers
// and the directories searched are DESIGN.md's "Removed" table: a
// design returns only with the measurement that keeps it, in a change
// that edits that table.
func TestRemovedDesignsStayRemoved(t *testing.T) {
	tr := load(t)
	for _, r := range removedDesigns(t, tr) {
		for _, p := range tr.pkgs {
			rel := strings.TrimPrefix(p.path, module+"/")
			if !slices.ContainsFunc(r.where, func(w string) bool { return rel == w || strings.HasPrefix(rel, w+"/") }) {
				continue
			}
			for _, f := range append(slices.Clone(p.files), p.tests...) {
				for _, id := range declared(f.ast) {
					if slices.ContainsFunc(r.names, func(re *regexp.Regexp) bool { return re.MatchString(id) }) {
						t.Errorf("%s: declares %s, part of the removed %s", f.name, id, r.design)
					}
				}
			}
		}
	}
}

// asmFiles are the module's only assembly files: the RS kernel's vector
// leaves and the CPUID/XGETBV probe that picks them. Everything else is
// portable Go.
var asmFiles = []string{"internal/fs/rs_amd64.s"}

// TestAssemblyOnlyInRSKernel: the module's .s files are exactly
// asmFiles, and every TEXT symbol in one is declared, without a body, by
// a non-test _amd64.go file of its package — so no assembly hides from
// the Go side, and the portable build (!amd64) has to stand without it.
func TestAssemblyOnlyInRSKernel(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	var found []string
	err = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, p)
		rel = filepath.ToSlash(rel)
		base := d.Name()
		if d.IsDir() && rel != "." && (base == "testdata" || base == "benchmarks" || strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_")) {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(base, ".s") {
			found = append(found, rel)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(found, asmFiles) {
		t.Errorf("assembly files %v, want only %v", found, asmFiles)
	}

	text := regexp.MustCompile(`(?m)^TEXT\s+·(\w+)\(SB\)`)
	for _, rel := range found {
		src, err := os.ReadFile(filepath.Join(root, rel))
		if err != nil {
			t.Fatal(err)
		}
		decls := make(map[string]bool)
		gofiles, _ := filepath.Glob(filepath.Join(root, path.Dir(rel), "*_amd64.go"))
		for _, gf := range gofiles {
			if strings.HasSuffix(gf, "_test.go") {
				continue
			}
			af, err := parser.ParseFile(token.NewFileSet(), gf, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range af.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Body == nil {
					decls[fd.Name.Name] = true
				}
			}
		}
		syms := text.FindAllStringSubmatch(string(src), -1)
		if len(syms) == 0 {
			t.Errorf("%s: no TEXT symbol", rel)
		}
		for _, m := range syms {
			if !decls[m[1]] {
				t.Errorf("%s: TEXT ·%s has no body-less declaration in a non-test _amd64.go file of its package", rel, m[1])
			}
		}
	}
}

// wallClockFree are the places that may read the wall clock directly:
// the programs, internal/bench, which times whole experiments, and the
// fault decorator hostfault, whose read latency is a real sleep and
// which no kernel package links (TestKernelExcludesHostfault).
var wallClockFree = []string{"cmd", "examples", "internal/bench", "internal/hostos/hostfault"}

// TestWallClockOnlyInClock: time is delegated to the host (§6) through
// one timers.Clock, so no other non-test code reads the wall clock,
// sleeps on it or arms a timer on it. The real clock, timers.Wall, is
// the one reader; everything else reads the Clock it was handed, so one
// virtual clock drives a whole instance.
func TestWallClockOnlyInClock(t *testing.T) {
	tr := load(t)
	var got []site
	for _, p := range tr.pkgs {
		rel := strings.TrimPrefix(p.path, module+"/")
		if slices.ContainsFunc(wallClockFree, func(w string) bool { return rel == w || strings.HasPrefix(rel, w+"/") }) {
			continue
		}
		eachNode(p.files, func(f *srcFile, fd *ast.FuncDecl, n ast.Node) {
			if sel, ok := n.(*ast.SelectorExpr); ok && f.isQualified(sel, "time", "Now", "Since", "Until", "After", "AfterFunc", "NewTimer", "Tick", "NewTicker", "Sleep") {
				got = append(got, site{f.name, funcName(fd) + ": time." + sel.Sel.Name})
			}
		})
	}
	slices.SortFunc(got, func(a, b site) int { return strings.Compare(a.file+a.fn, b.file+b.fn) })
	want := []site{
		{"internal/timers/timers.go", "(Wall).Now: time.Now"},
		{"internal/timers/timers.go", "(Wall).Since: time.Since"},
		{"internal/timers/timers.go", "(Wall).Timer: time.AfterFunc"},
	}
	if !slices.Equal(got, want) {
		t.Errorf("wall-clock reads at %v, want only %v", got, want)
	}
}
