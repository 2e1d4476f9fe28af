// Package archtest holds the tree's structural rules. Each rule is one
// test that reads the module's source with go/build, go/parser and
// go/ast, so it checks what the code declares and calls, not how a line
// is spelled, and fails when the rule breaks. The package has no
// non-test code.
package archtest

import (
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
)

const module = "repro"

// tree is the module's source: every package under the repository root
// except testdata and the separate benchmarks module.
type tree struct {
	root string
	pkgs map[string]*pkg // by import path
}

type pkg struct {
	path  string
	files []*srcFile // non-test
	tests []*srcFile // _test.go files, internal and external
	types map[string]*typeDecl
	funcs map[string]*funcDecl // package-level functions, not methods
}

type srcFile struct {
	pkg     *pkg
	name    string // relative to the repository root, slash-separated
	ast     *ast.File
	imports map[string]string // local name → import path
}

type typeDecl struct {
	file *srcFile
	spec *ast.TypeSpec
}

type funcDecl struct {
	file *srcFile
	decl *ast.FuncDecl
}

var (
	loadOnce sync.Once
	loaded   *tree
	loadErr  error
)

// load parses the module once per test binary.
func load(t *testing.T) *tree {
	t.Helper()
	loadOnce.Do(func() { loaded, loadErr = parseTree() })
	if loadErr != nil {
		t.Fatal(loadErr)
	}
	return loaded
}

func repoRoot() (string, error) { return filepath.Abs(filepath.Join("..", "..")) }

func parseTree() (*tree, error) {
	root, err := repoRoot()
	if err != nil {
		return nil, err
	}
	tr := &tree{root: root, pkgs: make(map[string]*pkg)}
	fset := token.NewFileSet()
	err = filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		rel, _ := filepath.Rel(root, dir)
		rel = filepath.ToSlash(rel)
		base := d.Name()
		if rel != "." && (base == "testdata" || base == "benchmarks" || strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_")) {
			return filepath.SkipDir
		}
		bp, err := build.ImportDir(dir, 0)
		if _, none := err.(*build.NoGoError); none {
			return nil
		} else if err != nil {
			return err
		}
		p := &pkg{path: path.Join(module, rel), types: make(map[string]*typeDecl), funcs: make(map[string]*funcDecl)}
		parse := func(names []string, test bool) error {
			for _, n := range names {
				af, err := parser.ParseFile(fset, filepath.Join(dir, n), nil, parser.SkipObjectResolution|parser.ParseComments)
				if err != nil {
					return err
				}
				f := &srcFile{pkg: p, name: path.Join(rel, n), ast: af, imports: make(map[string]string)}
				for _, is := range af.Imports {
					ip, _ := strconv.Unquote(is.Path.Value)
					local := path.Base(ip)
					if is.Name != nil {
						local = is.Name.Name
					}
					f.imports[local] = ip
				}
				if test {
					p.tests = append(p.tests, f)
					continue
				}
				p.files = append(p.files, f)
				for _, d := range af.Decls {
					switch d := d.(type) {
					case *ast.FuncDecl:
						if d.Recv == nil {
							p.funcs[d.Name.Name] = &funcDecl{f, d}
						}
					case *ast.GenDecl:
						for _, s := range d.Specs {
							if ts, ok := s.(*ast.TypeSpec); ok {
								p.types[ts.Name.Name] = &typeDecl{f, ts}
							}
						}
					}
				}
			}
			return nil
		}
		if err := parse(bp.GoFiles, false); err != nil {
			return err
		}
		if err := parse(append(bp.TestGoFiles, bp.XTestGoFiles...), true); err != nil {
			return err
		}
		tr.pkgs[p.path] = p
		return nil
	})
	return tr, err
}

// pkg returns the package at rel (relative to the module root).
func (tr *tree) pkg(t *testing.T, rel string) *pkg {
	t.Helper()
	p := tr.pkgs[path.Join(module, rel)]
	if p == nil {
		t.Fatalf("package %s not found", rel)
	}
	return p
}

// named returns the module declaration of the type e names, if any.
func (tr *tree) named(f *srcFile, e ast.Expr) (*typeDecl, bool) {
	switch e := e.(type) {
	case *ast.ParenExpr:
		return tr.named(f, e.X)
	case *ast.IndexExpr:
		return tr.named(f, e.X)
	case *ast.IndexListExpr:
		return tr.named(f, e.X)
	case *ast.Ident:
		td, ok := f.pkg.types[e.Name]
		return td, ok
	case *ast.SelectorExpr:
		if p := tr.pkgs[f.importOf(e.X)]; p != nil {
			td, ok := p.types[e.Sel.Name]
			return td, ok
		}
	}
	return nil, false
}

// importOf returns the import path x names in f, or "" if x is not a
// package name.
func (f *srcFile) importOf(x ast.Expr) string {
	if id, ok := x.(*ast.Ident); ok {
		return f.imports[id.Name]
	}
	return ""
}

// isQualified reports whether e is the selector pkgPath.name in f.
func (f *srcFile) isQualified(e ast.Expr, pkgPath string, names ...string) bool {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok || f.importOf(sel.X) != pkgPath {
		return false
	}
	for _, n := range names {
		if sel.Sel.Name == n {
			return true
		}
	}
	return false
}

// inPlace calls fn for the type e and for every field a value of type
// e holds in place: the fields of structs and the elements of arrays it
// holds by value, recursively, but not what its pointers, slices, maps
// or channels refer to. fn gets each one's path, its file and its type;
// a module-named type is passed as its definition.
func (tr *tree) inPlace(f *srcFile, e ast.Expr, at string, fn func(at string, f *srcFile, typ ast.Expr)) {
	tr.inPlaceSeen(f, e, at, fn, map[*ast.TypeSpec]bool{})
}

func (tr *tree) inPlaceSeen(f *srcFile, e ast.Expr, at string, fn func(string, *srcFile, ast.Expr), seen map[*ast.TypeSpec]bool) {
	if td, ok := tr.named(f, e); ok {
		if !seen[td.spec] {
			seen[td.spec] = true
			tr.inPlaceSeen(td.file, td.spec.Type, at, fn, seen)
			delete(seen, td.spec)
		}
		return
	}
	fn(at, f, e)
	switch e := e.(type) {
	case *ast.ParenExpr:
		tr.inPlaceSeen(f, e.X, at, fn, seen)
	case *ast.StructType:
		for _, fld := range e.Fields.List {
			names := []string{embeddedName(fld.Type)}
			if len(fld.Names) > 0 {
				names = names[:0]
				for _, n := range fld.Names {
					names = append(names, n.Name)
				}
			}
			for _, n := range names {
				tr.inPlaceSeen(f, fld.Type, joinPath(at, n), fn, seen)
			}
		}
	case *ast.ArrayType:
		if e.Len != nil {
			tr.inPlaceSeen(f, e.Elt, at+"[]", fn, seen)
		}
	}
}

func joinPath(at, name string) string {
	if at == "" {
		return name
	}
	return at + "." + name
}

func embeddedName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return embeddedName(e.X)
	case *ast.SelectorExpr:
		return e.Sel.Name
	case *ast.Ident:
		return e.Name
	case *ast.IndexExpr:
		return embeddedName(e.X)
	case *ast.IndexListExpr:
		return embeddedName(e.X)
	}
	return "?"
}

// mutexes returns the paths of the sync.Mutex and sync.RWMutex values a
// value of type e holds in place.
func (tr *tree) mutexes(f *srcFile, e ast.Expr) []string {
	var out []string
	tr.inPlace(f, e, "", func(at string, f *srcFile, typ ast.Expr) {
		if f.isQualified(typ, "sync", "Mutex", "RWMutex") {
			out = append(out, at)
		}
	})
	return out
}

// element returns the type of the elements of a slice, array, map or
// channel type, and false for any other type. A module-named type is
// resolved to its definition.
func (tr *tree) element(f *srcFile, e ast.Expr) (*srcFile, ast.Expr, bool) {
	switch e := e.(type) {
	case *ast.ParenExpr:
		return tr.element(f, e.X)
	case *ast.ArrayType:
		return f, e.Elt, true
	case *ast.MapType:
		return f, e.Value, true
	case *ast.ChanType:
		return f, e.Value, true
	}
	if td, ok := tr.named(f, e); ok {
		return tr.element(td.file, td.spec.Type)
	}
	return f, e, false
}

// core strips pointers and containers from e: the type a value of type
// e ultimately refers to.
func (tr *tree) core(f *srcFile, e ast.Expr) (*srcFile, ast.Expr) {
	for range 16 {
		if st, ok := e.(*ast.StarExpr); ok {
			e = st.X
			continue
		}
		if ef, el, ok := tr.element(f, e); ok {
			f, e = ef, el
			continue
		}
		if td, ok := tr.named(f, e); ok {
			if _, ptr := td.spec.Type.(*ast.StarExpr); ptr {
				f, e = td.file, td.spec.Type
				continue
			}
		}
		break
	}
	return f, e
}

// isType reports whether e names the module type pkgRel.name in f.
func (tr *tree) isType(f *srcFile, e ast.Expr, pkgRel, name string) bool {
	td, ok := tr.named(f, e)
	return ok && td.spec.Name.Name == name && td.file.pkg.path == path.Join(module, pkgRel)
}

// resultType returns the static type of a package-level variable's
// initializer where the syntax shows it: a composite literal, its
// address, new(T), or a call of a module function.
func (tr *tree) resultType(f *srcFile, e ast.Expr) (*srcFile, ast.Expr, bool) {
	switch e := e.(type) {
	case *ast.ParenExpr:
		return tr.resultType(f, e.X)
	case *ast.CompositeLit:
		return f, e.Type, e.Type != nil
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			if ef, typ, ok := tr.resultType(f, e.X); ok {
				return ef, &ast.StarExpr{X: typ}, true
			}
		}
	case *ast.CallExpr:
		var fd *funcDecl
		switch fn := e.Fun.(type) {
		case *ast.Ident:
			if fn.Name == "new" && len(e.Args) == 1 {
				return f, &ast.StarExpr{X: e.Args[0]}, true
			}
			fd = f.pkg.funcs[fn.Name]
		case *ast.SelectorExpr:
			if p := tr.pkgs[f.importOf(fn.X)]; p != nil {
				fd = p.funcs[fn.Sel.Name]
			}
		}
		if fd != nil && fd.decl.Type.Results != nil {
			return fd.file, fd.decl.Type.Results.List[0].Type, true
		}
	}
	return f, nil, false
}

// reaches reports whether a value of type e holds or refers to a value
// of the module type pkgRel.name: in place, or through pointers,
// slices, arrays, maps and channels, at any depth.
func (tr *tree) reaches(f *srcFile, e ast.Expr, pkgRel, name string, seen map[*ast.TypeSpec]bool) bool {
	switch e := e.(type) {
	case *ast.ParenExpr:
		return tr.reaches(f, e.X, pkgRel, name, seen)
	case *ast.StarExpr:
		return tr.reaches(f, e.X, pkgRel, name, seen)
	case *ast.ArrayType:
		return tr.reaches(f, e.Elt, pkgRel, name, seen)
	case *ast.MapType:
		return tr.reaches(f, e.Value, pkgRel, name, seen)
	case *ast.ChanType:
		return tr.reaches(f, e.Value, pkgRel, name, seen)
	case *ast.StructType:
		for _, fld := range e.Fields.List {
			if tr.reaches(f, fld.Type, pkgRel, name, seen) {
				return true
			}
		}
		return false
	}
	if tr.isType(f, e, pkgRel, name) {
		return true
	}
	if td, ok := tr.named(f, e); ok && !seen[td.spec] {
		seen[td.spec] = true
		return tr.reaches(td.file, td.spec.Type, pkgRel, name, seen)
	}
	return false
}

// eachNode calls fn for each top-level declaration of the files with the
// function it belongs to (nil outside functions) and its nodes.
func eachNode(files []*srcFile, fn func(f *srcFile, fd *ast.FuncDecl, n ast.Node)) {
	for _, f := range files {
		for _, d := range f.ast.Decls {
			fd, _ := d.(*ast.FuncDecl)
			ast.Inspect(d, func(n ast.Node) bool {
				if n != nil {
					fn(f, fd, n)
				}
				return true
			})
		}
	}
}

// funcName renders fd as "(*Recv).name" or "name".
func funcName(fd *ast.FuncDecl) string {
	if fd == nil {
		return "<package level>"
	}
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	recv := fd.Recv.List[0].Type
	star := ""
	if s, ok := recv.(*ast.StarExpr); ok {
		star, recv = "*", s.X
	}
	return "(" + star + embeddedName(recv) + ")." + fd.Name.Name
}
