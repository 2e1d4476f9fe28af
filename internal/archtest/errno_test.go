package archtest

import (
	"go/ast"
	"go/token"
	"path"
	"strings"
	"testing"
)

// errnoTable is the file that holds the one error table,
// sysdispatch.errnos, and the one conversion, sysdispatch.Err.
const errnoTable = "internal/sysdispatch/errno.go"

// TestErrnoDecidedOnce: every kernel turns a Go error into a guest's
// errno through sysdispatch.Err. In the non-test files of the three
// kernels and the spine, outside the table's own file, nothing calls
// errors.Is or errors.As, so no handler tells sentinels apart to pick
// an errno of its own, and nothing answers a literal EIO
// (Errno(EIO), -EIO): EIO is what the table answers for an error no
// row names. Accept on a closed listener answers EIO too, through the
// table (hostos.ErrClosed), so no site needs an exception.
func TestErrnoDecidedOnce(t *testing.T) {
	tr := load(t)
	isEIO := func(e ast.Expr) bool {
		switch e := ast.Unparen(e).(type) {
		case *ast.Ident:
			return e.Name == "EIO"
		case *ast.SelectorExpr:
			return e.Sel.Name == "EIO"
		}
		return false
	}
	isErrno := func(e ast.Expr) bool {
		switch e := e.(type) {
		case *ast.Ident:
			return e.Name == "Errno"
		case *ast.SelectorExpr:
			return e.Sel.Name == "Errno"
		}
		return false
	}
	for _, rel := range []string{"internal/libos", "internal/baseline", "internal/linuxsim", "internal/eip", "internal/sysdispatch"} {
		var files []*srcFile
		for _, f := range tr.pkg(t, rel).files {
			if f.name != errnoTable {
				files = append(files, f)
			}
		}
		eachNode(files, func(f *srcFile, fd *ast.FuncDecl, n ast.Node) {
			switch n := n.(type) {
			case *ast.CallExpr:
				if f.isQualified(n.Fun, "errors", "Is", "As") {
					t.Errorf("%s: %s tells errors apart; the errno is sysdispatch.Err's", f.name, funcName(fd))
				}
				if isErrno(n.Fun) && len(n.Args) == 1 && isEIO(n.Args[0]) {
					t.Errorf("%s: %s answers Errno(EIO); an error's errno is sysdispatch.Err's", f.name, funcName(fd))
				}
			case *ast.UnaryExpr:
				if n.Op == token.SUB && isEIO(n.X) {
					t.Errorf("%s: %s answers -EIO; an error's errno is sysdispatch.Err's", f.name, funcName(fd))
				}
			}
		})
	}
}

// eioOnPurpose names the sentinels the errno table has no row for, and
// why EIO is the answer a guest should get.
var eioOnPurpose = map[string]string{
	"fs.ErrCorrupt":    "the store failed to authenticate the bytes: they cannot be served, an I/O error",
	"fs.ErrOldFormat":  "returned when a store is opened, at boot; no syscall does",
	"fs.ErrBadKey":     "returned when a store is opened, at boot; no syscall does",
	"hostos.ErrIO":     "a failed host storage operation",
	"hostos.ErrNoFile": "a missing shard file is the store's I/O error, never a guest path's ENOENT",
	"hostos.ErrClosed": "accept on a listener closed under it; EIO is the documented answer on every kernel",
}

// TestEverySentinelHasARow: a new sentinel cannot reach a guest as an
// EIO nobody chose. Every exported Err* variable of the packages whose
// errors reach a syscall handler is a row of sysdispatch.errnos, or is
// listed in eioOnPurpose with the reason.
func TestEverySentinelHasARow(t *testing.T) {
	tr := load(t)
	rows := map[string]bool{}
	table := tr.pkg(t, "internal/sysdispatch")
	for _, f := range table.files {
		if f.name != errnoTable {
			continue
		}
		eachNode([]*srcFile{f}, func(f *srcFile, _ *ast.FuncDecl, n ast.Node) {
			vs, ok := n.(*ast.ValueSpec)
			if !ok || len(vs.Names) != 1 || vs.Names[0].Name != "errnos" {
				return
			}
			for _, elt := range vs.Values[0].(*ast.CompositeLit).Elts {
				switch e := elt.(*ast.CompositeLit).Elts[0].(type) {
				case *ast.Ident:
					rows["sysdispatch."+e.Name] = true
				case *ast.SelectorExpr:
					rows[path.Base(f.importOf(e.X))+"."+e.Sel.Name] = true
				}
			}
		})
	}
	if len(rows) == 0 {
		t.Fatalf("no rows found in %s's errnos", errnoTable)
	}
	declared := map[string]bool{}
	for _, rel := range []string{"internal/fs", "internal/hostos", "internal/oelf", "internal/libos", "internal/baseline", "internal/sysdispatch"} {
		for _, f := range tr.pkg(t, rel).files {
			for _, d := range f.ast.Decls {
				gd, ok := d.(*ast.GenDecl)
				if !ok || gd.Tok != token.VAR {
					continue
				}
				for _, s := range gd.Specs {
					for _, id := range s.(*ast.ValueSpec).Names {
						if !strings.HasPrefix(id.Name, "Err") || !id.IsExported() {
							continue
						}
						name := path.Base(rel) + "." + id.Name
						_, onPurpose := eioOnPurpose[name]
						declared[name] = true
						switch {
						case rows[name] && onPurpose:
							t.Errorf("%s has a row and is listed as EIO on purpose", name)
						case !rows[name] && !onPurpose:
							t.Errorf("%s reaches a guest as EIO: give it a row in %s, or say in eioOnPurpose why EIO", name, errnoTable)
						}
					}
				}
			}
		}
	}
	for name := range eioOnPurpose {
		if !declared[name] {
			t.Errorf("eioOnPurpose lists %s, which no package declares", name)
		}
	}
}
