package archtest

import (
	"fmt"
	"go/ast"
	"go/token"
	"path"
	"slices"
	"strings"
	"testing"
)

// counterSurfaces are the stats surfaces. Each declares its counters
// once, as the fields of one struct; its live counters are a value of
// that struct, and internal/metrics walks the fields.
var counterSurfaces = []struct{ pkg, typ string }{
	{"internal/vm", "CacheStats"},
	{"internal/sched", "Snapshot"},
	{"internal/fs", "StatCounters"},
	{"internal/libos", "NetSnapshot"},
	{"internal/libos", "SpawnSnapshot"},
}

// TestCountersDeclaredOnce: no surface's counters are declared a second
// time. Two shapes of a second declaration fail it:
//   - a twin struct: any other struct in the module with two or more
//     integer or sync/atomic integer fields named like the surface's
//     counters (in any case), such as a live struct beside its snapshot;
//   - a field list: a non-test function outside internal/metrics that
//     reads half or more (at least three) of a surface's counters by
//     name — a hand-written load, Sub, sum or print. Taking a counter's
//     address (atomic.AddUint64(&s.F, 1)), incrementing it or assigning
//     it is not a read, so increment sites and vm's per-Run publish list
//     (CacheStats.counters, which takes each field's address) pass.
func TestCountersDeclaredOnce(t *testing.T) {
	tr := load(t)
	type surface struct {
		name   string
		decl   *ast.StructType
		fields map[string]bool // lower-cased counter names
	}
	var surfaces []surface
	for _, cs := range counterSurfaces {
		td := tr.pkg(t, cs.pkg).types[cs.typ]
		if td == nil {
			t.Fatalf("%s.%s is not declared", cs.pkg, cs.typ)
		}
		st, ok := td.spec.Type.(*ast.StructType)
		if !ok {
			t.Fatalf("%s.%s is not a struct type", cs.pkg, cs.typ)
		}
		s := surface{name: path.Base(cs.pkg) + "." + cs.typ, decl: st, fields: make(map[string]bool)}
		for _, fl := range st.Fields.List {
			for _, id := range fl.Names {
				s.fields[strings.ToLower(id.Name)] = true
			}
		}
		surfaces = append(surfaces, s)
	}

	var found []string
	for _, p := range tr.pkgs {
		if p.path == module+"/internal/metrics" {
			continue
		}
		for _, f := range p.files {
			for _, d := range f.ast.Decls {
				// Twin structs, anywhere in the declaration.
				ast.Inspect(d, func(n ast.Node) bool {
					st, ok := n.(*ast.StructType)
					if !ok {
						return true
					}
					for _, s := range surfaces {
						if st == s.decl {
							continue
						}
						var twins []string
						for _, fl := range st.Fields.List {
							for _, id := range fl.Names {
								if s.fields[strings.ToLower(id.Name)] && isCounterType(f, fl.Type) {
									twins = append(twins, id.Name)
								}
							}
						}
						if len(twins) >= 2 {
							found = append(found, fmt.Sprintf("%s: a struct declares %s's counters %v again", f.name, s.name, twins))
						}
					}
					return true
				})

				// Field lists, per function.
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				for _, s := range surfaces {
					if reads := counterReads(fd.Body, s.fields); len(reads) >= max(3, (len(s.fields)+1)/2) {
						found = append(found, fmt.Sprintf("%s: %s reads %s's counters %v one by one", f.name, funcName(fd), s.name, reads))
					}
				}
			}
		}
	}
	slices.Sort(found)
	for _, msg := range found {
		t.Error(msg)
	}
}

// isCounterType reports whether e is uint64, int64, or sync/atomic's
// Uint64 or Int64 in f.
func isCounterType(f *srcFile, e ast.Expr) bool {
	if id, ok := e.(*ast.Ident); ok {
		return id.Name == "uint64" || id.Name == "int64"
	}
	return f.isQualified(e, "sync/atomic", "Uint64", "Int64")
}

// counterReads returns, sorted and lower-cased, the counters of fields
// (lower-cased names) that body reads: as a selector x.F that is not
// the operand of &, an increment or an assignment's left side, or as
// the key of a composite literal element.
func counterReads(body *ast.BlockStmt, fields map[string]bool) []string {
	written := make(map[ast.Expr]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				written[n.X] = true
			}
		case *ast.IncDecStmt:
			written[n.X] = true
		case *ast.AssignStmt:
			for _, l := range n.Lhs {
				written[l] = true
			}
		}
		return true
	})
	read := make(map[string]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		var name string
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if !written[n] {
				name = n.Sel.Name
			}
		case *ast.KeyValueExpr:
			if id, ok := n.Key.(*ast.Ident); ok {
				name = id.Name
			}
		}
		if lower := strings.ToLower(name); fields[lower] {
			read[lower] = true
		}
		return true
	})
	var out []string
	for name := range read {
		out = append(out, name)
	}
	slices.Sort(out)
	return out
}
