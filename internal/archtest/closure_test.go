package archtest

import (
	"go/build"
	"os"
	"path"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// closure returns the module packages the roots link, roots included:
// the non-test import graph read from the source with go/build, one
// directory at a time, keyed by import path.
func closure(t *testing.T, roots ...string) map[string]*build.Package {
	t.Helper()
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	pkgs := make(map[string]*build.Package)
	var walk func(ip string)
	walk = func(ip string) {
		if _, seen := pkgs[ip]; seen {
			return
		}
		bp, err := build.ImportDir(filepath.Join(root, strings.TrimPrefix(ip, module+"/")), 0)
		if err != nil {
			t.Fatal(err)
		}
		pkgs[ip] = bp
		for _, imp := range moduleImports(bp) {
			walk(imp)
		}
	}
	for _, r := range roots {
		walk(path.Join(module, r))
	}
	return pkgs
}

func moduleImports(bp *build.Package) []string {
	var out []string
	for _, imp := range bp.Imports {
		if strings.HasPrefix(imp, module+"/") {
			out = append(out, imp)
		}
	}
	return out
}

// TestVerifierTCB pins the verifier's trusted computing base. The module
// packages the verifier and occlum-verify link are isa, oelf and the
// range analysis: no assembler, instrumenter or memory model. The
// analysis depends on isa alone, and the whole closure, roots included,
// stays within a line budget.
func TestVerifierTCB(t *testing.T) {
	const budget = 2500
	roots := []string{"internal/verifier", "cmd/occlum-verify"}
	pkgs := closure(t, roots...)
	lines := 0
	var deps []string
	for ip, bp := range pkgs {
		lines += sourceLines(t, bp)
		if !slices.Contains(roots, strings.TrimPrefix(ip, module+"/")) {
			deps = append(deps, ip)
		}
	}
	slices.Sort(deps)
	want := []string{module + "/internal/isa", module + "/internal/oelf", module + "/internal/verifier/analysis"}
	if !slices.Equal(deps, want) {
		t.Errorf("verifier closure = %v, want %v", deps, want)
	}
	if got := moduleImports(pkgs[module+"/internal/verifier/analysis"]); !slices.Equal(got, want[:1]) {
		t.Errorf("verifier/analysis imports %v from the module, want only isa", got)
	}
	t.Logf("verifier TCB: %d non-test lines in %d packages", lines, len(pkgs))
	if lines > budget {
		t.Errorf("verifier TCB is %d non-test lines, over the %d budget", lines, budget)
	}
}

// TestKernelExcludesHostfault keeps the fault decorator test support:
// no package the LibOS, the store or occlum-run links imports
// internal/hostos/hostfault, so a kernel build cannot inject faults.
func TestKernelExcludesHostfault(t *testing.T) {
	const fault = module + "/internal/hostos/hostfault"
	for ip, bp := range closure(t, "internal/libos", "internal/fs", "cmd/occlum-run") {
		if ip == fault || slices.Contains(bp.Imports, fault) {
			t.Errorf("%s links %s", ip, fault)
		}
	}
}

// sourceLines counts the lines of a package's non-test files.
func sourceLines(t *testing.T, bp *build.Package) int {
	t.Helper()
	n := 0
	for _, name := range bp.GoFiles {
		src, err := os.ReadFile(filepath.Join(bp.Dir, name))
		if err != nil {
			t.Fatal(err)
		}
		n += strings.Count(string(src), "\n")
	}
	return n
}
