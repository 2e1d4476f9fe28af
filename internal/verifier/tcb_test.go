package verifier

import (
	"bytes"
	"go/build"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestVerifierTCB pins the verifier's trusted computing base. The module
// packages the verifier and occlum-verify link are isa, oelf and the
// range analysis: no assembler, instrumenter or memory model. The
// analysis depends on isa alone, and the whole closure, roots included,
// stays within a line budget. The import graph is read from the source
// with go/build, one directory at a time.
func TestVerifierTCB(t *testing.T) {
	const module, budget = "repro/", 2500
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	imports := make(map[string][]string) // package → its module imports
	lines := 0
	var walk func(path string)
	walk = func(path string) {
		if _, seen := imports[path]; seen {
			return
		}
		pkg, err := build.ImportDir(filepath.Join(root, strings.TrimPrefix(path, module)), 0)
		if err != nil {
			t.Fatal(err)
		}
		imports[path] = []string{}
		for _, f := range pkg.GoFiles {
			src, err := os.ReadFile(filepath.Join(pkg.Dir, f))
			if err != nil {
				t.Fatal(err)
			}
			lines += bytes.Count(src, []byte("\n"))
		}
		for _, imp := range pkg.Imports {
			if strings.HasPrefix(imp, module) {
				imports[path] = append(imports[path], imp)
				walk(imp)
			}
		}
	}
	roots := []string{module + "internal/verifier", module + "cmd/occlum-verify"}
	for _, r := range roots {
		walk(r)
	}

	var deps []string
	for p := range imports {
		if !slices.Contains(roots, p) {
			deps = append(deps, p)
		}
	}
	slices.Sort(deps)
	want := []string{module + "internal/isa", module + "internal/oelf", module + "internal/verifier/analysis"}
	if !slices.Equal(deps, want) {
		t.Errorf("verifier closure = %v, want %v", deps, want)
	}
	if got := imports[module+"internal/verifier/analysis"]; !slices.Equal(got, want[:1]) {
		t.Errorf("verifier/analysis imports %v from the module, want only isa", got)
	}
	t.Logf("verifier TCB: %d non-test lines in %d packages", lines, len(imports))
	if lines > budget {
		t.Errorf("verifier TCB is %d non-test lines, over the %d budget", lines, budget)
	}
}
