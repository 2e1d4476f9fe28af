package main

import (
	"os"
	"strings"
	"testing"

	"repro/internal/bench"
)

// TestUsageNamesEveryExperiment keeps the usage text in the package
// comment in step with bench.Experiments: every experiment the tool
// accepts is listed there.
func TestUsageNamesEveryExperiment(t *testing.T) {
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	doc, _, ok := strings.Cut(string(src), "\npackage main")
	if !ok {
		t.Fatal("main.go: no package clause")
	}
	words := map[string]bool{}
	for _, w := range strings.Fields(doc) {
		words[strings.Trim(w, ".,:;()")] = true
	}
	for _, name := range bench.Experiments {
		if !words[name] {
			t.Errorf("usage text does not list experiment %q", name)
		}
	}
}
