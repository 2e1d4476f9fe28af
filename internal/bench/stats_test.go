package bench

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// TestStatsPrintEveryCounter: occlum-bench -stats prints, for each of
// the four surfaces, one line holding every counter's delta by name,
// plus the vm hit rate and the hart utilisation.
func TestStatsPrintEveryCounter(t *testing.T) {
	var before, after counters
	surfaces := []struct {
		name          string
		before, after any
	}{
		{"vm", &before.vm, &after.vm},
		{"sched", &before.sched, &after.sched},
		{"net", &before.net, &after.net},
		{"fs", &before.fs, &after.fs},
	}
	want := make([][]string, len(surfaces))
	n := int64(100)
	for i, s := range surfaces {
		b, a := reflect.ValueOf(s.before).Elem(), reflect.ValueOf(s.after).Elem()
		for f := range a.NumField() {
			n++
			if a.Field(f).Kind() == reflect.Int64 {
				b.Field(f).SetInt(n)
				a.Field(f).SetInt(3 * n)
			} else {
				b.Field(f).SetUint(uint64(n))
				a.Field(f).SetUint(uint64(3 * n))
			}
			want[i] = append(want[i], fmt.Sprintf(" %s=%d", a.Type().Field(f).Name, 2*n))
		}
	}
	want[0] = append(want[0], " HitRate=")
	want[1] = append(want[1], " HartUtil=")

	var out strings.Builder
	after.writeDelta(&out, before)
	lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
	if len(lines) != len(surfaces) {
		t.Fatalf("%d lines, want %d:\n%s", len(lines), len(surfaces), out.String())
	}
	for i, s := range surfaces {
		if !strings.HasPrefix(lines[i], "  ["+s.name+":") {
			t.Errorf("line %d = %q, want the %s surface", i, lines[i], s.name)
		}
		for _, w := range want[i] {
			if !strings.Contains(lines[i], w) {
				t.Errorf("%s line %q lacks %q", s.name, lines[i], w)
			}
		}
	}
}
