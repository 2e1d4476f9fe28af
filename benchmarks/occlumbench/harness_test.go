package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
)

// These tests cover the harness's own arithmetic only. Nothing here reads
// a clock: the benchmark's wall-clock numbers are checked by the A/A run
// (occlumbench -aa), not by go test.

func TestQuantile(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50}
	for _, c := range []struct{ q, want float64 }{
		{0, 10}, {0.10, 14}, {0.25, 20}, {0.5, 30}, {0.95, 48}, {1, 50}, {-1, 10}, {2, 50},
	} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v, want 0", got)
	}
	if got := quantile([]float64{7}, 0.1); got != 7 {
		t.Errorf("quantile of one sample = %v, want 7", got)
	}
	unsorted := []float64{5, 1, 4, 2, 3}
	if got := p10(unsorted); math.Abs(got-1.4) > 1e-9 {
		t.Errorf("p10 = %v, want 1.4", got)
	}
	if !reflect.DeepEqual(unsorted, []float64{5, 1, 4, 2, 3}) {
		t.Errorf("p10 reordered its argument: %v", unsorted)
	}
}

func TestRatioAndRelDelta(t *testing.T) {
	if ratio(1, 0) != 0 || ratio(6, 3) != 2 {
		t.Errorf("ratio: got %v and %v", ratio(1, 0), ratio(6, 3))
	}
	if relDelta(100, 108) != 0.08 || relDelta(0, 0) != 0 || !math.IsInf(relDelta(0, 1), 1) {
		t.Errorf("relDelta: got %v, %v, %v", relDelta(100, 108), relDelta(0, 0), relDelta(0, 1))
	}
}

func TestSelfTimes(t *testing.T) {
	// op [0,100] holds spawn [10,30] and wait [30,90]; wait holds a
	// child [40,50] and one that overruns its parent, [80,95].
	spans := []span{
		{ID: 0, Parent: -1, Name: "op", StartNS: 0, EndNS: 100},
		{ID: 1, Parent: 0, Name: "libos.spawn", StartNS: 10, EndNS: 30},
		{ID: 2, Parent: 0, Name: "libos.wait", StartNS: 30, EndNS: 90},
		{ID: 3, Parent: 2, Name: "inner", StartNS: 40, EndNS: 50},
		{ID: 4, Parent: 2, Name: "overrun", StartNS: 80, EndNS: 95},
	}
	want := []int64{20, 20, 40, 10, 15}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	sum := spanSummary(spans)
	if sum["harness.self"] != 0.020 || sum["libos.wait"] != 0.060 {
		t.Errorf("spanSummary = %v", sum)
	}
}

func TestTracerNesting(t *testing.T) {
	var ticks counters
	tr := newTracer(func() counters { ticks[vmInsts] += 5; return ticks })
	for op := 0; op < 2; op++ {
		tr.beginOp(op)
		tr.begin("libos.spawn")
		tr.end()
		tr.begin("libos.wait")
		tr.end()
		tr.end()
	}
	if len(tr.spans) != 6 || len(tr.open) != 0 {
		t.Fatalf("%d spans, %d still open", len(tr.spans), len(tr.open))
	}
	for i, want := range []struct {
		name       string
		parent, op int
	}{
		{"op", -1, 0}, {"libos.spawn", 0, 0}, {"libos.wait", 0, 0},
		{"op", -1, 1}, {"libos.spawn", 3, 1}, {"libos.wait", 3, 1},
	} {
		s := tr.spans[i]
		if s.ID != i || s.Name != want.name || s.Parent != want.parent || s.Op != want.op {
			t.Errorf("span %d = %+v, want %+v", i, s, want)
		}
		if s.EndNS < s.StartNS {
			t.Errorf("span %d ends before it starts", i)
		}
	}
	// Each snapshot call advanced the counter by 5: a leaf sees one call
	// between its two snapshots, an op root sees its own closing call
	// plus two per child.
	if got := tr.spans[1].Counters["vm.insts"]; got != 5 {
		t.Errorf("leaf span counter delta = %d, want 5", got)
	}
	if got := tr.spans[0].Counters["vm.insts"]; got != 25 {
		t.Errorf("root span counter delta = %d, want 25", got)
	}

	// Tracing off is a nil tracer; every call must be a no-op.
	var off *tracer
	off.beginOp(0)
	off.begin("x")
	off.end()
	off.end()
}

func TestCountersSubAndNamed(t *testing.T) {
	var a, b counters
	a[vmInsts], a[schedParks] = 100, 7
	b[vmInsts], b[schedParks] = 148, 9
	d := b.sub(a)
	if d[vmInsts] != 48 || d[schedParks] != 2 {
		t.Errorf("sub = %v", d)
	}
	if got, want := d.named(), map[string]uint64{"vm.insts": 48, "sched.parks": 2}; !reflect.DeepEqual(got, want) {
		t.Errorf("named = %v, want %v", got, want)
	}
	if d.per(vmInsts, 1) != 48 || d.per(schedParks, 0) != 0 {
		t.Errorf("per = %v, %v", d.per(vmInsts, 1), d.per(schedParks, 0))
	}
	for id, name := range counterNames {
		if name == "" {
			t.Errorf("counter %d has no name", id)
		}
	}
}

func TestReportRoundTrip(t *testing.T) {
	in := report{Correct: true, Attempted: 1000, Failed: 0, Metrics: metrics{}}
	in.Metrics.set("op_p10_us", 3640.7870000000003, "us")
	in.Metrics.set("guest_insts_per_op", 595844, "insts")
	line, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	// The report is the last line; metric listings come before it.
	out, err := parseReport(append([]byte("fish  op_p10_us  3640.7870 us\n"), append(line, '\n')...))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, *out) {
		t.Errorf("round trip: got %+v, want %+v", *out, in)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(line, &keys); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("report lacks key %q", k)
		}
	}
	if len(keys) != 4 {
		t.Errorf("report has %d keys, want exactly 4", len(keys))
	}
	if _, err := parseReport([]byte("no report here\n")); err == nil {
		t.Error("parseReport accepted a line that is no report")
	}
}

func TestSelectMetrics(t *testing.T) {
	m := metrics{}
	for _, d := range endToEnd {
		m.set(d.Name, 1, d.Unit)
	}
	m.set("extra", 1, "us")
	got, err := selectMetrics(m, endToEnd)
	if err != nil || len(got) != len(endToEnd) {
		t.Fatalf("selectMetrics = %v, %v", got, err)
	}
	delete(m, "setup_s")
	if _, err := selectMetrics(m, endToEnd); err == nil {
		t.Error("a missing metric went unnoticed")
	}
	m.set("setup_s", 1, "ms")
	if _, err := selectMetrics(m, endToEnd); err == nil {
		t.Error("a wrong unit went unnoticed")
	}
}

func TestSeededInputs(t *testing.T) {
	type gen func(seed uint64) []byte
	for name, g := range map[string]gen{
		"fish":   func(s uint64) []byte { return fishInput(s, fishInputSize) },
		"source": func(s uint64) []byte { return sourceText(s, 4099) },
		"random": func(s uint64) []byte { return randomBytes(s, 0xf6, 4099) },
	} {
		a, b, c := g(1), g(1), g(2)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: the same seed gave different bytes", name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: different seeds gave the same bytes", name)
		}
	}
	if bytes.Equal(randomBytes(1, 1, 64), randomBytes(1, 2, 64)) {
		t.Error("random: different streams gave the same bytes")
	}
	if n := len(randomBytes(1, 1, 13)); n != 13 {
		t.Errorf("random: %d bytes, want 13", n)
	}

	// Every fish block holds each byte value exactly 16 times, whatever
	// the seed: what keeps guest_insts_per_op seed-independent.
	in := fishInput(7, fishInputSize)
	for off := 0; off < len(in); off += fishBlock {
		var hist [256]int
		for _, b := range in[off : off+fishBlock] {
			hist[b]++
		}
		for v, n := range hist {
			if n != fishBlock/256 {
				t.Fatalf("block at %d: value %d occurs %d times", off, v, n)
			}
		}
	}
}

func TestCompareReports(t *testing.T) {
	mk := func(p10, insts, alloc, rss, setup float64) *report {
		m := metrics{}
		m.set("op_p10_us", p10, "us")
		m.set("guest_insts_per_op", insts, "insts")
		m.set("alloc_kib_per_op", alloc, "KiB")
		m.set("peak_rss_mib", rss, "MiB")
		m.set("setup_s", setup, "s")
		return &report{Correct: true, Metrics: m}
	}
	a := mk(100, 595844, 506.88, 75, 0.17)
	verdicts := func(b *report) map[string]bool {
		out := map[string]bool{}
		for _, r := range compareReports("fish", a, b) {
			out[r.name] = r.ok()
		}
		return out
	}
	if v := verdicts(mk(107, 595844, 506.90, 80, 0.20)); !v["op_p10_us"] || !v["guest_insts_per_op"] ||
		!v["alloc_kib_per_op"] || !v["peak_rss_mib"] || !v["setup_s"] {
		t.Errorf("runs within tolerance were flagged: %v", v)
	}
	// One instruction more is a difference; so are moves past each bound,
	// in either direction.
	if v := verdicts(mk(70, 595845, 510, 99, 0.20)); v["op_p10_us"] || v["guest_insts_per_op"] ||
		v["alloc_kib_per_op"] || v["peak_rss_mib"] || !v["setup_s"] {
		t.Errorf("runs outside tolerance passed: %v", v)
	}
}

// benchmarkJSON mirrors BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []jsonMetric `json:"end_to_end"`
	PerLayer []jsonMetric `json:"per_layer"`
}

type jsonMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// TestBenchmarkJSONMatchesTables keeps the contract file at the
// repository root and the tables the harness reports from in step.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var got benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}

	if len(got.Workloads) != len(allWorkloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(got.Workloads), len(allWorkloads))
	}
	for i, w := range allWorkloads {
		if got.Workloads[i].Name != w.name || got.Workloads[i].Why != w.why {
			t.Errorf("workload %d: file has %+v, harness has %q / %q", i, got.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.name, len(w.why))
		}
	}
	check := func(kind string, file []jsonMetric, defs []metricDef, bounded bool) {
		if len(file) != len(defs) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the harness", kind, len(file), len(defs))
			return
		}
		for i, d := range defs {
			f := file[i]
			if f.Name != d.Name || f.Unit != d.Unit || f.Better != d.Better {
				t.Errorf("%s %d: file has %+v, harness has %+v", kind, i, f, d)
			}
			switch {
			case bounded && (f.Bound == nil || *f.Bound != d.Bound):
				t.Errorf("%s %s: bound in file %v, in harness %v", kind, d.Name, f.Bound, d.Bound)
			case !bounded && f.Bound != nil:
				t.Errorf("%s %s: a per-layer metric has no bound", kind, d.Name)
			}
			if d.Bound > 0.25 {
				t.Errorf("%s %s: bound %v above 0.25", kind, d.Name, d.Bound)
			}
		}
	}
	check("end_to_end", got.EndToEnd, endToEnd, true)
	check("per_layer", got.PerLayer, perLayer, false)

	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if seen[d.Name] || len(d.Name) > 64 || len(d.Unit) > 16 {
			t.Errorf("metric %q: duplicate or over-long name or unit", d.Name)
		}
		seen[d.Name] = true
	}
	if got.RunSeconds < 1 || got.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", got.RunSeconds)
	}
}
