package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// Tracing is done from outside the program: spans wrap the public calls
// the harness makes into each layer (Spawn, Wait, Dial, Write, Read,
// Close, Sync), counters are snapshotted at the same boundaries, and
// everything stays in memory until the run ends. No hook lives inside
// internal/; that is a later issue.

// span is one timed interval. Spans of one op share Op; Parent is the ID
// of the enclosing span, or -1 for the op's root.
type span struct {
	ID       int               `json:"id"`
	Parent   int               `json:"parent"`
	Op       int               `json:"op"`
	Name     string            `json:"name"`
	StartNS  int64             `json:"start_ns"`
	EndNS    int64             `json:"end_ns"`
	Counters map[string]uint64 `json:"counters,omitempty"`
}

// tracer records spans. A nil *tracer is the tracing-off state: begin
// and end return at once, so the untraced phase pays one predictable
// branch per call site.
type tracer struct {
	t0    time.Time
	snap  func() counters
	spans []span
	open  []openSpan // stack of spans begun and not yet ended
	op    int
}

type openSpan struct {
	id     int
	before counters
}

func newTracer(snap func() counters) *tracer {
	return &tracer{t0: time.Now(), snap: snap}
}

// beginOp opens the root span of op number op.
func (t *tracer) beginOp(op int) {
	if t == nil {
		return
	}
	t.op = op
	t.begin("op")
}

// begin opens a span named name under the innermost open span.
func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1].id
	}
	id := len(t.spans)
	before := t.snap()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: t.op, Name: name})
	t.open = append(t.open, openSpan{id: id, before: before})
	// The clock is read last on entry and first on exit, so the counter
	// snapshots fall outside the interval they describe.
	t.spans[id].StartNS = time.Since(t.t0).Nanoseconds()
}

// end closes the innermost open span.
func (t *tracer) end() {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	n := len(t.open) - 1
	o := t.open[n]
	t.open = t.open[:n]
	t.spans[o.id].EndNS = now
	t.spans[o.id].Counters = t.snap().sub(o.before).named()
}

// selfTimes returns, per span, its duration minus the part of that
// interval its direct children cover. The harness is single-threaded, so
// siblings never overlap and the covered part is the sum of the
// children's durations clipped to the parent.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.EndNS - s.StartNS
	}
	for _, s := range spans {
		if s.Parent < 0 {
			continue
		}
		p := spans[s.Parent]
		start, end := max(s.StartNS, p.StartNS), min(s.EndNS, p.EndNS)
		if end > start {
			self[s.Parent] -= end - start
		}
	}
	return self
}

// spanSummary is the p10 duration (µs) per span name, with the op
// root's self time under "harness.self".
func spanSummary(spans []span) map[string]float64 {
	byName := map[string][]float64{}
	self := selfTimes(spans)
	for i, s := range spans {
		us := float64(s.EndNS-s.StartNS) / 1e3
		byName[s.Name] = append(byName[s.Name], us)
		if s.Parent < 0 {
			byName["harness.self"] = append(byName["harness.self"], float64(self[i])/1e3)
		}
	}
	out := make(map[string]float64, len(byName))
	for name, xs := range byName {
		out[name] = p10(xs)
	}
	return out
}

// traceFile is what a run leaves in benchmarks/out/<workload>.trace.json.
type traceFile struct {
	Fingerprint fingerprint        `json:"fingerprint"`
	Workload    string             `json:"workload"`
	Metrics     map[string]metric  `json:"metrics"`
	SpanP10US   map[string]float64 `json:"span_p10_us"`
	Spans       []span             `json:"spans"`
}

// writeJSON writes v, indented, to dir/name, creating dir.
func writeJSON(dir, name string, v any) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), append(data, '\n'), 0o644)
}
