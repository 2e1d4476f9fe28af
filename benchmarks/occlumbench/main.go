// Command occlumbench is the repository's benchmark (BENCHMARK.json): five
// closed-loop workloads against the Occlum kernel, each in a process of
// its own on one P and one hart, reporting one robust wall-clock
// estimator (op_p10_us), two exact costs (guest instructions and Go bytes
// allocated per op), peak RSS and set-up time, plus per-layer spans,
// counters and probes from a separate traced phase. See ../README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// Run modes, the values of -trace.
const (
	modeEndToEnd = 0  // the gated metrics only, tracing never on
	modeLayers   = 1  // untraced phase, traced phase, layer probes
	modeFull     = -1 // both, for people
)

// setup_s is the lower quartile over fresh kernels — interference only
// adds time, so the low side of the samples is the undisturbed set-up —
// of at least minSetupRuns of them, and more (up to maxSetupRuns) until
// they add up to minSetupTime, because a 70 ms set-up (httpd) timed five
// times does not repeat.
const (
	minSetupRuns = 5
	maxSetupRuns = 25
	minSetupTime = 2 * time.Second
)

// report is the last line a run prints.
type report struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// resultFile is what a run leaves in <out>/<workload>.result.json.
type resultFile struct {
	Fingerprint fingerprint `json:"fingerprint"`
	Workload    string      `json:"workload"`
	Why         string      `json:"why"`
	report
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (default: every workload, each in a child process)")
		seed    = flag.Uint64("seed", 1, "seed of the generated inputs")
		seconds = flag.Float64("seconds", 15, "length of the timed phase")
		mode    = flag.Int("trace", modeFull, "0: end-to-end metrics, tracing off; 1: per-layer metrics; -1: both")
		aa      = flag.Bool("aa", false, "run every workload twice and fail unless the two runs agree within the bounds")
		outDir  = flag.String("out", "benchmarks/out", "directory for result and trace files")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || (*mode != modeEndToEnd && *mode != modeLayers && *mode != modeFull) {
		flag.Usage()
		os.Exit(2)
	}
	children := childArgs{seed: *seed, seconds: *seconds, mode: *mode, outDir: *outDir}
	switch {
	case *aa:
		os.Exit(runAA(children))
	case *name == "":
		os.Exit(runAll(children))
	}
	w := findWorkload(*name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "occlumbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	rep, err := runWorkload(w, *seed, *seconds, *mode, *outDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "occlumbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "occlumbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}

// phase is the outcome of one run of ops.
type phase struct {
	latNS   []uint32 // per-op latency; 4 bytes a sample keeps httpd's 2 M samples at 8 MiB
	failed  int
	wrong   bool // an op's output differed from the oracle
	elapsed time.Duration
	peakRSS float64 // MiB, p90 of the RSS samples of the phase
	liveMiB float64 // Go heap still reachable when the phase ended
	ctr     counters
	mem     goDelta
}

// goDelta is what the Go runtime did during a phase.
type goDelta struct {
	allocBytes, mallocs, pauseNS uint64
	gcCycles                     uint32
}

func (p *phase) ops() int { return len(p.latNS) }

// latUS returns the op latencies in µs, ascending.
func (p *phase) latUS() []float64 {
	us := make([]float64, len(p.latNS))
	for i, ns := range p.latNS {
		us[i] = float64(ns) / 1e3
	}
	sort.Float64s(us)
	return us
}

// runPhase issues ops back to back until stop says so. Latencies are
// kept for every op, failed ones included: a failure that returns early
// must not improve a quantile, so failures are reported beside them and
// any failure makes the run incorrect.
func runPhase(inst *instance, t *tracer, reserve int, stop func(done int, elapsed time.Duration) bool) phase {
	// Start from a heap without the previous phase's garbage, and give
	// the pages it occupied back, so the RSS samples are this phase's.
	debug.FreeOSMemory()
	// The sample buffer is touched up front: its share of the RSS is
	// then the same whether the phase completes many ops or few.
	p := phase{latNS: make([]uint32, reserve)}
	for i := range p.latNS {
		p.latNS[i] = 1
	}
	p.latNS = p.latNS[:0]
	rss := newRSSSampler()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := readCounters(inst.k.Sys.OS)
	start := time.Now()
	for n := 0; ; n++ {
		t0 := time.Now()
		if stop(n, t0.Sub(start)) {
			break
		}
		rss.tick(t0)
		t.beginOp(n)
		err := inst.op(t)
		t.end()
		p.latNS = append(p.latNS, uint32(min(time.Since(t0).Nanoseconds(), math.MaxUint32)))
		if err != nil {
			if p.failed == 0 {
				fmt.Fprintf(os.Stderr, "occlumbench: op %d failed: %v\n", n, err)
			}
			p.failed++
			p.wrong = p.wrong || errors.Is(err, errMismatch)
		}
	}
	p.elapsed = time.Since(start)
	p.peakRSS = rss.close()
	p.ctr = readCounters(inst.k.Sys.OS).sub(c0)
	runtime.ReadMemStats(&m1)
	p.mem = goDelta{
		allocBytes: m1.TotalAlloc - m0.TotalAlloc,
		mallocs:    m1.Mallocs - m0.Mallocs,
		pauseNS:    m1.PauseTotalNs - m0.PauseTotalNs,
		gcCycles:   m1.NumGC - m0.NumGC,
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	p.liveMiB = float64(m1.HeapAlloc) / (1 << 20)
	return p
}

// setUp boots a fresh kernel and warms it; the elapsed time is one
// setup_s sample.
func setUp(w *workload, boot func() (*instance, error)) (*instance, time.Duration, error) {
	t0 := time.Now()
	inst, err := boot()
	if err != nil {
		return nil, 0, fmt.Errorf("boot: %w", err)
	}
	for i := 0; i < w.warmup; i++ {
		if err := inst.op(nil); err != nil {
			return nil, 0, fmt.Errorf("warm-up op %d: %w", i, err)
		}
	}
	return inst, time.Since(t0), nil
}

var calibSink uint32

// calibrate times a fixed pure-Go loop that touches nothing of the
// program: ns per iteration, best of five. The loop is throughput-bound —
// four independent chains, two table loads and a store per iteration
// over an L1-resident table — because that is what this machine's
// interference hits: when a neighbour shares the physical core, the
// interpreter and the LibOS run up to 2× slower while a dependent ALU
// chain does not notice. A move in op_p10_us that this number shares is
// the machine, not the code.
func calibrate() float64 {
	const iters = 1 << 21
	var tab [1 << 12]uint32
	for i := range tab {
		tab[i] = uint32(i) * 2654435761
	}
	const mask = uint32(len(tab) - 1)
	best := time.Duration(1 << 62)
	for rep := 0; rep < 5; rep++ {
		a, b, c, d := uint32(1), uint32(2), uint32(3), uint32(4)
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			a ^= a<<13 | 1
			b = b*31 + 7
			c += tab[(a^b)&mask]
			d ^= tab[(c+uint32(i))&mask] >> 3
			tab[d&mask] = a + c
		}
		if e := time.Since(t0); e < best {
			best = e
		}
		calibSink += a + b + c + d
	}
	return float64(best.Nanoseconds()) / iters
}

// runWorkload is one run: set-up, warm-up, the timed phase with tracing
// off, then (unless mode is end-to-end) the traced phase and the layer
// probes, then (unless mode is layers) the remaining set-ups.
func runWorkload(w *workload, seed uint64, seconds float64, mode int, outDir string) (*report, error) {
	// One P: with two the numbers measure the Go scheduler placing the
	// client and the hart, not the program (README sizing table).
	runtime.GOMAXPROCS(1)
	fp := newFingerprint(seed, seconds)
	m := metrics{}

	boot, err := w.prepare(seed)
	if err != nil {
		return nil, fmt.Errorf("prepare: %w", err)
	}
	m.set("host.calib_ns_per_iter_before", calibrate(), "ns")
	inst, firstSetup, err := setUp(w, boot)
	if err != nil {
		return nil, err
	}

	timed := time.Duration(seconds * float64(time.Second))
	if mode == modeLayers {
		timed /= 2
	}
	steal0, cpu0 := cpuSteal()
	run := runPhase(inst, nil, int(timed.Seconds()*float64(w.maxOpsPerSec)), func(_ int, elapsed time.Duration) bool {
		return elapsed >= timed
	})
	if run.ops() == 0 {
		return nil, errors.New("timed phase completed no op")
	}
	steal1, cpu1 := cpuSteal()
	m.set("host.cpu_steal_pct", 100*ratio(steal1-steal0, cpu1-cpu0), "%")
	m.set("host.calib_ns_per_iter_after", calibrate(), "ns")
	rep := &report{Correct: !run.wrong, Attempted: run.ops(), Failed: run.failed}
	fp.Samples["timed"] = run.ops()
	ops := run.ops()
	lat := run.latUS()

	m.set("op_p10_us", quantile(lat, 0.10), "us")
	m.set("guest_insts_per_op", run.ctr.per(vmInsts, ops), "insts")
	m.set("alloc_kib_per_op", float64(run.mem.allocBytes)/1024/float64(ops), "KiB")
	m.set("peak_rss_mib", run.peakRSS, "MiB")
	m.set("host.vm_hwm_mib", vmHWMMiB(), "MiB")

	m.set("load.ops_per_s", float64(ops-run.failed)/run.elapsed.Seconds(), "1/s")
	m.set("load.op_p50_us", quantile(lat, 0.50), "us")
	m.set("load.op_p95_us", quantile(lat, 0.95), "us")
	m.set("load.op_max_us", lat[len(lat)-1], "us")
	m.set("load.ops_attempted", float64(ops), "count")
	m.set("load.ops_failed", float64(run.failed), "count")
	m.set("go.mallocs_per_op", float64(run.mem.mallocs)/float64(ops), "count")
	m.set("go.gc_cycles_per_kop", 1000*float64(run.mem.gcCycles)/float64(ops), "count")
	m.set("go.gc_pause_share", float64(run.mem.pauseNS)/float64(run.elapsed.Nanoseconds()), "ratio")
	m.set("go.live_heap_mib", run.liveMiB, "MiB")

	var tf *traceFile
	if mode != modeEndToEnd {
		tr := newTracer(func() counters { return readCounters(inst.k.Sys.OS) })
		traced := runPhase(inst, tr, w.tracedOps, func(done int, _ time.Duration) bool {
			return done >= w.tracedOps
		})
		rep.Correct = rep.Correct && !traced.wrong
		rep.Attempted += traced.ops()
		rep.Failed += traced.failed
		fp.Samples["traced"] = traced.ops()
		tf = &traceFile{Workload: w.name, Spans: tr.spans, SpanP10US: spanSummary(tr.spans)}
		tracedMetrics(m, traced, tf.SpanP10US)
	}

	if inst.verify != nil {
		if err := inst.verify(); err != nil {
			fmt.Fprintf(os.Stderr, "occlumbench: %s: end-of-run oracle: %v\n", w.name, err)
			rep.Correct = false
		}
	}
	if err := inst.close(); err != nil {
		return nil, fmt.Errorf("shutdown: %w", err)
	}

	if mode != modeEndToEnd {
		if err := runProbes(m); err != nil {
			return nil, fmt.Errorf("probe: %w", err)
		}
		modelShares(m, w)
	}

	if mode != modeLayers {
		setups, total := []float64{firstSetup.Seconds()}, firstSetup
		for len(setups) < minSetupRuns || (total < minSetupTime && len(setups) < maxSetupRuns) {
			extra, d, err := setUp(w, boot)
			if err != nil {
				return nil, err
			}
			if err := extra.close(); err != nil {
				return nil, fmt.Errorf("shutdown: %w", err)
			}
			setups, total = append(setups, d.Seconds()), total+d
		}
		fp.Samples["setup"] = len(setups)
		m.set("setup_s", quantile(sortedCopy(setups), 0.25), "s")
	}

	printMetrics(w.name, m)
	rep.Metrics = m
	if tf != nil {
		tf.Fingerprint, tf.Metrics = fp, m
		if err := writeJSON(outDir, w.name+".trace.json", tf); err != nil {
			return nil, err
		}
	}
	if err := writeJSON(outDir, w.name+".result.json", resultFile{fp, w.name, w.why, *rep}); err != nil {
		return nil, err
	}

	// The last line carries exactly the metrics the mode promises.
	switch mode {
	case modeEndToEnd:
		rep.Metrics, err = selectMetrics(m, endToEnd)
	case modeLayers:
		rep.Metrics, err = selectMetrics(m, perLayer)
	default:
		_, err = selectMetrics(m, append(append([]metricDef{}, endToEnd...), perLayer...))
	}
	return rep, err
}

// tracedMetrics derives the span and counter metrics of the traced phase.
func tracedMetrics(m metrics, traced phase, spanP10 map[string]float64) {
	for _, name := range []string{
		"libos.spawn", "libos.wait", "libos.sync",
		"hostos.dial", "hostos.write", "hostos.read", "hostos.close",
		"harness.self",
	} {
		// A span the workload never opens reads 0.
		m.set("span."+name+"_us", spanP10[name], "us")
	}
	m.set("trace.op_p10_us", quantile(traced.latUS(), 0.10), "us")
	m.set("trace.overhead_pct", 100*relDelta(m.get("op_p10_us"), m.get("trace.op_p10_us")), "%")

	c, ops := traced.ctr, traced.ops()
	f := func(id counterID) float64 { return float64(c[id]) }
	m.set("vm.blocks_decoded_per_op", c.per(vmBlocks, ops), "count")
	m.set("vm.lookup_hit_ratio", ratio(f(vmHits)+f(vmChains), f(vmHits)+f(vmMisses)+f(vmChains)), "ratio")
	m.set("vm.chains_per_op", c.per(vmChains, ops), "count")
	m.set("vm.trace_inst_share", ratio(f(vmTraceInsts), f(vmInsts)), "ratio")
	m.set("vm.trace_exits_per_op", c.per(vmTraceExits, ops), "count")
	m.set("vm.ic_miss_ratio", ratio(f(vmICMisses), f(vmICHits)+f(vmICMisses)), "ratio")
	m.set("net.accept_parks_per_op", c.per(netAcceptParks, ops), "count")
	m.set("net.recv_parks_per_op", c.per(netRecvParks, ops), "count")
	m.set("net.writevs_per_op", c.per(netWritevs, ops), "count")
	m.set("net.bytes_lent_per_op", c.per(netBytesLent, ops), "count")
	m.set("net.bytes_copied_per_op", c.per(netBytesCopied, ops), "count")
	m.set("sched.slices_per_op", c.per(schedSlices, ops), "count")
	m.set("sched.parks_per_op", c.per(schedParks, ops), "count")
	m.set("sched.steals_per_op", c.per(schedSteals, ops), "count")
	m.set("sched.busy_share", ratio(f(schedBusyNS), f(schedCapacityNS)), "ratio")
	m.set("fs.store_commits_per_op", c.per(fsStoreEpoch, ops), "count")
	m.set("fs.scrubbed_blocks_per_op", c.per(fsScrubbedBlocks, ops), "count")
}

// modelShares states how much of op_p10_us each layer's probe accounts
// for, given how often the workload's op uses the layer. Nothing else
// contends on one P, so a faster layer saves at most its share.
func modelShares(m metrics, w *workload) {
	opUS := m.get("op_p10_us")
	vmUS := m.get("guest_insts_per_op") * m.get("probe.vm.ns_per_inst_compute") / 1e3
	spawnUS := float64(w.spawnsSmall)*m.get("probe.libos.spawn_exit_us_small") +
		float64(w.spawns4MiB)*m.get("probe.libos.spawn_exit_us_4mib")
	perBlock := m.get("probe.fs.store.read_block_us")
	storeUS := 0.0
	if w.storeWrite {
		perBlock = m.get("probe.fs.store.write_block_us")
		storeUS = m.get("probe.fs.store.flush_us")
	}
	storeUS += float64(w.storeBlocks) * perBlock
	m.set("model.vm_share", ratio(vmUS, opUS), "ratio")
	m.set("model.spawn_share", ratio(spawnUS, opUS), "ratio")
	m.set("model.store_share", ratio(storeUS, opUS), "ratio")
}

// printMetrics lists every metric by name with its unit.
func printMetrics(workload string, m metrics) {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("%-10s %-40s %16.4f %s\n", workload, name, m[name].Value, m[name].Unit)
	}
}
