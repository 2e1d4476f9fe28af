package main

import "fmt"

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps a metric name to its value.
type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{v, unit} }

func (m metrics) get(name string) float64 { return m[name].Value }

// metricDef declares one metric of BENCHMARK.json. The file at the
// repository root is the contract; TestBenchmarkJSONMatchesTables keeps
// it equal to these tables.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen (0 for per-layer metrics, which have none).
	Bound float64
}

// endToEnd are the gated metrics: one robust wall-clock estimator, two
// exact costs, memory, and set-up. Bounds come from the sizing runs in
// the README.
var endToEnd = []metricDef{
	{"op_p10_us", "us", "lower", 0.25},
	{"guest_insts_per_op", "insts", "lower", 0.005},
	{"alloc_kib_per_op", "KiB", "lower", 0.02},
	{"peak_rss_mib", "MiB", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the un-gated layer metrics of the traced run.
var perLayer = []metricDef{
	// Harness spans (p10 over the traced phase).
	{"span.libos.spawn_us", "us", "lower", 0},
	{"span.libos.wait_us", "us", "lower", 0},
	{"span.libos.sync_us", "us", "lower", 0},
	{"span.hostos.dial_us", "us", "lower", 0},
	{"span.hostos.write_us", "us", "lower", 0},
	{"span.hostos.read_us", "us", "lower", 0},
	{"span.hostos.close_us", "us", "lower", 0},
	{"span.harness.self_us", "us", "lower", 0},
	{"trace.op_p10_us", "us", "lower", 0},
	{"trace.overhead_pct", "%", "lower", 0},
	// vm counters of the traced phase and interpreter probes.
	{"vm.blocks_decoded_per_op", "count", "lower", 0},
	{"vm.lookup_hit_ratio", "ratio", "higher", 0},
	{"vm.chains_per_op", "count", "higher", 0},
	{"vm.trace_inst_share", "ratio", "higher", 0},
	{"vm.trace_exits_per_op", "count", "lower", 0},
	{"vm.ic_miss_ratio", "ratio", "lower", 0},
	{"probe.vm.ns_per_inst_compute", "ns", "lower", 0},
	{"probe.vm.ns_per_inst_memory", "ns", "lower", 0},
	{"probe.mem.load_store_ns", "ns", "lower", 0},
	// mmdsfi / verifier / oelf.
	{"probe.mmdsfi.overhead_pct", "%", "lower", 0},
	{"probe.mmdsfi.instrument_us_per_kinst", "us", "lower", 0},
	{"probe.verifier.verify_us_per_kinst", "us", "lower", 0},
	{"probe.oelf.sigcheck_us_per_mib", "us", "lower", 0},
	// libos.
	{"probe.libos.spawn_exit_us_small", "us", "lower", 0},
	{"probe.libos.spawn_exit_us_4mib", "us", "lower", 0},
	{"probe.libos.syscall_ns", "ns", "lower", 0},
	{"probe.libos.pipe_mib_per_s", "MiB/s", "higher", 0},
	{"net.accept_parks_per_op", "count", "lower", 0},
	{"net.recv_parks_per_op", "count", "lower", 0},
	{"net.writevs_per_op", "count", "lower", 0},
	{"net.bytes_lent_per_op", "count", "higher", 0},
	{"net.bytes_copied_per_op", "count", "lower", 0},
	// sched / ring / hostos.
	{"sched.slices_per_op", "count", "lower", 0},
	{"sched.parks_per_op", "count", "lower", 0},
	{"sched.steals_per_op", "count", "lower", 0},
	{"sched.busy_share", "ratio", "higher", 0},
	{"probe.sched.park_unpark_us", "us", "lower", 0},
	{"probe.hostos.dial_accept_close_us", "us", "lower", 0},
	{"probe.hostos.conn_10k_us", "us", "lower", 0},
	{"probe.ring.copy_mib_per_s", "MiB/s", "higher", 0},
	{"probe.hostos.write_file_at_4k_us", "us", "lower", 0},
	// fs.
	{"probe.fs.store.write_block_us", "us", "lower", 0},
	{"probe.fs.store.flush_us", "us", "lower", 0},
	{"probe.fs.store.write_block_us_k1m1", "us", "lower", 0},
	{"probe.fs.store.read_block_us", "us", "lower", 0},
	{"probe.fs.encfs.write_4k_us", "us", "lower", 0},
	{"probe.fs.encfs.read_4k_hit_us", "us", "lower", 0},
	{"probe.fs.encfs.read_4k_miss_us", "us", "lower", 0},
	{"probe.fs.encfs.miss_dev_reads_per_blk", "ratio", "higher", 0},
	{"fs.store_commits_per_op", "count", "lower", 0},
	{"fs.scrubbed_blocks_per_op", "count", "lower", 0},
	// Go runtime (untraced phase) and the machine.
	{"go.mallocs_per_op", "count", "lower", 0},
	{"go.gc_cycles_per_kop", "count", "lower", 0},
	{"go.gc_pause_share", "ratio", "lower", 0},
	{"go.live_heap_mib", "MiB", "lower", 0},
	{"host.vm_hwm_mib", "MiB", "lower", 0},
	{"host.cpu_steal_pct", "%", "lower", 0},
	{"host.calib_ns_per_iter_before", "ns", "lower", 0},
	{"host.calib_ns_per_iter_after", "ns", "lower", 0},
	// Un-gated load view of the untraced phase: on a shared two-core
	// machine these do not repeat within a tenth (README).
	{"load.ops_per_s", "1/s", "higher", 0},
	{"load.op_p50_us", "us", "lower", 0},
	{"load.op_p95_us", "us", "lower", 0},
	{"load.op_max_us", "us", "lower", 0},
	{"load.ops_attempted", "count", "higher", 0},
	{"load.ops_failed", "count", "lower", 0},
	// Derived shares of op_p10_us: a layer speed-up saves at most its share.
	{"model.vm_share", "ratio", "lower", 0},
	{"model.spawn_share", "ratio", "lower", 0},
	{"model.store_share", "ratio", "lower", 0},
}

// selectMetrics returns the metrics of defs out of m, failing on a
// metric the run did not produce: a silently missing number would read
// as a pass.
func selectMetrics(m metrics, defs []metricDef) (metrics, error) {
	out := make(metrics, len(defs))
	for _, d := range defs {
		v, ok := m[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if v.Unit != d.Unit {
			return nil, fmt.Errorf("metric %s: unit %q, declared %q", d.Name, v.Unit, d.Unit)
		}
		out[d.Name] = v
	}
	return out, nil
}
