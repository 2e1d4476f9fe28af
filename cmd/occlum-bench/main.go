// Command occlum-bench regenerates the paper's evaluation: every figure
// of §9 plus the RIPE security table and Table 1, printed as text tables.
//
// Usage:
//
//	occlum-bench [-scale quick|full] [-vmstats] [-schedstats] [-netstats] [-fsstats] [-cpuprofile f] [-memprofile f] [experiment ...]
//
// With no arguments, all experiments run. Experiments (bench.Experiments):
// fig5a fig5b fig5c fig6a fig6b fig6c fig6d fig7a fig7b ripe table1 c10k
// fsbench recovery ipcbench. With -vmstats, each experiment also reports
// the OVM translation-cache counters (blocks decoded, hits, misses,
// flushes, chained transitions, threaded-dispatch instructions,
// superblocks formed, trace hits/exits, instructions retired inside
// traces, and the block hit rate) aggregated over every simulated hart,
// with trace hits distinguished from block hits.
// With -schedstats, each experiment reports the M:N scheduler counters
// (parks, unparks, steals, preemptions, yields and hart utilization)
// aggregated over every Occlum hart pool. With -netstats, each
// experiment reports the readiness-path counters (recv/send/accept
// parks, poll/epoll_wait calls and parks, EAGAIN returns) plus the
// timer and backpressure counters (deadline arms, fires and cancels,
// idle-reaped and shed connections, suppressed stale timer wakes).
// With -fsstats, each experiment reports the filesystem
// counters (image blocks Merkle-verified, verified-cache hits,
// read-aheads, copy-ups, whiteouts, blocks scrubbed, shards repaired
// and rebuilt, stripes decoded, table stripes written, crc mismatches,
// tag failures).
// -cpuprofile and -memprofile write pprof profiles covering the
// selected experiments, so interpreter-perf work can profile the hot
// path without editing code (the memory profile is written at exit,
// after a final GC).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"time"

	"repro/internal/bench"
)

func main() {
	// Exit through realMain's return value so the deferred profile
	// flushes run even when an experiment fails.
	os.Exit(realMain())
}

func realMain() int {
	scaleName := flag.String("scale", "quick", "experiment scale: quick or full")
	vmStats := flag.Bool("vmstats", false, "report OVM translation-cache counters per experiment")
	schedStats := flag.Bool("schedstats", false, "report M:N scheduler counters per experiment")
	netStats := flag.Bool("netstats", false, "report readiness/network counters (parks, polls, zero-copy bytes, timer arms/fires/cancels, reaps, sheds) per experiment")
	fsStats := flag.Bool("fsstats", false, "report filesystem counters (verify/copy-up/read-ahead/scrub/repair/decode/table stripes/crc mismatches/tag failures) per experiment")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to `file`")
	memProfile := flag.String("memprofile", "", "write an allocation profile to `file` at exit")
	flag.Parse()
	bench.VMStats = *vmStats
	bench.SchedStats = *schedStats
	bench.NetStats = *netStats
	bench.FSStats = *fsStats

	var scale bench.Scale
	switch *scaleName {
	case "quick":
		scale = bench.Quick()
	case "full":
		scale = bench.Full()
	default:
		fmt.Fprintln(os.Stderr, "occlum-bench: -scale must be quick or full")
		return 2
	}

	names := flag.Args()
	if len(names) == 0 {
		names = bench.Experiments
	}
	for _, name := range names {
		if !slices.Contains(bench.Experiments, name) {
			fmt.Fprintf(os.Stderr, "occlum-bench: unknown experiment %q (valid: %v)\n", name, bench.Experiments)
			return 2
		}
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "occlum-bench: -cpuprofile: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "occlum-bench: -cpuprofile: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		// Deferred, like the CPU profile, so a failing experiment still
		// leaves a usable heap profile — the case where one is most
		// wanted.
		path := *memProfile
		defer func() {
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintf(os.Stderr, "occlum-bench: -memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize up-to-date allocation statistics
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "occlum-bench: -memprofile: %v\n", err)
			}
		}()
	}

	for _, name := range names {
		start := time.Now()
		if err := bench.Run(name, scale, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "occlum-bench: %v\n", err)
			return 1
		}
		fmt.Printf("  (%s in %v)\n", name, time.Since(start).Round(time.Millisecond))
	}

	return 0
}
