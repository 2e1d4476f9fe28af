package bench

import (
	"fmt"
	"io"

	"repro/internal/fs"
	"repro/internal/libos"
	"repro/internal/sched"
	"repro/internal/vm"
)

// Experiment names accepted by Run.
var Experiments = []string{
	"fig5a", "fig5b", "fig5c",
	"fig6a", "fig6b", "fig6c", "fig6d",
	"fig7a", "fig7b",
	"ripe", "table1", "c10k", "fsbench", "recovery", "ipcbench",
}

// VMStats, when true, makes Run report the OVM translation-cache
// counters (blocks decoded, hits, misses, flushes, chained
// transitions, threaded-dispatch instructions, superblocks formed,
// trace hits/exits and instructions retired inside traces, and the
// block hit rate) accumulated across every simulated hart during each
// experiment. Trace hits are counted
// separately from block hits, so the split between the two dispatch
// tiers is visible per experiment. Enabled by occlum-bench -vmstats.
var VMStats bool

// SchedStats, when true, makes Run report the M:N scheduler counters
// (parks, unparks, steals, preemptions, hart utilization) accumulated
// across every Occlum hart pool during each experiment. Enabled by
// occlum-bench -schedstats. The baselines run no scheduler, so their
// experiments contribute zeros.
var SchedStats bool

// NetStats, when true, makes Run report the readiness-path counters
// (recv/send/accept parks, poll and epoll_wait calls and parks, EAGAIN
// returns) plus the timer and backpressure counters (deadline
// arms/fires/cancels, idle-reaped connections, shed connections,
// suppressed stale timer wakes) accumulated across every
// LibOS instance during each experiment. Enabled by occlum-bench
// -netstats.
var NetStats bool

// FSStats, when true, makes Run report the filesystem counters (image
// blocks Merkle-verified, verified-cache hits, read-aheads, copy-ups,
// whiteouts, plus the self-healing store's scrubbed blocks,
// repaired/rebuilt shards, decoded stripes, table stripes written, crc
// mismatches and tag failures)
// accumulated across every mounted filesystem during each experiment.
// Enabled by occlum-bench -fsstats.
var FSStats bool

// Run executes one named experiment at the given scale, printing its
// table to w.
func Run(name string, s Scale, w io.Writer) error {
	if VMStats {
		vm.ResetGlobalCacheStats()
	}
	before := sched.GlobalSnapshot()
	netBefore := libos.NetStats()
	fsBefore := fs.Stats()
	err := run(name, s, w)
	if err == nil && VMStats {
		fmt.Fprintf(w, "  [vm cache: %v]\n", vm.GlobalCacheStats())
	}
	if err == nil && SchedStats {
		d := sched.GlobalSnapshot().Sub(before)
		fmt.Fprintf(w, "  [sched: tasks=%d slices=%d parks=%d unparks=%d steals=%d preempts=%d (%d requested) yields=%d hart-util=%.1f%%]\n",
			d.Tasks, d.Slices, d.Parks, d.Unparks, d.Steals, d.Preempts, d.PreemptReqs, d.Yields, 100*d.Utilization())
	}
	if err == nil && NetStats {
		d := libos.NetStats().Sub(netBefore)
		fmt.Fprintf(w, "  [net: recv-parks=%d send-parks=%d accept-parks=%d polls=%d (%d parked) epwaits=%d (%d parked) eagains=%d writevs=%d readvs=%d sendfiles=%d splices=%d lent=%d copied=%d]\n",
			d.RecvParks, d.SendParks, d.AcceptParks, d.Polls, d.PollParks, d.EpWaits, d.EpWaitParks, d.EAgains,
			d.Writevs, d.Readvs, d.Sendfiles, d.Splices, d.BytesLent, d.BytesCopied)
		fmt.Fprintf(w, "  [net/timers: timer-arms=%d fires=%d cancels=%d reaps=%d sheds=%d stale-wakes=%d]\n",
			d.TimerArms, d.TimerFires, d.TimerCancels, d.Reaps, d.Sheds, d.StaleWakes)
	}
	if err == nil && FSStats {
		d := fs.Stats().Sub(fsBefore)
		fmt.Fprintf(w, "  [fs: verified=%d verify-hits=%d read-aheads=%d copy-ups=%d whiteouts=%d scrubbed=%d repaired=%d rebuilt=%d decoded=%d table-stripes=%d table-stripes-maced=%d crc-mismatches=%d tag-failures=%d]\n",
			d.VerifiedBlocks, d.VerifyHits, d.ReadAheads, d.CopyUps, d.Whiteouts,
			d.ScrubbedBlocks, d.RepairedShards, d.RebuiltShards, d.DecodedStripes, d.TableStripesWritten,
			d.TableStripesMACed, d.CRCMismatches, d.TagFailures)
	}
	return err
}

func run(name string, s Scale, w io.Writer) error {
	var (
		t   *Table
		err error
	)
	switch name {
	case "fig5a":
		t, err = Fig5aFish(s)
	case "fig5b":
		t, err = Fig5bGCC(s)
	case "fig5c":
		t, err = Fig5cLighttpd(s)
	case "fig6a":
		t, err = Fig6aSpawn(s)
	case "fig6b":
		t, err = Fig6bPipe(s)
	case "fig6c":
		t, err = Fig6cdFileIO(s, false)
	case "fig6d":
		t, err = Fig6cdFileIO(s, true)
	case "fig7a":
		t, err = Fig7aSpecint(s)
	case "fig7b":
		t, err = Fig7bBreakdown(s)
	case "ripe":
		t, err = RIPETable()
	case "c10k":
		t, err = C10KTable(s)
	case "fsbench":
		t, err = FSBench(s)
	case "recovery":
		t, err = Recovery(s)
	case "ipcbench":
		t, err = IPCBench(s)
	case "table1":
		return Table1(s, w)
	default:
		return fmt.Errorf("bench: unknown experiment %q (have %v)", name, Experiments)
	}
	if err != nil {
		return fmt.Errorf("bench: %s: %w", name, err)
	}
	t.Print(w)
	return nil
}

// RunAll executes every experiment.
func RunAll(s Scale, w io.Writer) error {
	for _, name := range Experiments {
		if err := Run(name, s, w); err != nil {
			return err
		}
	}
	return nil
}
