package bench

import (
	"fmt"
	"io"

	"repro/internal/fs"
	"repro/internal/libos"
	"repro/internal/metrics"
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

// Stats, when true, makes Run print after each experiment the delta of
// every process-wide counter surface across it, one line each: the OVM
// translation cache (with its hit rate), the M:N scheduler (with hart
// utilisation), the readiness and zero-copy path, and the filesystem.
// Enabled by occlum-bench -stats. The baselines run no scheduler, so
// their experiments contribute zeros there.
var Stats bool

// Run executes one named experiment at the given scale, printing its
// table to w.
func Run(name string, s Scale, w io.Writer) error {
	before := readCounters()
	err := run(name, s, w)
	if err == nil && Stats {
		readCounters().writeDelta(w, before)
	}
	return err
}

// counters is one reading of the four process-wide counter surfaces.
type counters struct {
	vm    vm.CacheStats
	sched sched.Snapshot
	net   libos.NetSnapshot
	fs    fs.StatCounters
}

func readCounters() counters {
	return counters{vm.GlobalCacheStats(), sched.GlobalSnapshot(), libos.NetStats(), fs.Stats()}
}

// writeDelta prints c - before, one bracketed name=value line per
// surface.
func (c counters) writeDelta(w io.Writer, before counters) {
	v, s := c.vm.Sub(before.vm), c.sched.Sub(before.sched)
	line := func(name string, d any, extra string) {
		fmt.Fprintf(w, "  [%s:", name)
		metrics.WriteText(w, " %s=%d", d)
		fmt.Fprintf(w, "%s]\n", extra)
	}
	line("vm", v, fmt.Sprintf(" HitRate=%.2f%%", 100*v.HitRate()))
	line("sched", s, fmt.Sprintf(" HartUtil=%.1f%%", 100*s.Utilization()))
	line("net", c.net.Sub(before.net), "")
	line("fs", c.fs.Sub(before.fs), "")
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
