package vm

// Interpreter microbenchmarks for the DBT optimization ladder: block
// chaining, threaded dispatch and single-page memory fast paths. Each
// benchmark runs a small program to completion per iteration and reports
// ns/inst (wall time divided by retired instructions) so results are
// comparable across programs of different lengths. Before/after numbers
// are recorded in BENCH_PR2.json and EXPERIMENTS.md.

import (
	"math"
	"os"
	"testing"
	"time"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/oelf"
)

// runToTrap drives one warm CPU through the program once per benchmark
// iteration and reports ns/inst.
func runToTrap(b *testing.B, img *oelf.Image) {
	c := loadImage(b, img, 4096)
	entry := c.PC
	sp := c.Regs[isa.SP]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Reset()
		c.PC = entry
		c.Regs[isa.SP] = sp
		if st := c.Run(0); st.Reason != StopTrap {
			b.Fatalf("stop = %v", st)
		}
	}
	b.StopTimer()
	if c.Cycles > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(c.Cycles)/float64(b.N), "ns/inst")
	}
}

// BenchmarkHotLoop is the headline microbenchmark: a single-block
// arithmetic loop that chains to itself, the best case for block
// chaining + threaded dispatch (no memory traffic).
func BenchmarkHotLoop(b *testing.B) {
	img := build(b, func(bb *asm.Builder) {
		bb.Entry("_start")
		bb.MovRI(isa.R0, 0)
		bb.MovRI(isa.R2, 1)
		bb.Label("loop")
		bb.Add(isa.R0, isa.R2)
		bb.AddI(isa.R2, 1)
		bb.CmpI(isa.R2, 1<<20)
		bb.Jle("loop")
		bb.Trap()
	})
	runToTrap(b, img)
}

// BenchmarkMemoryLoop stresses the single-page Load/Store fast paths:
// every iteration does two loads and two stores inside one page.
func BenchmarkMemoryLoop(b *testing.B) {
	img := build(b, func(bb *asm.Builder) {
		bb.Bytes("buf", make([]byte, 64))
		bb.Entry("_start")
		bb.LeaData(isa.R1, "buf")
		bb.MovRI(isa.R2, 0)
		bb.Label("loop")
		bb.Store(isa.Mem(isa.R1, 0), isa.R2)
		bb.Load(isa.R3, isa.Mem(isa.R1, 0))
		bb.Store(isa.Mem(isa.R1, 8), isa.R3)
		bb.Load(isa.R4, isa.Mem(isa.R1, 8))
		bb.AddI(isa.R2, 1)
		bb.CmpI(isa.R2, 1<<18)
		bb.Jle("loop")
		bb.Trap()
	})
	runToTrap(b, img)
}

// BenchmarkCallRet alternates direct calls (chainable) with returns
// (indirect: falls back to the block-cache lookup), plus the implicit
// stack stores/loads of call/ret.
func BenchmarkCallRet(b *testing.B) {
	img := build(b, func(bb *asm.Builder) {
		bb.Entry("_start")
		bb.MovRI(isa.R1, 1<<18)
		bb.Label("loop")
		bb.Call("fn")
		bb.Jcc(isa.OpLoop, "loop")
		bb.Trap()
		bb.Func("fn")
		bb.AddI(isa.R0, 1)
		bb.Ret()
	})
	runToTrap(b, img)
}

// BenchmarkMultiBlockLoop runs a loop body split into several basic
// blocks by conditional branches (one never taken, one always taken):
// the chain-heavy shape of MMDSFI-instrumented code, where guards
// break straight-line runs every few instructions.
func BenchmarkMultiBlockLoop(b *testing.B) {
	img := build(b, func(bb *asm.Builder) {
		bb.Entry("_start")
		bb.MovRI(isa.R1, 1<<18)
		bb.Label("loop")
		bb.AddI(isa.R0, 1)
		bb.CmpI(isa.R0, 0)
		bb.Je("dead") // never taken: falls through (chained)
		bb.AddI(isa.R3, 2)
		bb.CmpI(isa.R0, 0)
		bb.Jne("skip") // always taken (chained)
		bb.AddI(isa.R4, 5)
		bb.Label("skip")
		bb.Jcc(isa.OpLoop, "loop")
		bb.Trap()
		bb.Label("dead")
		bb.Trap()
	})
	runToTrap(b, img)
}

// rmwLoop is a workload loop trace fusion exists for, sweeping a 4 KiB
// buffer trips times: cc1's (workloads.BuildCompilerStage: a word load,
// three ALU-immediate ops and a store back, then the cursor/remaining
// induction pair) or, with od, od's (workloads.BuildOd: a byte load,
// xori and byte store back, then the pair). Fused, the trace runs each
// iteration in three slots: the loop guard, the read-modify-write and
// the pair.
func rmwLoop(bb *asm.Builder, trips int64, od bool) {
	step := int32(8)
	if od {
		step = 1
	}
	bb.Zero("buf", 4096)
	bb.Entry("_start")
	bb.MovRI(isa.R9, trips)
	bb.Label("pass")
	bb.LeaData(isa.R4, "buf")
	bb.MovRI(isa.R5, 4096)
	bb.Label("loop")
	bb.CmpI(isa.R5, step)
	bb.Jl("next")
	if od {
		bb.LoadB(isa.R6, isa.Mem(isa.R4, 0))
		bb.XorI(isa.R6, 0x55)
		bb.StoreB(isa.Mem(isa.R4, 0), isa.R6)
	} else {
		bb.Load(isa.R6, isa.Mem(isa.R4, 0))
		bb.MulI(isa.R6, 31)
		bb.AddI(isa.R6, 17)
		bb.XorI(isa.R6, 0x5c5c5c)
		bb.Store(isa.Mem(isa.R4, 0), isa.R6)
	}
	bb.AddI(isa.R4, step)
	bb.SubI(isa.R5, step)
	bb.Jmp("loop")
	bb.Label("next")
	bb.SubI(isa.R9, 1)
	bb.CmpI(isa.R9, 0)
	bb.Jg("pass")
	bb.Trap()
}

// BenchmarkRMWLoop runs rmwLoop, cc1's and od's: the shapes trace
// fusion exists for.
func BenchmarkRMWLoop(b *testing.B) {
	b.Run("cc1", func(b *testing.B) { runToTrap(b, build(b, func(bb *asm.Builder) { rmwLoop(bb, 64, false) })) })
	b.Run("od", func(b *testing.B) { runToTrap(b, build(b, func(bb *asm.Builder) { rmwLoop(bb, 8, true) })) })
}

// ---------------------------------------------------------------------
// Trace-tier A/B: the same microbenchmarks with superblock formation
// disabled, so BENCH_PR6.json can record interleaved trace-off /
// trace-on medians from one binary (the PR2 methodology; tracesEnabled
// is read only on the cold promotion path, so flipping it is free).
// ---------------------------------------------------------------------

// benchTraces runs f with superblock formation forced on or off.
func benchTraces(b *testing.B, on bool, f func(*testing.B)) {
	old := tracesEnabled
	tracesEnabled = on
	defer func() { tracesEnabled = old }()
	f(b)
}

func BenchmarkHotLoopNoTraces(b *testing.B)        { benchTraces(b, false, BenchmarkHotLoop) }
func BenchmarkMemoryLoopNoTraces(b *testing.B)     { benchTraces(b, false, BenchmarkMemoryLoop) }
func BenchmarkCallRetNoTraces(b *testing.B)        { benchTraces(b, false, BenchmarkCallRet) }
func BenchmarkMultiBlockLoopNoTraces(b *testing.B) { benchTraces(b, false, BenchmarkMultiBlockLoop) }

// BenchmarkRMWLoopNoFusion is BenchmarkRMWLoop with traces but no fused
// slots.
func BenchmarkRMWLoopNoFusion(b *testing.B) {
	old := fusionEnabled
	fusionEnabled = false
	defer func() { fusionEnabled = old }()
	BenchmarkRMWLoop(b)
}

// TestTraceSpeedupRegression is the CI bench smoke: it measures the
// trace-on / trace-off speedup of the hot microbenchmarks, and the
// fusion-on / fusion-off speedup of rmwLoop, with interleaved runs
// (machine-speed-independent, unlike absolute ns/inst) and fails if any
// drops more than 20% below its recorded median: BENCH_PR6.json for the
// trace cases, EXPERIMENTS.md "One dispatch per read-modify-write" for
// rmwloop. Heavy and timing-sensitive, so it only runs when
// OCCLUM_BENCH_REGRESS=1 (the CI bench job sets it) and never under the
// race detector.
func TestTraceSpeedupRegression(t *testing.T) {
	if os.Getenv("OCCLUM_BENCH_REGRESS") == "" {
		t.Skip("set OCCLUM_BENCH_REGRESS=1 to run the bench smoke")
	}
	if raceEnabled {
		t.Skip("wall-clock ratios are not meaningful under the race detector")
	}
	// Committed baselines with the 20% regression margin already
	// applied, and the switch each case flips.
	baseline := map[string]float64{
		"hotloop":   1.50 * 0.8,
		"callret":   1.87 * 0.8,
		"multiloop": 1.88 * 0.8,
		"rmwloop":   1.46 * 0.8,
	}
	knob := map[string]*bool{
		"hotloop":   &tracesEnabled,
		"callret":   &tracesEnabled,
		"multiloop": &tracesEnabled,
		"rmwloop":   &fusionEnabled,
	}
	imgs := map[string]*oelf.Image{
		"hotloop": build(t, func(bb *asm.Builder) {
			bb.Entry("_start")
			bb.MovRI(isa.R0, 0)
			bb.MovRI(isa.R2, 1)
			bb.Label("loop")
			bb.Add(isa.R0, isa.R2)
			bb.AddI(isa.R2, 1)
			bb.CmpI(isa.R2, 1<<18)
			bb.Jle("loop")
			bb.Trap()
		}),
		"callret": build(t, func(bb *asm.Builder) {
			bb.Entry("_start")
			bb.MovRI(isa.R1, 1<<16)
			bb.Label("loop")
			bb.Call("fn")
			bb.Jcc(isa.OpLoop, "loop")
			bb.Trap()
			bb.Func("fn")
			bb.AddI(isa.R0, 1)
			bb.Ret()
		}),
		"multiloop": build(t, func(bb *asm.Builder) {
			bb.Entry("_start")
			bb.MovRI(isa.R1, 1<<16)
			bb.Label("loop")
			bb.AddI(isa.R0, 1)
			bb.CmpI(isa.R0, 0)
			bb.Je("dead")
			bb.AddI(isa.R3, 2)
			bb.CmpI(isa.R0, 0)
			bb.Jne("skip")
			bb.AddI(isa.R4, 5)
			bb.Label("skip")
			bb.Jcc(isa.OpLoop, "loop")
			bb.Trap()
			bb.Label("dead")
			bb.Trap()
		}),
		"rmwloop": build(t, func(bb *asm.Builder) { rmwLoop(bb, 16, false) }),
	}
	measure := func(img *oelf.Image, knob *bool, on bool) float64 {
		old := *knob
		*knob = on
		defer func() { *knob = old }()
		c := loadImage(t, img, 4096)
		entry, sp := c.PC, c.Regs[isa.SP]
		run := func() time.Duration {
			c.Reset()
			c.PC, c.Regs[isa.SP] = entry, sp
			t0 := time.Now()
			if st := c.Run(0); st.Reason != StopTrap {
				t.Fatalf("stop = %v", st)
			}
			return time.Since(t0)
		}
		run() // warm the caches past the promotion threshold
		best := run()
		for i := 0; i < 4; i++ {
			if d := run(); d < best {
				best = d
			}
		}
		return float64(best.Nanoseconds())
	}
	for name, img := range imgs {
		// Interleave the A and B sides and keep the best of several
		// rounds of each: minimums are the noise-robust statistic for
		// a single-threaded CPU-bound loop.
		off, on := math.MaxFloat64, math.MaxFloat64
		for round := 0; round < 3; round++ {
			if d := measure(img, knob[name], false); d < off {
				off = d
			}
			if d := measure(img, knob[name], true); d < on {
				on = d
			}
		}
		speedup := off / on
		t.Logf("%s: speedup %.2fx (floor %.2fx)", name, speedup, baseline[name])
		if speedup < baseline[name] {
			t.Errorf("%s: speedup %.2fx regressed below %.2fx", name, speedup, baseline[name])
		}
	}
}
