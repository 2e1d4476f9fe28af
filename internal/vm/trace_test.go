package vm

// Directed tests for the trace tier: superblock formation shape, the
// guard-predicate algebra (pinned to the reference isa.Op.EvalCond
// semantics), the cache-counter plumbing, invalidation against
// page remaps, and prompt preemption delivery.

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/oelf"
)

// hotLoopImage is the canonical promotable program: a self-looping
// 4-instruction body run trips times, then a trap.
func hotLoopImage(t *testing.T, trips int64) *oelf.Image {
	return build(t, func(b *asm.Builder) {
		b.Entry("_start")
		b.MovRI(isa.R0, 0)
		b.MovRI(isa.R2, 1)
		b.Label("loop")
		b.Add(isa.R0, isa.R2)
		b.AddI(isa.R2, 1)
		b.CmpI(isa.R2, int32(trips))
		b.Jle("loop")
		b.Trap()
	})
}

func TestTraceFormationShape(t *testing.T) {
	if !tracesEnabled {
		t.Skip("traces disabled")
	}
	c := loadImage(t, hotLoopImage(t, 1000), 4096)
	if st := c.Run(0); st.Reason != StopTrap {
		t.Fatalf("stop = %v", st)
	}
	// Find the promoted anchor and check the superblock invariants.
	var tr *trace
	for _, b := range c.blocks {
		if b.trace != nil {
			tr = b.trace
			break
		}
	}
	if tr == nil {
		t.Fatal("hot loop never promoted a superblock")
	}
	if tr.nblocks < 2 {
		t.Fatalf("nblocks = %d, want >= 2 (a superblock spans a seam)", tr.nblocks)
	}
	if tr.ninsts == 0 || tr.ninsts > maxTraceInsts {
		t.Fatalf("ninsts = %d, want in (0, %d]", tr.ninsts, maxTraceInsts)
	}
	if len(tr.ops) != len(tr.cum) {
		t.Fatalf("len(ops) = %d != len(cum) = %d", len(tr.ops), len(tr.cum))
	}
	// cum must be strictly increasing and end exactly at ninsts: that
	// is what makes the cycle accounting bit-exact at every slot.
	prev := uint64(0)
	for j, n := range tr.cum {
		if n <= prev {
			t.Fatalf("cum[%d] = %d not strictly increasing (prev %d)", j, n, prev)
		}
		prev = n
	}
	if prev != tr.ninsts {
		t.Fatalf("cum ends at %d, ninsts = %d", prev, tr.ninsts)
	}
	if len(tr.spans) == 0 {
		t.Fatal("no component spans recorded: invalidation cannot work")
	}
	for _, sp := range tr.spans {
		if !c.Mem.Contains(sp.Addr, sp.N) {
			t.Fatalf("span %+v outside memory", sp)
		}
	}
	s := c.CacheStats()
	if s.Traces == 0 || s.TraceHits == 0 || s.TraceInsts == 0 {
		t.Fatalf("stats = %+v: want traces, trace hits and trace insts", s)
	}
	// A 4-inst loop unrolled into a 64-inst window retires ~16
	// iterations per entry: the trace tier must carry the bulk of the
	// program.
	if s.TraceInsts < uint64(c.Cycles)/2 {
		t.Fatalf("trace insts %d < half of %d cycles: trace tier not engaged", s.TraceInsts, c.Cycles)
	}
	// The loop exit mispredicts the final back edge: at least one side
	// exit must have been taken.
	if s.TraceExits == 0 {
		t.Fatalf("stats = %+v: loop exit should side-exit at least once", s)
	}
}

// TestGuardPredsMatchEvalCond pins every compiled guard closure to the
// reference isa.Op.EvalCond semantics over randomized compare operands,
// for both predicted directions: the continue/exit decision, the exit
// PC, and the flags, which a fused guard leaves architectural (matching
// setCmp) on both paths — so they are exact wherever they can be
// observed, whether or not anything downstream reads them.
func TestGuardPredsMatchEvalCond(t *testing.T) {
	branches := []isa.Op{isa.OpJe, isa.OpJne, isa.OpJl, isa.OpJle, isa.OpJg, isa.OpJge, isa.OpJb, isa.OpJae}
	r := rand.New(rand.NewSource(42))
	operand := func() uint64 {
		switch r.Intn(4) {
		case 0:
			return uint64(r.Intn(8))
		case 1:
			return ^uint64(0) - uint64(r.Intn(8)) // near-overflow negatives
		case 2:
			return 1 << 63 // sign boundary
		default:
			return r.Uint64()
		}
	}
	m := mem.NewPaged(0x1000, mem.PageSize)
	const next, disp = 0xdead0, 0x40
	for _, op := range branches {
		br := isa.Inst{Op: op, Imm: disp}
		for trial := 0; trial < 200; trial++ {
			a, v := operand(), operand()
			zf, lts, ltu := a == v, int64(a) < int64(v), a < v
			isTaken := op.EvalCond(zf, lts, ltu)
			ref := New(m)
			ref.setCmp(a, v)
			if got := ref.cond(op); got != isTaken {
				t.Fatalf("%v: packed flags of cmp(%#x, %#x) give %v, EvalCond = %v", op, a, v, got, isTaken)
			}
			for _, taken := range []bool{true, false} {
				// The guard continues iff the branch goes the predicted
				// way, and otherwise leaves for the other successor.
				want := isTaken == taken
				exitPC := uint64(next)
				if !taken {
					exitPC = next + disp
				}

				// seamGuard: decided on flags set by the architectural
				// compare.
				c := New(m)
				c.setCmp(a, v)
				if stopped := seamGuard(&br, taken, next)(c); stopped == want {
					t.Fatalf("%v: seamGuard(taken=%v) stopped=%v with pred=%v", op, taken, stopped, want)
				} else if stopped {
					if c.stop.Reason != stopSideExit || c.PC != exitPC {
						t.Fatalf("%v: side exit stop=%v pc=%#x", op, c.stop, c.PC)
					}
				}

				// The fused guard (cmp-immediate only: a cmp of two
				// registers never fuses).
				c = New(m)
				c.Regs[isa.R3] = a
				cmp := isa.Inst{Op: isa.OpCmpRI, R1: isa.R3, Imm: int64(v)}
				stopped := fusedSeamGuard(&cmp, &br, taken, next)(c)
				if stopped == want {
					t.Fatalf("%v: fused(taken=%v) stopped=%v with pred=%v", op, taken, stopped, want)
				}
				if stopped && (c.stop.Reason != stopSideExit || c.PC != exitPC) {
					t.Fatalf("%v: fused side exit stop=%v pc=%#x", op, c.stop, c.PC)
				}
				if c.flags != ref.flags {
					t.Fatalf("%v: fused(stopped=%v) flags %03b, want %03b", op, stopped, c.flags, ref.flags)
				}
			}
		}
	}
}

// TestShapeVMStats pins the counter shape occlum-bench -stats reports:
// the trace tier's counters (Traces, TraceHits, TraceExits, TraceInsts)
// must be distinguished from the block tier's, move under the workloads
// that exercise them, and reach the global aggregation. It also pins where a call/ret loop's traces end: a
// trace follows a call into its callee and ends at the ret, whose
// return site is reached through the cache map.
func TestShapeVMStats(t *testing.T) {
	if !tracesEnabled {
		t.Skip("traces disabled")
	}
	g0 := GlobalCacheStats()

	// Hot loop: trace promotion, hits, insts, side exits.
	c := loadImage(t, hotLoopImage(t, 500), 4096)
	if st := c.Run(0); st.Reason != StopTrap {
		t.Fatalf("stop = %v", st)
	}
	s := c.CacheStats()
	if s.Traces == 0 || s.TraceHits == 0 || s.TraceExits == 0 || s.TraceInsts == 0 {
		t.Fatalf("hot loop stats = %+v: trace counters did not move", s)
	}

	// Call/ret loop: a trace runs from the loop branch through the call
	// into the callee and ends at its ret, so all but the warm-up
	// retires inside traces, at most one 4-instruction iteration per
	// entry. More per entry would mean a trace continued past a ret.
	c2 := loadImage(t, build(t, func(b *asm.Builder) {
		b.Entry("_start")
		b.MovRI(isa.R1, 3000)
		b.Label("loop")
		b.Call("fn")
		b.Jcc(isa.OpLoop, "loop")
		b.Trap()
		b.Func("fn")
		b.AddI(isa.R0, 1)
		b.Ret()
	}), 4096)
	if st := c2.Run(0); st.Reason != StopTrap {
		t.Fatalf("stop = %v", st)
	}
	s2 := c2.CacheStats()
	if s2.TraceInsts*10 < s2.Threaded*9 {
		t.Fatalf("call/ret stats = %+v: %d of %d threaded instructions inside traces, want >= 90%%",
			s2, s2.TraceInsts, s2.Threaded)
	}
	if s2.TraceInsts > 4*s2.TraceHits {
		t.Fatalf("call/ret stats = %+v: > 4 instructions per trace entry, so a trace spans a return", s2)
	}

	// Indirect jumps resolve through the cache map: the inline-cache
	// counters are kept for the benchmark harness and stay zero.
	mono, _, _ := diffImage(t, 0, false, func(r *rand.Rand, b *asm.Builder) {
		jumpTableProgram(rand.New(rand.NewSource(0)), b)
	})
	c3 := mono()
	if st := c3.Run(0); st.Reason != StopTrap {
		t.Fatalf("stop = %v", st)
	}
	s3 := c3.CacheStats()
	if s3.ICHits != 0 || s3.ICMisses != 0 || s3.Hits == 0 {
		t.Fatalf("indirect stats = %+v: want map hits and zero inline-cache counters", s3)
	}

	// Global aggregation (what -stats actually prints) must have
	// absorbed all three CPUs' counters at their Run returns — every
	// field of them: the totals' growth is exactly the sums, which fails
	// for any field CacheStats.counters does not list.
	g := GlobalCacheStats().Sub(g0)
	gv := reflect.ValueOf(g)
	if gv.NumField() != numCounters {
		t.Fatalf("CacheStats has %d fields, counters() lists %d", gv.NumField(), numCounters)
	}
	for i := 0; i < gv.NumField(); i++ {
		var want uint64
		for _, cs := range []CacheStats{s, s2, s3} {
			want += reflect.ValueOf(cs).Field(i).Uint()
		}
		if got := gv.Field(i).Uint(); got != want {
			t.Errorf("global %s = %d, want %d (sum over the three CPUs)", gv.Type().Field(i).Name, got, want)
		}
	}
}

// TestTraceSeverOnRemap promotes a superblock, then remaps the code
// pages (a LibOS loader rotating a pool slot — the generation stamp,
// not the contents, is the signal): the next entry must sever the
// trace, retranslate, and still produce the architectural result.
func TestTraceSeverOnRemap(t *testing.T) {
	if !tracesEnabled {
		t.Skip("traces disabled")
	}
	img := hotLoopImage(t, 1000)
	c := loadImage(t, img, 4096)
	st := c.Run(3000) // warm: well past promotion, mid-loop
	if st.Reason != StopCycles {
		t.Fatalf("stop = %v", st)
	}
	if s := c.CacheStats(); s.Traces == 0 {
		t.Fatalf("stats = %+v: not promoted before remap", s)
	}
	flushesBefore := c.CacheStats().Flushes
	if err := c.Mem.Map(c.Mem.Base(), img.CodeSpan(), mem.PermRX); err != nil {
		t.Fatal(err)
	}
	if st := c.Run(0); st.Reason != StopTrap {
		t.Fatalf("stop = %v", st)
	}
	if c.Regs[isa.R0] != 1000*1001/2 {
		t.Fatalf("r0 = %d, want %d (stale superblock executed?)", c.Regs[isa.R0], 1000*1001/2)
	}
	if s := c.CacheStats(); s.Flushes == flushesBefore {
		t.Fatalf("stats = %+v: remap severed nothing", s)
	}
}

// TestTraceSMCBoundedStaleness pins the trace tier's self-modification
// visibility contract: a store into the currently executing superblock
// takes effect at the next trace boundary — within one unrolled window
// (maxTraceInsts), a strictly bounded relaxation of the block tier's
// next-block-boundary rule (DESIGN.md documents it; real hardware asks
// for a serializing jump after SMC for the same reason). The patch
// must never be lost and never take more than one window to land.
func TestTraceSMCBoundedStaleness(t *testing.T) {
	if !tracesEnabled {
		t.Skip("traces disabled")
	}
	const trips = 600
	img := build(t, func(b *asm.Builder) {
		b.Entry("_start")
		b.Call("getpc")
		b.AddI(isa.R6, 11) // r6 = "loop": the movri below
		b.Jmp("loop")
		b.Label("loop")
		b.MovRI(isa.R3, 1) // imm low byte at r6+2: patched to 3 below
		b.Add(isa.R0, isa.R3)
		b.MovRR(isa.R7, isa.R8)
		b.CmpI(isa.R7, 300)
		b.Jne("nopatch")
		b.MovRI(isa.R5, 3)
		b.StoreB(isa.Mem(isa.R6, 2), isa.R5) // patch inside own loop
		b.Label("nopatch")
		b.AddI(isa.R8, 1)
		b.CmpI(isa.R8, trips)
		b.Jl("loop")
		b.Trap()
		b.Func("getpc")
		b.Load(isa.R6, isa.Mem(isa.SP, 0))
		b.Ret()
	})
	c := loadImageRWX(t, img, 4096)
	if st := c.Run(0); st.Reason != StopTrap {
		t.Fatalf("stop = %v", st)
	}
	// Iterations 0..300 add 1 (the patch lands during iteration 300);
	// after at most maxTraceInsts further instructions — one unrolled
	// window — every iteration adds 3. R0 = 301 + 299*3 if the patch is
	// seen immediately on re-entry; allow up to a window of stale adds.
	exact := uint64(301 + (trips-301)*3)
	staleIters := uint64(maxTraceInsts) // coarse: >= window / loop length
	min, max := exact-2*staleIters, exact
	if c.Regs[isa.R0] < min || c.Regs[isa.R0] > max {
		t.Fatalf("r0 = %d, want within [%d, %d]: SMC visibility window violated", c.Regs[isa.R0], min, max)
	}
	if s := c.CacheStats(); s.Traces == 0 || s.Flushes == 0 {
		t.Fatalf("stats = %+v: want a promoted trace severed by the SMC store", s)
	}
}

// TestTracePreemptPrompt: a preemption request latched against a CPU
// flying through a promoted self-loop must be honored within one trace
// window, not absorbed by the okGen revalidation.
func TestTracePreemptPrompt(t *testing.T) {
	c := loadImage(t, hotLoopImage(t, 1<<30), 4096) // effectively endless
	if st := c.Run(2000); st.Reason != StopCycles {
		t.Fatalf("warmup stop = %v", st)
	}
	if tracesEnabled {
		if s := c.CacheStats(); s.Traces == 0 {
			t.Fatalf("stats = %+v: loop not promoted after warmup", s)
		}
	}
	for i := 0; i < 100; i++ {
		before := c.Cycles
		c.RequestPreempt()
		st := c.Run(0)
		if st.Reason != StopPreempt {
			t.Fatalf("iter %d: stop = %v, want preempt", i, st)
		}
		if st.PC != c.PC {
			t.Fatalf("iter %d: stop PC %#x != cpu PC %#x", i, st.PC, c.PC)
		}
		if got := c.Cycles - before; got > maxTraceInsts {
			t.Fatalf("iter %d: preempt took %d cycles, want <= %d (one trace window)", i, got, maxTraceInsts)
		}
		// Run a stretch between requests so traces re-enter their fast
		// path before the next preemption.
		if st := c.Run(500); st.Reason != StopCycles {
			t.Fatalf("iter %d: stop = %v", i, st)
		}
	}
}

// TestTraceDisabledMatches: with tracesEnabled off, no superblock forms
// and the program result is identical — the A/B knob the benchmarks
// rely on must be behavior-neutral.
func TestTraceDisabledMatches(t *testing.T) {
	run := func(on bool) (uint64, CacheStats) {
		old := tracesEnabled
		tracesEnabled = on
		defer func() { tracesEnabled = old }()
		c := loadImage(t, hotLoopImage(t, 800), 4096)
		if st := c.Run(0); st.Reason != StopTrap {
			t.Fatalf("stop = %v", st)
		}
		return c.Regs[isa.R0], c.CacheStats()
	}
	rOn, sOn := run(true)
	rOff, sOff := run(false)
	if rOn != rOff {
		t.Fatalf("results differ: traces on %d, off %d", rOn, rOff)
	}
	if sOn.Traces == 0 {
		t.Fatalf("stats on = %v: want a promoted trace", sOn)
	}
	if sOff.Traces != 0 || sOff.TraceHits != 0 || sOff.TraceInsts != 0 {
		t.Fatalf("stats off = %v: trace tier ran while disabled", sOff)
	}
}
