package vm

// Trace-level superblocks: the top rung of the DBT optimization ladder,
// above block chaining and threaded dispatch.
//
// Per-block profile counters (block.heat) promote hot chains into
// superblocks — single translation units spanning multiple basic blocks.
// The chain is discovered from the lazily materialized successor
// pointers left by block chaining (a non-nil fallNext/takenNext is a
// one-bit execution history of the warm-up), and loop back edges keep
// appending components up to the instruction cap: natural unrolling.
//
// A trace adds no instruction semantics of its own. Its slots are the
// component blocks' compiled handlers; only the interior seams differ,
// and each seam is a guard built from the branch truth tables of
// compile.go: the condition is evaluated, and execution either continues
// (predicted direction — with no PC write, since PC materialization is
// batched to trace exits) or side-exits back to the block cache with PC
// and flags exactly architectural. One cross-block optimization runs
// over each trace: macro-fusion of a cmp into the conditional branch
// after it — at a seam or as the final pair — with the comparison
// re-derived from the registers.
//
// Invalidation composes with the page-generation scheme of mem.Paged:
// a trace records one mem.Span per component block and is valid while
// mem.SpansCurrent holds, memoized against the global generation under
// the same quiescence protocol as blockValid. Any flush that stamps a
// page under the trace severs it at the next entry check, and
// RequestPreempt's generation bump forces the entry check off its fast
// path, so a preemption lands at the next trace exit.
//
// A trace exit that is not a chained direct successor — a return, an
// indirect transfer, a diverged target — resolves through the block
// cache map, as a block exit does. Every specialisation here is kept on
// a measurement (DESIGN.md, "What stays, what went").

import (
	"repro/internal/isa"
	"repro/internal/mem"
)

// Trace-tier tuning.
const (
	// traceHotThreshold is the number of block-tier executions before a
	// block is promoted to anchor a superblock. It must exceed the
	// iteration counts of the directed SMC tests (which patch code and
	// expect next-block-boundary visibility at the block tier) and be
	// small enough that real hot loops promote almost immediately.
	traceHotThreshold = 64
	// maxTraceInsts caps the instructions compiled into one superblock —
	// the same bound as maxBlockInsts, so a trace's worst-case preempt
	// latency matches a worst-case basic block's.
	maxTraceInsts = 64
)

// tracesEnabled gates superblock formation for the package's own tests:
// it is read only on the (cold) promotion path, so flipping it between
// runs gives an in-process A/B of the trace tier over identical
// block-tier code (TestTraceSpeedupRegression, TestTraceDisabledMatches).
// Existing traces are not torn down when it is cleared.
var tracesEnabled = true

// stopSideExit is the private stop sentinel a seam guard leaves in
// c.stop when trace execution departs the predicted path: the trace
// dispatch loop converts it into a resume at c.PC instead of returning
// it. It never escapes Run.
const stopSideExit StopReason = 0xFF

// trace is one superblock: a single translation unit covering the hot
// chain of basic blocks anchored at a promoted block.
type trace struct {
	// anchor is the PC of the head block — the only entry point.
	anchor uint64
	// ops are the compiled slots, in program order. A slot usually
	// covers one instruction, but elided work — jmp seams, the cmp half
	// of a fused guard — is folded into the NEXT emitted slot instead of
	// burning a dispatch, so a slot may cover several instructions.
	ops []handler
	// cum[j] is the total instruction count through slot j: when slot j
	// stops or side-exits, exactly cum[j] instructions of the trace have
	// retired (folded work precedes its covering slot in program order
	// and is unobservable — that is what made it foldable), so the cycle
	// accounting stays bit-exact at every stop.
	cum []uint64
	// ninsts is the total instruction count of the trace (== cum of the
	// last slot): what a full completion retires, and the bound run
	// checks against the remaining budget before entering.
	ninsts uint64
	// spans are the component blocks' code ranges with their decode
	// generations, deduplicated. The trace is valid while every span is
	// current (mem.SpansCurrent): invalidation composes with the page-
	// generation scheme exactly as for single blocks.
	spans []mem.Span
	// okGen memoizes the global generation at which the spans were last
	// validated under quiescence, making revalidation one atomic load.
	okGen uint64
	// lastSetsPC / exitPC: as for block — the final slot either writes
	// PC itself or the dispatch loop materializes exitPC when the whole
	// trace retires.
	lastSetsPC bool
	exitPC     uint64
	// tail is the final component block: its chain pointers steer the
	// transition when the whole trace retires somewhere other than back
	// to the anchor.
	tail *block
	// nblocks counts the component blocks, unroll repeats included.
	nblocks int
}

// runTrace executes t to completion or a side exit. It returns
// (stop, true) when the hart stopped; (Stop{}, false) when execution
// continues at c.PC (trace completed or side-exited). The caller has
// already validated the trace and counted the entry.
func (c *CPU) runTrace(t *trace) (Stop, bool) {
	for j, h := range t.ops {
		if h(c) {
			// The stopping slot retired, along with everything folded
			// into it: cum gives the exact instruction count.
			n := t.cum[j]
			c.Cycles += n
			c.stats.Threaded += n
			c.stats.TraceInsts += n
			if c.stop.Reason == stopSideExit {
				c.stats.TraceExits++
				return Stop{}, false
			}
			return c.stop, true
		}
	}
	n := t.ninsts
	c.Cycles += n
	c.stats.Threaded += n
	c.stats.TraceInsts += n
	if !t.lastSetsPC {
		c.PC = t.exitPC
	}
	return Stop{}, false
}

// traceValid reports whether t's component spans are all current,
// advancing the okGen memo under the same quiescence protocol as
// blockValid. A false result means a page under the trace was remapped
// or rewritten: the caller severs the trace and the anchor re-heats at
// the block tier.
func (c *CPU) traceValid(t *trace) bool {
	g := c.Mem.Generation()
	if g == t.okGen {
		return true
	}
	quiet := c.Mem.Quiescent()
	if !c.Mem.SpansCurrent(t.spans) {
		return false
	}
	if quiet {
		t.okGen = g
	}
	return true
}

// severTrace drops b's superblock: the anchor re-enters the block tier
// and re-heats, rebuilding a fresh trace over the re-translated blocks
// once the path is hot again.
func (c *CPU) severTrace(b *block) {
	b.trace, b.heat = nil, 0
	c.stats.Flushes++
}

// traceExit resolves the next block after a completed superblock whose
// exit did not return to the anchor: through the tail component's chain
// pointers for its direct successors, else through the cache map.
// Returns nil when pc has no translation (the caller falls back to
// Step).
func (c *CPU) traceExit(t *trace, pc uint64) *block {
	tb := t.tail
	switch {
	case tb.hasTaken && pc == tb.takenPC:
		return c.chainVia(&tb.takenNext, pc)
	case tb.hasFall && pc == tb.fallPC:
		return c.chainVia(&tb.fallNext, pc)
	default:
		return c.lookup(pc)
	}
}

// promote attempts to form a superblock anchored at b, reporting
// whether one now exists. On failure the heat resets: chain pointers
// may materialize a longer hot path later, and the next threshold
// crossing retries.
func (c *CPU) promote(b *block) bool {
	if !tracesEnabled {
		b.heat = 0
		return false
	}
	t := c.buildTrace(b)
	if t == nil {
		b.heat = 0
		return false
	}
	b.trace = t
	c.stats.Traces++
	return true
}

// traceSuccessor picks the block a trace extends through after b: the
// materialized chain pointer of the predicted direction, revalidated.
// Returns (nil, false) when the block exits indirectly, stops, or no
// successor has materialized.
func (c *CPU) traceSuccessor(b *block) (*block, bool) {
	ft, tt := b.fallNext, b.takenNext
	if ft != nil && !c.blockValid(ft) {
		ft = nil
	}
	if tt != nil && !c.blockValid(tt) {
		tt = nil
	}
	switch {
	case tt != nil && ft == nil:
		return tt, true
	case ft != nil && tt == nil:
		return ft, false
	case tt != nil && ft != nil:
		// Both directions have run. Prefer the loop-closing back edge —
		// the shape trace formation exists for — else fall through.
		if b.takenPC <= b.start {
			return tt, true
		}
		return ft, false
	}
	return nil, false
}

// seamInfo describes the predicted edge out of a non-final component.
type seamInfo struct {
	taken bool   // for branches: the predicted direction is the taken edge
	ret   bool   // the seam is a return followed through to its call site
	retPC uint64 // for ret seams: the predicted return address
}

// tslot is one instruction slot during trace compilation.
type tslot struct {
	in       *isa.Inst
	pc, next uint64
	base     handler // the component block's own compiled handler
	seam     bool    // terminator of a non-final component (transformed)
	taken    bool    // for seam branches: predicted direction is the taken edge
	ret      bool    // ret seam: continue into the predicted return site
	retPC    uint64
}

// buildTrace compiles the superblock anchored at head, or returns nil
// when there is no profitable chain (no materialized successor, or a
// component went stale mid-build).
func (c *CPU) buildTrace(head *block) *trace {
	// Memo protocol, as in blockValid: generation before quiescence
	// before the span checks, so okGen may be set to g only when no
	// stamp was in flight.
	g := c.Mem.Generation()
	quiet := c.Mem.Quiescent()

	// Phase 1: collect the hot chain. Back edges (to the anchor or any
	// earlier component) keep appending — natural loop unrolling up to
	// the instruction cap. Calls and returns thread through: a call seam
	// pushes its return address on a static stack, and a ret whose
	// matching call is in the trace continues into the return site (the
	// compiled ret guard verifies the actual return address at runtime,
	// so mismatched call stacks just side-exit).
	var comps []*block
	var seams []seamInfo
	var callRets []uint64
	n := 0
	for cur := head; cur != nil && n+len(cur.insts) <= maxTraceInsts; {
		if c.Mem.GenerationOf(cur.start, int(cur.size)) > cur.gen {
			return nil // stale component: nothing to build on
		}
		comps = append(comps, cur)
		n += len(cur.insts)
		last := len(cur.insts) - 1
		term := cur.insts[last].Op
		var si seamInfo
		var next *block
		switch {
		case term == isa.OpRet || term == isa.OpRetI:
			if len(callRets) > 0 {
				retPC := callRets[len(callRets)-1]
				callRets = callRets[:len(callRets)-1]
				if nb, ok := c.blocks[retPC]; ok && c.blockValid(nb) {
					si, next = seamInfo{ret: true, retPC: retPC}, nb
				}
			}
		default:
			if term == isa.OpCall {
				callRets = append(callRets, cur.nexts[last])
			}
			var taken bool
			next, taken = c.traceSuccessor(cur)
			if next != nil {
				// Defensive: a chain pointer always starts at its
				// edge's target PC; a mismatch means the metadata
				// cannot be trusted.
				want := cur.fallPC
				if taken {
					want = cur.takenPC
				}
				if next.start != want {
					return nil
				}
			}
			si.taken = taken
		}
		seams = append(seams, si)
		cur = next
	}
	if len(comps) < 2 {
		return nil // a superblock must span at least one seam
	}

	// Phase 2: flatten the components into per-instruction slots.
	slots := make([]tslot, 0, n)
	for ci, cb := range comps {
		final := ci == len(comps)-1
		ipc := cb.start
		for k := range cb.insts {
			s := tslot{in: &cb.insts[k], pc: ipc, next: cb.nexts[k], base: cb.ops[k]}
			if !final && k == len(cb.insts)-1 && s.in.Op.EndsBlock() {
				s.seam = true
				s.taken, s.ret, s.retPC = seams[ci].taken, seams[ci].ret, seams[ci].retPC
			}
			slots = append(slots, s)
			ipc = cb.nexts[k]
		}
	}
	ns := len(slots)

	// Phase 3: macro-fusion marking. A cmp immediately before a
	// flag-reading seam guard — or before the final terminator — fuses
	// into the branch slot; the cmp slot becomes a counted no-op, so the
	// slot count still equals the instruction count.
	fused := make([]bool, ns)
	var finalFused handler
	for i := 1; i < ns; i++ {
		br, cmp := slots[i].in, slots[i-1].in
		if !br.Op.ReadsFlags() || slots[i-1].seam {
			continue
		}
		if cmp.Op != isa.OpCmpRI && cmp.Op != isa.OpCmpRR {
			continue
		}
		if slots[i].seam {
			fused[i] = true
		} else if i == ns-1 {
			// Final pair: the fused full branch (it sets flags and PC on
			// both paths).
			fused[i], finalFused = true, fuseCmpBranch(cmp, br, slots[i].next)
		}
	}

	// Phase 4: emit slots. Elided work — jmp seams, the cmp half of a
	// fused guard — is FOLDED into the next emitted slot (pending → cum)
	// instead of occupying a dispatch of its own.
	ops := make([]handler, 0, ns)
	cum := make([]uint64, 0, ns)
	total, pending := uint64(0), uint64(0)
	emit := func(h handler) {
		total += pending + 1
		pending = 0
		ops = append(ops, h)
		cum = append(cum, total)
	}
	for i := range slots {
		s := &slots[i]
		switch {
		case fused[i] && s.seam:
			emit(fusedSeamGuard(slots[i-1].in, s.in, s.taken, s.next))
		case fused[i]:
			emit(finalFused)
		case i+1 < ns && fused[i+1]:
			pending++ // the fused branch does this cmp's work
		case s.seam:
			switch {
			case s.in.Op == isa.OpJmp:
				pending++ // PC materialization batched to exits
			case s.in.Op == isa.OpCall:
				// The block's own handler: it pushes the return address;
				// its PC write is dead here, the trace continues into the
				// callee.
				emit(s.base)
			case s.ret:
				emit(compileRet(s.in, s.pc, s.retPC))
			case s.in.Op.IsCondBranch():
				emit(seamGuard(s.in, s.taken, s.next))
			default:
				return nil // unreachable: phase 1 chains direct exits and rets only
			}
		default:
			emit(s.base)
		}
	}
	// The final instruction always emits (it is never a seam and never
	// the cmp of a fused pair), so nothing stays pending.
	if pending != 0 || total != uint64(ns) {
		return nil
	}

	// Component spans, deduplicated (unrolled repeats share one span).
	var spans []mem.Span
	for _, cb := range comps {
		dup := false
		for _, sp := range spans {
			if sp.Addr == cb.start && sp.N == int(cb.size) {
				dup = true
				break
			}
		}
		if !dup {
			spans = append(spans, mem.Span{Addr: cb.start, N: int(cb.size), Gen: cb.gen})
		}
	}

	tail := comps[len(comps)-1]
	t := &trace{
		anchor:     head.start,
		ops:        ops,
		cum:        cum,
		ninsts:     total,
		spans:      spans,
		lastSetsPC: tail.lastSetsPC,
		exitPC:     tail.nexts[len(tail.nexts)-1],
		tail:       tail,
		nblocks:    len(comps),
	}
	if quiet {
		t.okGen = g
	} else {
		// A stamp was in flight: the memo may not be established yet.
		// This sentinel can never equal a real generation, so the first
		// entries revalidate until a quiescent check lands.
		t.okGen = ^uint64(0)
	}
	return t
}

// sideExit leaves the trace at pc. The dispatch loop sees the private
// sentinel and converts the "stop" into a resume through the block
// cache. Flags must already be architectural — guards materialize their
// comparison before exiting.
func (c *CPU) sideExit(pc uint64) bool {
	c.PC = pc
	c.stop = Stop{Reason: stopSideExit, PC: pc}
	return true
}

// guardMask is the truth table a guard over conditional branch br
// CONTINUES on, with the PC it side-exits to otherwise: the branch's own
// table and its fall-through when the taken edge is predicted, the
// complement and its target when the fall-through is.
func guardMask(br *isa.Inst, taken bool, next uint64) (mask uint8, exitPC uint64) {
	if taken {
		return takenMask[br.Op], next
	}
	return ^takenMask[br.Op], next + uint64(br.Imm)
}

// seamGuard compiles a conditional branch at an interior block seam:
// execution continues (no PC write — batched to the exit) on the
// predicted direction and side-exits to the other target otherwise.
// The flags were set earlier (a cmp right before the branch would have
// been fused), so a flag branch is decided on them directly.
func seamGuard(in *isa.Inst, taken bool, next uint64) handler {
	mask, exitPC := guardMask(in, taken, next)
	if in.Op == isa.OpLoop { // register-based: no table, same exits
		return func(c *CPU) bool {
			c.Regs[isa.R1]--
			if (c.Regs[isa.R1] != 0) == taken {
				return false
			}
			return c.sideExit(exitPC)
		}
	}
	return func(c *CPU) bool {
		if holds(mask, c.flags) {
			return false
		}
		return c.sideExit(exitPC)
	}
}

// fusedSeamGuard macro-fuses a cmp + conditional-branch pair at an
// interior seam: the flag byte is computed from the registers, stored
// (the flags are architectural the moment the trace is left, and a
// second closure that skipped the one-byte store when the flags are
// dead measured under 1% on guard-only loops — EXPERIMENTS.md), and the
// guard decided on it. PC is not written on the predicted path.
func fusedSeamGuard(cmp, br *isa.Inst, taken bool, next uint64) handler {
	mask, exitPC := guardMask(br, taken, next)
	r1 := cmp.R1 & 15
	if cmp.Op == isa.OpCmpRI {
		v := uint64(cmp.Imm)
		return func(c *CPU) bool {
			f, ok := decide(mask, c.Regs[r1], v)
			c.flags = f
			if ok {
				return false
			}
			return c.sideExit(exitPC)
		}
	}
	r2 := cmp.R2 & 15
	return func(c *CPU) bool {
		f, ok := decide(mask, c.Regs[r1], c.Regs[r2])
		c.flags = f
		if ok {
			return false
		}
		return c.sideExit(exitPC)
	}
}
