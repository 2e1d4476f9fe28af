// Package vm implements the OVM virtual CPU: an interpreter that executes
// encoded OVM instructions (internal/isa) over permission-checked paged
// memory (internal/mem).
//
// The CPU plays the role of the hardware in the Occlum paper's security
// argument. It enforces exactly what real hardware enforces — page
// permissions (guard regions fault, data pages are not executable) and MPX
// bound checks (#BR) — and nothing more. All sandboxing beyond that comes
// from the MMDSFI instrumentation in the code it runs, which is the point
// of the paper.
//
// The CPU counts retired instructions as "cycles". Because MMDSFI's
// instrumentation inserts extra instructions, the SPECint-style overhead
// figures (paper Figure 7) fall out of cycle counts deterministically.
//
// # One definition of the instruction set
//
// The exec switch behind Step defines every op: one instruction at a
// time, every architectural effect spelled out. Translated code runs exec
// too, through one exec-backed handler, for every op no workload
// dispatches. The ops the workloads do dispatch, plus call and ret, have
// specialized handlers (compile.go), each a closure over its operands;
// TestSpecializedOps pins that set, and a new specialization needs an
// end-to-end measurement (EXPERIMENTS.md "Specialise only what runs").
// The randomized differential battery holds the specialized handlers to
// exec, state-for-state, and everything built on top — trace guards,
// fused pairs and fused slots — is assembled from the compiled handlers,
// exec's aluRI, and one branch-predicate table derived from
// isa.Op.EvalCond and checked against it exhaustively.
//
// # Translation cache
//
// Run executes through a basic-block translation cache: the first time
// execution reaches a PC, the straight-line run of instructions starting
// there is decoded once — up to the first control transfer, trap, or
// privileged stop (isa.Op.EndsBlock), or a length cap — and stored with
// precomputed successor PCs. Subsequent visits execute the whole
// pre-decoded block in a tight loop, paying one cache lookup per block
// instead of one per instruction, exactly like a mini-JIT without code
// generation.
//
// On top of the cache sits the classic DBT optimization ladder:
// threaded dispatch (one indirect call per instruction on the cached
// path instead of the exec switch), block chaining (each block lazily
// caches pointers to its fall-through and direct-branch successor
// blocks, so hot loops run block-to-block without re-entering the cache
// map; every chained transition revalidates the target's generation,
// severing links to flushed translations) and trace-level superblocks
// (trace.go). One
// dispatch loop, run, drives all of it; Run(0) is that loop with the
// largest budget a uint64 holds.
//
// Blocks are invalidated through the page-granular generation counters of
// mem.Paged: each block snapshots the global generation before decoding
// and is re-decoded once any page it spans carries a later stamp (any
// remap or rewrite, including one racing the decode itself — mutators
// write bytes before stamping, see block.gen). Stores to plain data pages
// leave code generations untouched,
// so data traffic never flushes translated code; a store through a
// writable+executable mapping (self-modifying code) invalidates exactly
// the pages written, taking effect at the next block boundary — the same
// granularity at which real hardware requires a serializing control
// transfer after code modification.
//
// Step remains the uncached single-instruction slow path, used by Run to
// materialize fetch faults and kept as the precise-execution API for the
// verifier and tests.
package vm

import (
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/mpx"
)

// Exception enumerates the hardware exceptions the CPU can raise.
type Exception uint8

// Exceptions.
const (
	ExcNone    Exception = iota
	ExcPage              // #PF: unmapped page or permission violation
	ExcBound             // #BR: MPX bound check failed
	ExcDivide            // #DE: divide by zero
	ExcInvalid           // #UD: undefined or malformed instruction
)

func (e Exception) String() string {
	switch e {
	case ExcNone:
		return "none"
	case ExcPage:
		return "#PF"
	case ExcBound:
		return "#BR"
	case ExcDivide:
		return "#DE"
	case ExcInvalid:
		return "#UD"
	}
	return "#?"
}

// StopReason says why Run returned.
type StopReason uint8

// Stop reasons.
const (
	StopTrap      StopReason = iota // executed trap (the LibOS syscall gate)
	StopException                   // raised a hardware exception (AEX)
	StopHalt                        // executed halt
	StopEExit                       // executed eexit (left the enclave)
	StopCycles                      // reached the cycle budget
	StopPreempt                     // honored an asynchronous preemption request
)

func (r StopReason) String() string {
	switch r {
	case StopTrap:
		return "trap"
	case StopException:
		return "exception"
	case StopHalt:
		return "halt"
	case StopEExit:
		return "eexit"
	case StopCycles:
		return "cycle-budget"
	case StopPreempt:
		return "preempt"
	}
	return "stop?"
}

// Stop describes why and where execution stopped.
type Stop struct {
	Reason StopReason
	// Exc is the exception kind when Reason == StopException.
	Exc Exception
	// Fault carries page-fault details when Exc == ExcPage.
	Fault *mem.Fault
	// PC is the program counter at the stop: the address *after* a
	// trap/halt/eexit, or the address *of* the faulting instruction
	// for exceptions.
	PC uint64
}

// String renders the stop for diagnostics.
func (s Stop) String() string {
	if s.Reason == StopException {
		if s.Fault != nil {
			return fmt.Sprintf("%s %s at pc=%#x (%v)", s.Reason, s.Exc, s.PC, s.Fault)
		}
		return fmt.Sprintf("%s %s at pc=%#x", s.Reason, s.Exc, s.PC)
	}
	return fmt.Sprintf("%s at pc=%#x", s.Reason, s.PC)
}

// Translation-cache tuning.
const (
	// maxBlockInsts caps the instructions decoded into one basic block.
	// MMDSFI-instrumented straight-line runs are short (guards every few
	// instructions are still straight-line; branches end blocks), so the
	// cap exists only to bound decode-ahead past data mistaken for code.
	maxBlockInsts = 64
	// maxBlocks caps the cached blocks per CPU before the whole cache is
	// discarded — a memory bound for pathological code, not a hot path.
	maxBlocks = 1 << 14
)

// block is one translated basic block: the decoded straight-line
// instruction run starting at start, ending with the first terminator
// (isa.Op.EndsBlock) or at the maxBlockInsts cap.
type block struct {
	start uint64 // PC of insts[0]
	size  uint64 // total encoded length in bytes
	// gen is Mem.Generation() sampled BEFORE decoding. Because every
	// memory mutator writes bytes before stamping, any mutation whose
	// new bytes this block could have missed stamps its pages with a
	// value strictly above this snapshot — so the block is valid while
	// GenerationOf(start, size) <= gen, even against mutations racing
	// the decode itself.
	gen   uint64
	insts []isa.Inst
	// nexts[i] is the address of the instruction after insts[i]: the
	// fall-through PC, and the base for PC-relative operands.
	nexts []uint64
	// ops[i] is the threaded-dispatch handler for insts[i]: the
	// instruction specialized at translate time into a closure over its
	// operands, so the cached path pays one indirect call instead of
	// the exec switch (see compile.go).
	ops []handler
	// lastSetsPC records that the final instruction is a control
	// transfer whose handler writes PC itself; otherwise the run loop
	// materializes the fall-through PC when the whole block retires.
	lastSetsPC bool

	// okGen is the global generation at which this block was last
	// known valid. When Generation() still equals it, no mutation of
	// any kind has happened since, so revalidation is one atomic load;
	// otherwise the span's pages are re-checked against gen.
	okGen uint64

	// Block chaining: the static successors of the block, so hot paths
	// run block-to-block without re-entering the cache map. fallPC is
	// the fall-through successor (cond branch not taken, or a block cut
	// at the decode cap); takenPC is the direct-branch target. The
	// *block pointers lazily cache the translated successors; every
	// chained transition revalidates the target's generation, so a
	// severed (flushed) successor can never execute stale — the pointer
	// is then relinked to the fresh translation.
	fallPC, takenPC     uint64
	hasFall, hasTaken   bool
	fallNext, takenNext *block

	// Trace tier (trace.go). heat counts block-tier executions; at
	// traceHotThreshold the block tries to promote the hot chain through
	// it into a superblock, stored in trace and entered whenever
	// execution reaches this block. Severing the trace (invalidation)
	// resets heat, so the anchor re-heats over fresh translations.
	heat  uint32
	trace *trace
}

// CacheStats counts translation-cache events. All counters are
// cumulative; the hit rate over all block transitions is
// (Hits + Chains) / (Hits + Misses + Chains).
type CacheStats struct {
	// Blocks is the number of basic blocks decoded (translated).
	Blocks uint64
	// Hits counts block lookups served from the cache.
	Hits uint64
	// Misses counts block lookups that had to decode.
	Misses uint64
	// Flushes counts blocks discarded because the memory generation of
	// their span changed (remap or code rewrite) or the cache overflowed.
	Flushes uint64
	// Chains counts block transitions served by chained successor
	// pointers — fall-through or direct-branch targets reached without
	// re-entering the cache map. Indirect transfers (jmpr/ret) and
	// first visits still go through Hits/Misses.
	Chains uint64
	// Threaded counts instructions retired through handlers (the
	// threaded-dispatch fast path), specialized or exec-backed, whether
	// dispatched from a block or from inside a superblock. Instructions
	// Run executes through Step (after a fetch fault ended a block)
	// account for the rest of CPU.Cycles.
	Threaded uint64

	// Trace tier (trace.go). Traces counts superblocks formed; TraceHits
	// counts entries into a valid superblock (distinct from Hits/Chains,
	// which count block-tier transitions only); TraceExits counts side
	// exits off a predicted path; TraceInsts counts instructions retired
	// inside superblocks (a subset of Threaded).
	Traces     uint64
	TraceHits  uint64
	TraceExits uint64
	TraceInsts uint64
	// ICHits and ICMisses are always zero: the inline cache they counted
	// is gone, and they stay only because benchmarks/occlumbench/
	// counters.go reads them (renaming its metrics is the benchmark
	// PR's to do).
	ICHits   uint64
	ICMisses uint64
}

// HitRate returns the share of block transitions served without a
// decode: (Hits + Chains) / (Hits + Misses + Chains), 0 with none.
func (s CacheStats) HitRate() float64 {
	if n := s.Hits + s.Misses + s.Chains; n > 0 {
		return float64(s.Hits+s.Chains) / float64(n)
	}
	return 0
}

// Sub returns the counter deltas since an earlier snapshot.
func (s CacheStats) Sub(prev CacheStats) CacheStats { return metrics.Sub(s, prev) }

// numCounters is the number of CacheStats fields.
const numCounters = 12

// counters lists the address of every field, in declaration order, for
// the per-Run publish: the one path that walks the fields without
// internal/metrics, because it runs at every Run return and must not
// reflect or allocate.
func (s *CacheStats) counters() [numCounters]*uint64 {
	return [numCounters]*uint64{
		&s.Blocks, &s.Hits, &s.Misses, &s.Flushes, &s.Chains, &s.Threaded,
		&s.Traces, &s.TraceHits, &s.TraceExits, &s.TraceInsts,
		&s.ICHits, &s.ICMisses,
	}
}

// globalStats aggregates cache counters across every CPU in the process,
// so benchmark drivers can report totals without owning the CPUs (each
// simulated kernel creates its own harts internally). It is written only
// through sync/atomic.
var globalStats CacheStats

// GlobalCacheStats returns the process-wide translation-cache totals,
// accumulated from every CPU at each Run return.
func GlobalCacheStats() CacheStats { return metrics.Load(&globalStats) }

// CPU is one OVM hart. It is not safe for concurrent use; each SGX thread
// owns one, and an Occlum domain owns one that the SIPs it hosts run on,
// one at a time.
type CPU struct {
	// Mem is the memory the hart executes over (an enclave's ELRANGE,
	// or a plain address space for the native baseline).
	Mem *mem.Paged
	// Regs are the general-purpose registers.
	Regs [isa.NumRegs]uint64
	// PC is the program counter.
	PC uint64
	// flags holds the comparison flags set by cmp/test, packed as
	// flagZF | flagLTS | flagLTU: the byte that indexes the branch truth
	// tables (compile.go), so a compare is one store and a branch one
	// bit test. Nothing outside the package reads the flags.
	flags uint8
	// Bnd is the MPX bound register file.
	Bnd mpx.File
	// Cycles counts retired instructions.
	Cycles uint64

	// preempt is the asynchronous interrupt request line: the only CPU
	// field another goroutine may touch while the hart runs. The run
	// loops poll it at block boundaries (where architectural state is
	// consistent), so a preemption lands within one basic block instead
	// of waiting out the full cycle budget — the hook the LibOS uses
	// for prompt signal delivery and the M:N scheduler for early
	// yields. Polling is free on the hot path: RequestPreempt also
	// bumps the global memory generation, so the chained fast check
	// (one Generation() load per block, already there) fails once and
	// execution falls into the slow transition branches, which are
	// where the poll lives.
	preempt atomic.Bool

	blocks    map[uint64]*block
	stats     CacheStats
	published CacheStats // portion of stats already added to the globals
	stop      Stop       // set by exec when it stops the hart
	// unretired counts the instructions of a stopping fused trace slot
	// after the one that stopped (runParts); runTrace consumes it.
	unretired uint64
}

// New creates a CPU over m with zeroed state.
func New(m *mem.Paged) *CPU {
	return &CPU{Mem: m, blocks: make(map[uint64]*block)}
}

// Reset clears registers, flags, cycle count and a latched preemption
// request (but not the translation cache, which is keyed to memory
// generations). A CPU that outlives one program and runs the next (the
// LibOS keeps one per domain) thus starts the next with no request aimed
// at the last one; a request that races Reset costs one spurious
// StopPreempt at most.
func (c *CPU) Reset() {
	c.Regs = [isa.NumRegs]uint64{}
	c.PC, c.Cycles = 0, 0
	c.flags = 0
	c.Bnd = mpx.File{}
	c.preempt.Store(false)
}

// CacheStats returns this CPU's cumulative translation-cache counters.
func (c *CPU) CacheStats() CacheStats { return c.stats }

// RequestPreempt asks the hart to stop at the next block boundary with
// StopPreempt. Safe to call from any goroutine; the request is latched
// until the next Run consumes it. The generation bump is what makes the
// request visible to a hart flying along chained blocks: its next
// fast-path check (Generation() == okGen) fails, it drops into the slow
// transition branch, and the poll there takes the latch. Ordering: the
// latch is stored before the bump, and Go atomics are sequentially
// consistent, so any hart that observes the bump also observes the
// latch.
func (c *CPU) RequestPreempt() {
	c.preempt.Store(true)
	c.Mem.BumpGeneration()
}

// takePreempt consumes a pending preemption request. Called on the slow
// transition paths only (lookup and failed chain checks) — which a
// pending request forces within one block, via the generation bump.
func (c *CPU) takePreempt() bool {
	if c.preempt.Load() {
		c.preempt.Store(false)
		return true
	}
	return false
}

// publishStats adds the counter deltas since the last publish to the
// process-wide totals. Called once per Run return, so the atomics stay
// off the per-instruction and per-block paths.
func (c *CPU) publishStats() {
	pub, global := c.published.counters(), globalStats.counters()
	for i, p := range c.stats.counters() {
		if d := *p - *pub[i]; d != 0 {
			atomic.AddUint64(global[i], d)
			*pub[i] = *p
		}
	}
}

// fetch decodes the single instruction at addr, applying the
// execute-permission check to every byte fetched.
func (c *CPU) fetch(addr uint64) (isa.Inst, int, *mem.Fault, error) {
	// Peek the opcode byte to learn the length, then fetch the whole
	// instruction with the execute-permission check.
	b, f := c.Mem.Fetch(addr, 1)
	if f != nil {
		return isa.Inst{}, 0, f, nil
	}
	op := isa.Op(b[0])
	if !op.Valid() {
		return isa.Inst{}, 0, nil, isa.ErrBadInst
	}
	n := isa.EncodedLen(op)
	view, f := c.Mem.Fetch(addr, n)
	if f != nil {
		return isa.Inst{}, 0, f, nil
	}
	in, n, err := isa.Decode(view, 0)
	if err != nil {
		return isa.Inst{}, 0, nil, err
	}
	return in, n, nil, nil
}

// chainVia resolves a chained transition to pc through the given
// successor link after the inline fast check (link valid and nothing
// mutated globally) has failed: it revalidates the linked block
// against its span generations, or relinks through the cache map —
// which severs links to flushed translations. Returns nil when pc has
// no translation (the caller falls back to Step). This is the single
// copy of the validate-or-relink protocol; only the two-line fast
// check is inlined at the call sites in run, where a helper call per
// block transition is measurable.
func (c *CPU) chainVia(link **block, pc uint64) *block {
	if nb := *link; nb != nil && c.blockValid(nb) {
		c.stats.Chains++
		return nb
	}
	*link = c.lookup(pc)
	return *link
}

// blockValid reports whether b's decode is still current. The global
// generation is the fast filter: if nothing anywhere has mutated since
// the last validation, no page stamp can have moved and one atomic load
// suffices. Otherwise the block's span is re-checked page by page and,
// on success, the validation point advances — but only when no stamp
// was in flight (mem.Quiescent sampled BEFORE the span check). A span
// check concurrent with a stamp may transiently miss it, which a
// per-visit check absorbs at the next block boundary; a memo must not,
// or the mutation would stay hidden until an unrelated generation
// bump. Mutations starting after the quiescence sample advance the
// global generation past g, so they defeat the g == okGen fast path on
// their own.
func (c *CPU) blockValid(b *block) bool {
	g := c.Mem.Generation()
	if g == b.okGen {
		return true
	}
	quiet := c.Mem.Quiescent()
	if c.Mem.GenerationOf(b.start, int(b.size)) <= b.gen {
		if quiet {
			b.okGen = g
		}
		return true
	}
	return false
}

// lookup returns a valid translated block starting at pc, translating or
// re-translating as needed. It returns nil when the first fetch at pc
// faults or decodes to garbage; the caller takes the Step slow path to
// materialize the exception.
func (c *CPU) lookup(pc uint64) *block {
	if b, ok := c.blocks[pc]; ok {
		if c.blockValid(b) {
			c.stats.Hits++
			return b
		}
		delete(c.blocks, pc)
		c.stats.Flushes++
	}
	c.stats.Misses++
	return c.translate(pc)
}

// translate decodes the basic block starting at pc, compiles its
// instructions into threaded handlers, and caches it.
func (c *CPU) translate(pc uint64) *block {
	// The generation snapshot must precede the byte fetches: see the
	// block.gen comment for the ordering argument.
	b := &block{start: pc, gen: c.Mem.Generation()}
	b.okGen = b.gen
	addr := pc
	for len(b.insts) < maxBlockInsts {
		in, n, fault, err := c.fetch(addr)
		if fault != nil || err != nil {
			// The block ends before the undecodable instruction; if
			// execution falls through to it, the next lookup fails and
			// Step raises the exception.
			break
		}
		addr += uint64(n)
		b.insts = append(b.insts, in)
		b.nexts = append(b.nexts, addr)
		if in.Op.EndsBlock() {
			break
		}
	}
	if len(b.insts) == 0 {
		return nil
	}
	b.size = addr - pc
	// Threaded dispatch: specialize every instruction into its per-op
	// handler closure (after the decode loop, so the insts slice no
	// longer moves).
	b.ops = make([]handler, len(b.insts))
	ipc := pc
	for i := range b.insts {
		b.ops[i] = compile(&b.insts[i], ipc, b.nexts[i])
		ipc = b.nexts[i]
	}
	// Chain metadata: the static successors control can reach when the
	// whole block retires. Returns and indirect transfers have none and
	// go through lookup; stop instructions have no successor at all.
	last := &b.insts[len(b.insts)-1]
	b.lastSetsPC = last.Op.IsControlTransfer()
	switch {
	case !last.Op.EndsBlock():
		// Cut at the decode cap (or before an undecodable
		// instruction): control always falls through.
		b.hasFall, b.fallPC = true, addr
	case last.Op.IsDirectBranch():
		b.hasTaken, b.takenPC = true, addr+uint64(last.Imm)
		if last.Op.IsCondBranch() {
			b.hasFall, b.fallPC = true, addr
		}
	}
	if len(c.blocks) >= maxBlocks {
		// Sever every chain pointer and trace along with the map: a
		// discarded cluster that stayed generation-valid could otherwise
		// keep executing (and keep itself alive) through its own links,
		// defeating the memory bound this flush exists to enforce. Chain
		// links, traces and the map are the only holders of a *block.
		// The block the run loop currently holds relinks through lookup
		// on its next transition.
		for _, ob := range c.blocks {
			ob.fallNext, ob.takenNext, ob.trace = nil, nil, nil
		}
		c.stats.Flushes += uint64(len(c.blocks))
		clear(c.blocks)
	}
	c.blocks[pc] = b
	c.stats.Blocks++
	return b
}

// Run executes instructions until a trap, halt, eexit, exception, or until
// maxCycles more instructions have retired (0 means no budget). It returns
// the reason for stopping. After StopTrap the PC addresses the instruction
// after the trap, so resuming continues past it.
func (c *CPU) Run(maxCycles uint64) Stop {
	if maxCycles == 0 {
		// No budget is the largest budget: every kernel in the tree runs
		// its harts in bounded slices, so a separate unbudgeted loop ran
		// on no workload (EXPERIMENTS.md, "One dispatch loop").
		maxCycles = math.MaxUint64
	}
	st := c.run(maxCycles)
	c.publishStats()
	return st
}

// run is the cached execution loop — the only one: threaded dispatch
// inside blocks, chained transitions between them, superblocks where a
// chain ran hot. The block-execution loop is inlined here (rather than
// a runBlock helper) because its per-block overhead is on the critical
// path of every hot loop.
//
// PC and Cycles are dead state inside a block: handlers only write PC
// when they transfer control or stop (see compile.go), so the loop
// batches the cycle count and materializes the fall-through PC at block
// exit — architectural state is exact at every point a caller can
// observe it.
func (c *CPU) run(budget uint64) Stop {
	var b *block
	if c.takePreempt() {
		return Stop{Reason: StopPreempt, PC: c.PC}
	}
	for budget > 0 {
		if b == nil {
			if c.takePreempt() {
				return Stop{Reason: StopPreempt, PC: c.PC}
			}
			b = c.lookup(c.PC)
			if b == nil {
				budget--
				if stop, done := c.Step(); done {
					return stop
				}
				continue
			}
		}
		// Trace tier: a promoted block enters its superblock — but only
		// when it fits the remaining budget whole, so a clipped prefix
		// always runs at the block tier and Run(maxCycles) semantics stay
		// exact. The fast validity check is one atomic load (the okGen
		// memo); the slow path polls preemption BEFORE revalidating,
		// because revalidation advances the memo and would otherwise
		// absorb the generation bump that RequestPreempt relies on to get
		// the hart off its fast paths. The retired count is taken as the
		// Cycles delta (a side exit retires only a prefix of the slots).
		if t := b.trace; t != nil && t.ninsts <= budget {
			if c.Mem.Generation() != t.okGen {
				if c.takePreempt() {
					return Stop{Reason: StopPreempt, PC: c.PC}
				}
				if !c.traceValid(t) {
					// Some page under the trace moved; b itself may be
					// stale too, so relink through the map.
					c.severTrace(b)
					b = nil
					continue
				}
			}
			c.stats.TraceHits++
			c0 := c.Cycles
			if st, done := c.runTrace(t); done {
				return st
			}
			budget -= c.Cycles - c0
			pc := c.PC
			if pc == t.anchor {
				// Hot self-loop: re-enter through the fast check with no
				// map traffic (the loop head re-checks the budget). A
				// pending preemption bumped the generation, so it cannot
				// spin here.
				continue
			}
			if budget == 0 {
				break
			}
			if c.takePreempt() {
				return Stop{Reason: StopPreempt, PC: pc}
			}
			b = c.traceExit(t, pc)
			if b == nil {
				budget--
				if stop, done := c.Step(); done {
					return stop
				}
			}
			continue
		} else if b.trace == nil {
			if b.heat++; b.heat == traceHotThreshold && c.promote(b) {
				continue
			}
		}
		// Execute the block, clipped to the remaining budget. Only the
		// final instruction of a block can redirect control, so a
		// clipped prefix always falls through and leaves PC at the next
		// unexecuted instruction — Run(maxCycles) semantics are exact.
		n := len(b.insts)
		clipped := uint64(n) > budget
		if clipped {
			n = int(budget)
		}
		ops := b.ops[:n]
		for i := 0; i < len(ops); i++ {
			if ops[i](c) {
				// The stopping instruction retired (Step counts it
				// too), and its handler restored PC.
				c.Cycles += uint64(i + 1)
				c.stats.Threaded += uint64(i + 1)
				return c.stop
			}
		}
		c.Cycles += uint64(n)
		c.stats.Threaded += uint64(n)
		budget -= uint64(n)
		if clipped || !b.lastSetsPC {
			// A clipped prefix, or a block ending in a plain
			// instruction, falls through to the next unexecuted
			// address.
			c.PC = b.nexts[n-1]
		}
		if clipped {
			break
		}
		if budget == 0 {
			// Exactly exhausted at a block boundary: don't validate,
			// translate, or count a transition that will not execute.
			break
		}
		// Block chaining: the inline check covers the hot case (linked
		// successor, no mutation anywhere since its last validation —
		// one atomic load); chainVia holds the shared validate-or-
		// relink slow path. Returns and indirect targets take the map. A
		// pending preemption bumps the generation, so it lands in these
		// slow branches — the poll costs the chained fast path nothing.
		pc := c.PC
		switch {
		case b.hasTaken && pc == b.takenPC:
			if nb := b.takenNext; nb != nil && c.Mem.Generation() == nb.okGen {
				c.stats.Chains++
				b = nb
				continue
			}
			if c.takePreempt() {
				return Stop{Reason: StopPreempt, PC: pc}
			}
			b = c.chainVia(&b.takenNext, pc)
		case b.hasFall && pc == b.fallPC:
			if nb := b.fallNext; nb != nil && c.Mem.Generation() == nb.okGen {
				c.stats.Chains++
				b = nb
				continue
			}
			if c.takePreempt() {
				return Stop{Reason: StopPreempt, PC: pc}
			}
			b = c.chainVia(&b.fallNext, pc)
		default:
			if c.takePreempt() {
				return Stop{Reason: StopPreempt, PC: pc}
			}
			b = c.lookup(pc)
		}
		if b == nil && budget > 0 {
			budget--
			if stop, done := c.Step(); done {
				return stop
			}
		}
	}
	return Stop{Reason: StopCycles, PC: c.PC}
}

// Step executes a single instruction at PC, bypassing the translation
// cache: the precise slow path used by Run to materialize fetch faults
// and kept as the single-instruction API for the verifier and tests.
// done is false when execution should simply continue with the next
// instruction.
func (c *CPU) Step() (Stop, bool) {
	pc := c.PC
	in, n, fault, err := c.fetch(pc)
	if fault != nil {
		return Stop{Reason: StopException, Exc: ExcPage, Fault: fault, PC: pc}, true
	}
	if err != nil {
		return Stop{Reason: StopException, Exc: ExcInvalid, PC: pc}, true
	}
	c.Cycles++
	if c.exec(&in, pc, pc+uint64(n)) {
		return c.stop, true
	}
	return Stop{}, false
}

// ea computes the effective address of a memory operand given the address
// of the next instruction (for PC-relative operands). An absent base
// contributes zero: the encoding permits index-without-base operands
// (x86 SIB does too), and indexing Regs with RegNone would crash the
// whole process on an operand hostile code can construct (found by the
// randomized differential test).
func (c *CPU) ea(m isa.MemRef, next uint64) uint64 {
	var a uint64
	switch {
	case m.IsPCRel():
		a = next
	case m.Base.Valid():
		a = c.Regs[m.Base]
	}
	if m.HasIndex() {
		a += c.Regs[m.Index] * uint64(m.Scale)
	}
	return a + uint64(int64(m.Disp))
}

// raise stops the hart with exception e at the instruction at pc (f
// carries a page fault's details), restoring PC, which is dead inside a
// block, to that instruction first. Like halted, it fills c.stop and
// reports "stopped", so the hot path never copies a Stop struct for
// instructions that retire normally.
func (c *CPU) raise(e Exception, f *mem.Fault, pc uint64) bool {
	c.PC = pc
	c.stop = Stop{Reason: StopException, Exc: e, Fault: f, PC: pc}
	return true
}

// halted stops the hart for reason (trap, halt, eexit) with PC at next.
func (c *CPU) halted(reason StopReason, next uint64) bool {
	c.PC = next
	c.stop = Stop{Reason: reason, PC: next}
	return true
}

// exec executes one decoded instruction located at pc whose successor is
// next: the definition of every op, and all there is of an op compile
// does not specialize. It reports true when the hart stopped, with the
// reason in c.stop; on fall-through it advances PC to next and reports
// false. It reads PC nowhere and counts no cycle (its callers do), so it
// runs unchanged inside a block.
func (c *CPU) exec(in *isa.Inst, pc, next uint64) bool {
	switch in.Op {
	case isa.OpMovRI:
		c.Regs[in.R1] = uint64(in.Imm)
	case isa.OpMovRR:
		c.Regs[in.R1] = c.Regs[in.R2]
	case isa.OpLoad, isa.OpLoadB:
		size := 8
		if in.Op == isa.OpLoadB {
			size = 1
		}
		v, f := c.Mem.Load(c.ea(in.Mem, next), size)
		if f != nil {
			return c.raise(ExcPage, f, pc)
		}
		c.Regs[in.R1] = v
	case isa.OpStore, isa.OpStoreB:
		size := 8
		if in.Op == isa.OpStoreB {
			size = 1
		}
		if f := c.Mem.Store(c.ea(in.Mem, next), size, c.Regs[in.R1]); f != nil {
			return c.raise(ExcPage, f, pc)
		}
	case isa.OpLea:
		c.Regs[in.R1] = c.ea(in.Mem, next)
	case isa.OpPush:
		if f := c.Mem.Store(c.Regs[isa.SP]-8, 8, c.Regs[in.R1]); f != nil {
			return c.raise(ExcPage, f, pc)
		}
		c.Regs[isa.SP] -= 8
	case isa.OpPushI:
		if f := c.Mem.Store(c.Regs[isa.SP]-8, 8, uint64(in.Imm)); f != nil {
			return c.raise(ExcPage, f, pc)
		}
		c.Regs[isa.SP] -= 8
	case isa.OpPop:
		v, f := c.Mem.Load(c.Regs[isa.SP], 8)
		if f != nil {
			return c.raise(ExcPage, f, pc)
		}
		c.Regs[isa.SP] += 8
		c.Regs[in.R1] = v

	case isa.OpAddRR:
		c.Regs[in.R1] += c.Regs[in.R2]
	case isa.OpSubRR:
		c.Regs[in.R1] -= c.Regs[in.R2]
	case isa.OpMulRR:
		c.Regs[in.R1] *= c.Regs[in.R2]
	case isa.OpDivRR, isa.OpModRR:
		d := int64(c.Regs[in.R2])
		if d == 0 {
			return c.raise(ExcDivide, nil, pc)
		}
		if in.Op == isa.OpDivRR {
			c.Regs[in.R1] = uint64(int64(c.Regs[in.R1]) / d)
		} else {
			c.Regs[in.R1] = uint64(int64(c.Regs[in.R1]) % d)
		}
	case isa.OpAndRR:
		c.Regs[in.R1] &= c.Regs[in.R2]
	case isa.OpOrRR:
		c.Regs[in.R1] |= c.Regs[in.R2]
	case isa.OpXorRR:
		c.Regs[in.R1] ^= c.Regs[in.R2]
	case isa.OpShlRR:
		c.Regs[in.R1] <<= c.Regs[in.R2] & 63
	case isa.OpShrRR:
		c.Regs[in.R1] >>= c.Regs[in.R2] & 63
	case isa.OpCmpRR:
		c.setCmp(c.Regs[in.R1], c.Regs[in.R2])
	case isa.OpTestRR:
		c.setTest(c.Regs[in.R1] & c.Regs[in.R2])

	case isa.OpAddRI, isa.OpSubRI, isa.OpMulRI, isa.OpAndRI, isa.OpOrRI, isa.OpXorRI, isa.OpShlRI, isa.OpShrRI:
		c.Regs[in.R1] = aluRI(in.Op, c.Regs[in.R1], uint64(in.Imm))
	case isa.OpCmpRI:
		c.setCmp(c.Regs[in.R1], uint64(in.Imm))
	case isa.OpNeg:
		c.Regs[in.R1] = -c.Regs[in.R1]
	case isa.OpNot:
		c.Regs[in.R1] = ^c.Regs[in.R1]

	case isa.OpJmp:
		c.PC = next + uint64(in.Imm)
		return false
	case isa.OpJe, isa.OpJne, isa.OpJl, isa.OpJle, isa.OpJg, isa.OpJge, isa.OpJb, isa.OpJae:
		if c.cond(in.Op) {
			c.PC = next + uint64(in.Imm)
			return false
		}
	case isa.OpLoop:
		c.Regs[isa.R1]--
		if c.Regs[isa.R1] != 0 {
			c.PC = next + uint64(in.Imm)
			return false
		}
	case isa.OpCall:
		if f := c.Mem.Store(c.Regs[isa.SP]-8, 8, next); f != nil {
			return c.raise(ExcPage, f, pc)
		}
		c.Regs[isa.SP] -= 8
		c.PC = next + uint64(in.Imm)
		return false
	case isa.OpJmpR:
		c.PC = c.Regs[in.R1]
		return false
	case isa.OpCallR:
		if f := c.Mem.Store(c.Regs[isa.SP]-8, 8, next); f != nil {
			return c.raise(ExcPage, f, pc)
		}
		c.Regs[isa.SP] -= 8
		c.PC = c.Regs[in.R1]
		return false
	case isa.OpJmpM, isa.OpCallM:
		target, f := c.Mem.Load(c.ea(in.Mem, next), 8)
		if f != nil {
			return c.raise(ExcPage, f, pc)
		}
		if in.Op == isa.OpCallM {
			if f := c.Mem.Store(c.Regs[isa.SP]-8, 8, next); f != nil {
				return c.raise(ExcPage, f, pc)
			}
			c.Regs[isa.SP] -= 8
		}
		c.PC = target
		return false
	case isa.OpRet, isa.OpRetI:
		target, f := c.Mem.Load(c.Regs[isa.SP], 8)
		if f != nil {
			return c.raise(ExcPage, f, pc)
		}
		c.Regs[isa.SP] += 8 + uint64(in.Imm)
		c.PC = target
		return false

	case isa.OpBndCL:
		if !c.Bnd.CheckLower(in.Bnd, c.Regs[in.R1]) {
			return c.raise(ExcBound, nil, pc)
		}
	case isa.OpBndCU:
		if !c.Bnd.CheckUpper(in.Bnd, c.Regs[in.R1]) {
			return c.raise(ExcBound, nil, pc)
		}
	case isa.OpBndCLM:
		if !c.Bnd.CheckLower(in.Bnd, c.ea(in.Mem, next)) {
			return c.raise(ExcBound, nil, pc)
		}
	case isa.OpBndCUM:
		if !c.Bnd.CheckUpper(in.Bnd, c.ea(in.Mem, next)) {
			return c.raise(ExcBound, nil, pc)
		}
	case isa.OpBndMk:
		// bndmk: lower = base register, upper = effective address.
		var lo uint64
		if in.Mem.Base.Valid() {
			lo = c.Regs[in.Mem.Base]
		}
		c.Bnd.Set(in.Bnd, mpx.Bound{Lower: lo, Upper: c.ea(in.Mem, next)})
	case isa.OpBndMov:
		c.Bnd.Set(in.Bnd, c.Bnd.Get(in.Bnd2))

	case isa.OpCFILabel, isa.OpNop:
		// no-ops
	case isa.OpHalt:
		return c.halted(StopHalt, next)
	case isa.OpTrap:
		return c.halted(StopTrap, next)
	case isa.OpEExit:
		return c.halted(StopEExit, next)
	case isa.OpEAccept, isa.OpEModPE:
		// SGX 1.0: these SGX 2.0 instructions are undefined.
		return c.raise(ExcInvalid, nil, pc)
	case isa.OpXRstor:
		// Restoring extended state can silently disable MPX: all bound
		// registers become permissive. This is exactly why Stage 2 of
		// the verifier must reject it.
		for b := isa.BndReg(0); b < isa.NumBndRegs; b++ {
			c.Bnd.Set(b, mpx.Bound{Lower: 0, Upper: ^uint64(0)})
		}
	case isa.OpWrFSBase, isa.OpWrGSBase:
		// Segment bases are not modeled; the instructions are rejected
		// by the verifier and behave as no-ops here.
	case isa.OpVScatter:
		// A vector scatter writes multiple non-contiguous locations
		// from one instruction — the reason Stage 4 rejects it.
		a := c.ea(in.Mem, next)
		if f := c.Mem.Store(a, 8, c.Regs[in.R1]); f != nil {
			return c.raise(ExcPage, f, pc)
		}
		if f := c.Mem.Store(a+128, 8, c.Regs[in.R1]); f != nil {
			return c.raise(ExcPage, f, pc)
		}
	default:
		return c.raise(ExcInvalid, nil, pc)
	}

	c.PC = next
	return false
}

// aluRI defines the eight register-immediate ALU ops (addi…shri) for
// exec and the trace tier's fused slots; imm is sign-extended.
func aluRI(op isa.Op, x, imm uint64) uint64 {
	switch op {
	case isa.OpAddRI:
		return x + imm
	case isa.OpSubRI:
		return x - imm
	case isa.OpMulRI:
		return x * imm
	case isa.OpAndRI:
		return x & imm
	case isa.OpOrRI:
		return x | imm
	case isa.OpXorRI:
		return x ^ imm
	case isa.OpShlRI:
		return x << (imm & 63)
	}
	return x >> (imm & 63) // OpShrRI
}

// Packed comparison flags: the bits of CPU.flags.
const (
	flagZF  = 1 << iota // operands equal
	flagLTS             // signed less-than
	flagLTU             // unsigned less-than
)

// bit converts a comparison result to 0 or 1 (compiled branch-free).
func bit(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

// cmpFlags is the flag byte cmp a, b produces.
func cmpFlags(a, b uint64) uint8 {
	return bit(a == b)*flagZF | bit(int64(a) < int64(b))*flagLTS | bit(a < b)*flagLTU
}

func (c *CPU) setCmp(a, b uint64) { c.flags = cmpFlags(a, b) }

func (c *CPU) setTest(v uint64) { c.flags = bit(v == 0)*flagZF | bit(int64(v) < 0)*flagLTS }

// cond evaluates a conditional branch against the flags, deferring to
// the reference definition in isa.Op.EvalCond. The compiled branch
// handlers look the same answer up in a truth table built from that
// definition (takenMask, compile.go).
func (c *CPU) cond(op isa.Op) bool {
	f := c.flags
	return op.EvalCond(f&flagZF != 0, f&flagLTS != 0, f&flagLTU != 0)
}
