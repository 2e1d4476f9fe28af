package vm

// Threaded dispatch: at translate time every decoded instruction becomes
// a handler closure. The ops the workloads dispatch, plus call and ret,
// are specialized with their operands (registers, immediates,
// precomputed branch targets and effective-address shapes) captured, so
// the cached execution path pays one indirect call per instruction
// instead of re-walking the exec switch and re-reading operand fields.
// Every other op gets the exec-backed handler, which runs exec on the
// decoded instruction: an op no workload runs is written once, in exec
// (EXPERIMENTS.md "Specialise only what runs"). The randomized
// differential tests hold the specialized handlers to exec,
// state-for-state.
//
// Conditional branches are not written out per condition. takenMask
// holds one 8-bit truth table per flag branch, computed from
// isa.Op.EvalCond, and every closure that decides a flag branch — the
// plain Jcc handler, and the trace tier's fused final pair and seam
// guards (trace.go) — is the same few lines indexing its table with the
// packed flag byte. TestBranchTablesExhaustive walks all 8 branches × 8
// flag states × both predicted directions.
//
// Inside a block, PC and the cycle counter are dead state: the dispatch
// loop (run, vm.go) batches Cycles and materializes PC only at block
// exit, so plain fall-through handlers touch neither. The invariants
// that make the architectural state exact at every observation point:
//
//   - control-transfer handlers set PC themselves (they are always the
//     last instruction of a block);
//   - stopping handlers restore PC before raising (raise leaves PC at
//     the faulting instruction, halted at its successor);
//   - the dispatch loop adds the retired-instruction count (including
//     a stopping instruction) to Cycles on every exit path.

import (
	"repro/internal/isa"
	"repro/internal/mem"
)

// handler executes one specialized instruction. It reports true when
// the hart stopped (c.stop holds the reason), exactly like exec.
type handler func(c *CPU) bool

// compilerFunc specializes one decoded instruction located at pc with
// successor address next into a handler.
type compilerFunc func(in *isa.Inst, pc, next uint64) handler

// compilers is the handler table, keyed by opcode: an entry for each
// specialized op (TestSpecializedOps pins the set), nil for the rest.
var compilers [isa.NumOps]compilerFunc

// compile specializes in into a handler, or returns the exec-backed
// handler when in.Op has no compiler. That closure captures in and pc
// only, so it stays in the 24-byte class of a two-word capture
// (TestBranchClosureSizes); in points into its block, whose instructions
// never move once decoded.
func compile(in *isa.Inst, pc, next uint64) handler {
	if f := compilers[in.Op]; f != nil {
		return f(in, pc, next)
	}
	return func(c *CPU) bool { return c.exec(in, pc, pc+uint64(in.Len())) }
}

// takenMask[op] is the truth table of flag branch op: bit f is set iff
// the branch is taken under packed flags f (flagZF | flagLTS | flagLTU).
// The complement is the table of the opposite prediction. Zero for ops
// that read no flags.
var takenMask [isa.NumOps]uint8

func init() {
	for op := range takenMask {
		if !isa.Op(op).ReadsFlags() {
			continue
		}
		for f := uint8(0); f < 8; f++ {
			if isa.Op(op).EvalCond(f&flagZF != 0, f&flagLTS != 0, f&flagLTU != 0) {
				takenMask[op] |= 1 << f
			}
		}
	}
}

// holds looks packed flags f up in truth table mask. Written as a bit
// test so that it compiles to one BT instruction; f never exceeds 7,
// and a wider value would read a zero bit: not taken.
func holds(mask, f uint8) bool { return uint32(mask)&(1<<(f&31)) != 0 }

// decide computes the flag byte of cmp a, b and looks it up in mask: the
// body of every fused compare+branch. (mask comes first so that a
// closure captures it beside its one-byte register indices, not in a
// padded word of its own after an 8-byte immediate.)
func decide(mask uint8, a, b uint64) (f uint8, ok bool) {
	f = cmpFlags(a, b)
	return f, holds(mask, f)
}

// flagBranch compiles a flag branch: taken iff its table holds over the
// current flags. The operands are captured as one 16-byte struct, with
// the rel32 displacement kept as encoded rather than folded into a
// second 8-byte target, so the closure stays in the 24-byte allocation
// class of the two-word capture it replaces. Every translated Jcc gets
// one, and alloc_kib_per_op is an exact count: at 32 bytes fish read
// +0.03%, every run.
func flagBranch(in *isa.Inst, pc, next uint64) handler {
	b := struct {
		next uint64
		rel  int32
		mask uint8
	}{next, int32(in.Imm), takenMask[in.Op]}
	return func(c *CPU) bool {
		if holds(b.mask, c.flags) {
			c.PC = b.next + uint64(int64(b.rel))
		} else {
			c.PC = b.next
		}
		return false
	}
}

// fuseCmpBranch macro-fuses a cmp-immediate + conditional-branch pair —
// the final pair of most loop traces — into one handler: one dispatch
// instead of two, with the branch decided on the just-computed flag byte
// instead of a round trip through the stored flags. The flags are still
// set (they are architectural state), and both instructions are
// stop-free, so fusing them moves no stop point. Returns nil when the
// pair has no fused form (a cmp of two registers runs on no workload, so
// it stays unfused). Checked against the unfused handler pair over an
// operand grid by TestFusedCmpBranchMatchesUnfused.
//
// noinline: with one closure it fits the inliner's budget, and the copy
// of the closure compiled into buildTrace calls decide instead of
// inlining it (hotloop with traces: 1.32 → 1.62 ns/inst).
//
//go:noinline
func fuseCmpBranch(cmp, br *isa.Inst, brNext uint64) handler {
	if !br.Op.ReadsFlags() || cmp.Op != isa.OpCmpRI {
		return nil
	}
	mask, r1, v := takenMask[br.Op], cmp.R1&15, uint64(cmp.Imm)
	target, next := brNext+uint64(br.Imm), brNext
	return func(c *CPU) bool {
		f, taken := decide(mask, c.Regs[r1], v)
		c.flags = f
		if taken {
			c.PC = target
		} else {
			c.PC = next
		}
		return false
	}
}

// Memory handlers pick a sized mem.Paged entry (Load8, Load1, Store8,
// Store1) at translate time; the loads inline, so a hit costs its checks
// and no call. When the entry declines (cross-page, unmapped, permission,
// a page's first store, an executable page) they fall through to the
// general Load and Store, which exec always uses.

// loadSlow finishes a plain load whose sized entry declined.
func (c *CPU) loadSlow(r isa.Reg, a uint64, size int, pc uint64) bool {
	v, f := c.Mem.Load(a, size)
	if f != nil {
		return c.raise(ExcPage, f, pc)
	}
	c.Regs[r] = v
	return false
}

// storeSlow finishes a store whose sized entry declined: true if stopped.
func (c *CPU) storeSlow(a uint64, size int, v, pc uint64) bool {
	if f := c.Mem.Store(a, size, v); f != nil {
		return c.raise(ExcPage, f, pc)
	}
	return false
}

// baseDisp splits the hot operand shape [base+disp], whose handlers
// skip even the ea closure.
func baseDisp(m isa.MemRef) (base isa.Reg, d uint64, hot bool) {
	return m.Base & 15, uint64(int64(m.Disp)), !m.HasIndex() && !m.IsAbs() && !m.IsPCRel()
}

// compileEA specializes effective-address computation for the
// memory-operand shapes of Figure 4: absolute and PC-relative operands
// fold to constants at translate time, the common base+disp form reads
// one register, and indexed forms fall back to the general ea.
func compileEA(m isa.MemRef, next uint64) func(c *CPU) uint64 {
	if !m.HasIndex() {
		switch {
		case m.IsAbs():
			a := uint64(int64(m.Disp))
			return func(*CPU) uint64 { return a }
		case m.IsPCRel():
			a := next + uint64(int64(m.Disp))
			return func(*CPU) uint64 { return a }
		default:
			base, d := m.Base&15, uint64(int64(m.Disp))
			return func(c *CPU) uint64 { return c.Regs[base] + d }
		}
	}
	mm := m
	return func(c *CPU) uint64 { return c.ea(mm, next) }
}

// compileRet compiles ret/reti: it transfers to whatever address it
// popped, faults and all. A trace ends at a ret; the return site is
// reached through the cache map.
func compileRet(in *isa.Inst, pc, next uint64) handler {
	pop := 8 + uint64(in.Imm)
	return func(c *CPU) bool {
		target, ok := c.Mem.Load8(c.Regs[isa.SP])
		if !ok {
			var f *mem.Fault
			if target, f = c.Mem.Load(c.Regs[isa.SP], 8); f != nil {
				return c.raise(ExcPage, f, pc)
			}
		}
		c.Regs[isa.SP] += pop
		c.PC = target
		return false
	}
}

func init() {
	compilers[isa.OpMovRI] = func(in *isa.Inst, pc, next uint64) handler {
		r1, v := in.R1&15, uint64(in.Imm)
		return func(c *CPU) bool { c.Regs[r1] = v; return false }
	}
	compilers[isa.OpMovRR] = func(in *isa.Inst, pc, next uint64) handler {
		r1, r2 := in.R1&15, in.R2&15
		return func(c *CPU) bool { c.Regs[r1] = c.Regs[r2]; return false }
	}

	compilers[isa.OpLoad] = func(in *isa.Inst, pc, next uint64) handler {
		r1 := in.R1 & 15
		if base, d, hot := baseDisp(in.Mem); hot {
			return func(c *CPU) bool {
				a := c.Regs[base] + d
				if v, ok := c.Mem.Load8(a); ok {
					c.Regs[r1] = v
					return false
				}
				return c.loadSlow(r1, a, 8, pc)
			}
		}
		ea := compileEA(in.Mem, next)
		return func(c *CPU) bool {
			a := ea(c)
			if v, ok := c.Mem.Load8(a); ok {
				c.Regs[r1] = v
				return false
			}
			return c.loadSlow(r1, a, 8, pc)
		}
	}
	compilers[isa.OpLoadB] = func(in *isa.Inst, pc, next uint64) handler {
		r1 := in.R1 & 15
		if base, d, hot := baseDisp(in.Mem); hot {
			return func(c *CPU) bool {
				a := c.Regs[base] + d
				if v, ok := c.Mem.Load1(a); ok {
					c.Regs[r1] = v
					return false
				}
				return c.loadSlow(r1, a, 1, pc)
			}
		}
		ea := compileEA(in.Mem, next)
		return func(c *CPU) bool {
			a := ea(c)
			if v, ok := c.Mem.Load1(a); ok {
				c.Regs[r1] = v
				return false
			}
			return c.loadSlow(r1, a, 1, pc)
		}
	}
	compilers[isa.OpStore] = func(in *isa.Inst, pc, next uint64) handler {
		r1 := in.R1 & 15
		if base, d, hot := baseDisp(in.Mem); hot {
			return func(c *CPU) bool {
				a, v := c.Regs[base]+d, c.Regs[r1]
				return !c.Mem.Store8(a, v) && c.storeSlow(a, 8, v, pc)
			}
		}
		ea := compileEA(in.Mem, next)
		return func(c *CPU) bool {
			a, v := ea(c), c.Regs[r1]
			return !c.Mem.Store8(a, v) && c.storeSlow(a, 8, v, pc)
		}
	}
	compilers[isa.OpStoreB] = func(in *isa.Inst, pc, next uint64) handler {
		r1 := in.R1 & 15
		if base, d, hot := baseDisp(in.Mem); hot {
			return func(c *CPU) bool {
				a, v := c.Regs[base]+d, c.Regs[r1]
				return !c.Mem.Store1(a, v) && c.storeSlow(a, 1, v, pc)
			}
		}
		ea := compileEA(in.Mem, next)
		return func(c *CPU) bool {
			a, v := ea(c), c.Regs[r1]
			return !c.Mem.Store1(a, v) && c.storeSlow(a, 1, v, pc)
		}
	}

	compilers[isa.OpLea] = func(in *isa.Inst, pc, next uint64) handler {
		r1, ea := in.R1&15, compileEA(in.Mem, next)
		return func(c *CPU) bool { c.Regs[r1] = ea(c); return false }
	}
	compilers[isa.OpPush] = func(in *isa.Inst, pc, next uint64) handler {
		r1 := in.R1 & 15
		return func(c *CPU) bool {
			a, v := c.Regs[isa.SP]-8, c.Regs[r1]
			if !c.Mem.Store8(a, v) && c.storeSlow(a, 8, v, pc) {
				return true
			}
			c.Regs[isa.SP] = a
			return false
		}
	}
	compilers[isa.OpPop] = func(in *isa.Inst, pc, next uint64) handler {
		r1 := in.R1 & 15
		return func(c *CPU) bool {
			v, ok := c.Mem.Load8(c.Regs[isa.SP])
			if !ok {
				var f *mem.Fault
				if v, f = c.Mem.Load(c.Regs[isa.SP], 8); f != nil {
					return c.raise(ExcPage, f, pc)
				}
			}
			c.Regs[isa.SP] += 8
			c.Regs[r1] = v
			return false
		}
	}

	compilers[isa.OpAddRR] = func(in *isa.Inst, pc, next uint64) handler {
		r1, r2 := in.R1&15, in.R2&15
		return func(c *CPU) bool { c.Regs[r1] += c.Regs[r2]; return false }
	}

	// ALU register-immediate forms, one closure per op: the aluRI route
	// measured slower (EXPERIMENTS.md "One dispatch per read-modify-write").
	ri := func(in *isa.Inst) (isa.Reg, uint64) { return in.R1 & 15, uint64(in.Imm) }
	compilers[isa.OpAddRI] = func(in *isa.Inst, pc, next uint64) handler {
		r1, v := ri(in)
		return func(c *CPU) bool { c.Regs[r1] += v; return false }
	}
	compilers[isa.OpSubRI] = func(in *isa.Inst, pc, next uint64) handler {
		r1, v := ri(in)
		return func(c *CPU) bool { c.Regs[r1] -= v; return false }
	}
	compilers[isa.OpMulRI] = func(in *isa.Inst, pc, next uint64) handler {
		r1, v := ri(in)
		return func(c *CPU) bool { c.Regs[r1] *= v; return false }
	}
	compilers[isa.OpXorRI] = func(in *isa.Inst, pc, next uint64) handler {
		r1, v := ri(in)
		return func(c *CPU) bool { c.Regs[r1] ^= v; return false }
	}
	compilers[isa.OpShlRI] = func(in *isa.Inst, pc, next uint64) handler {
		r1, v := ri(in)
		s := v & 63
		return func(c *CPU) bool { c.Regs[r1] <<= s; return false }
	}
	compilers[isa.OpCmpRI] = func(in *isa.Inst, pc, next uint64) handler {
		r1, v := ri(in)
		return func(c *CPU) bool { c.setCmp(c.Regs[r1], v); return false }
	}

	// Direct branches: the target folds to a constant at translate
	// time; the eight flag branches share flagBranch.
	compilers[isa.OpJmp] = func(in *isa.Inst, pc, next uint64) handler {
		target := next + uint64(in.Imm)
		return func(c *CPU) bool { c.PC = target; return false }
	}
	for op := range takenMask {
		if isa.Op(op).ReadsFlags() {
			compilers[op] = flagBranch
		}
	}
	compilers[isa.OpCall] = func(in *isa.Inst, pc, next uint64) handler {
		target := next + uint64(in.Imm)
		return func(c *CPU) bool {
			a := c.Regs[isa.SP] - 8
			if !c.Mem.Store8(a, next) && c.storeSlow(a, 8, next, pc) {
				return true
			}
			c.Regs[isa.SP] = a
			c.PC = target
			return false
		}
	}
	compilers[isa.OpCallR] = func(in *isa.Inst, pc, next uint64) handler {
		r1 := in.R1 & 15
		return func(c *CPU) bool {
			a := c.Regs[isa.SP] - 8
			if !c.Mem.Store8(a, next) && c.storeSlow(a, 8, next, pc) {
				return true
			}
			c.Regs[isa.SP] = a
			c.PC = c.Regs[r1]
			return false
		}
	}
	compilers[isa.OpRet] = compileRet
	compilers[isa.OpRetI] = compileRet

	compilers[isa.OpBndCL] = func(in *isa.Inst, pc, next uint64) handler {
		bnd, r1 := in.Bnd, in.R1&15
		return func(c *CPU) bool {
			if !c.Bnd.CheckLower(bnd, c.Regs[r1]) {
				return c.raise(ExcBound, nil, pc)
			}
			return false
		}
	}
	compilers[isa.OpBndCU] = func(in *isa.Inst, pc, next uint64) handler {
		bnd, r1 := in.Bnd, in.R1&15
		return func(c *CPU) bool {
			if !c.Bnd.CheckUpper(bnd, c.Regs[r1]) {
				return c.raise(ExcBound, nil, pc)
			}
			return false
		}
	}
	compilers[isa.OpBndCLM] = func(in *isa.Inst, pc, next uint64) handler {
		bnd := in.Bnd
		if base, d, hot := baseDisp(in.Mem); hot {
			return func(c *CPU) bool { return !c.Bnd.CheckLower(bnd, c.Regs[base]+d) && c.raise(ExcBound, nil, pc) }
		}
		ea := compileEA(in.Mem, next)
		return func(c *CPU) bool { return !c.Bnd.CheckLower(bnd, ea(c)) && c.raise(ExcBound, nil, pc) }
	}
	compilers[isa.OpBndCUM] = func(in *isa.Inst, pc, next uint64) handler {
		bnd := in.Bnd
		if base, d, hot := baseDisp(in.Mem); hot {
			return func(c *CPU) bool { return !c.Bnd.CheckUpper(bnd, c.Regs[base]+d) && c.raise(ExcBound, nil, pc) }
		}
		ea := compileEA(in.Mem, next)
		return func(c *CPU) bool { return !c.Bnd.CheckUpper(bnd, ea(c)) && c.raise(ExcBound, nil, pc) }
	}

	nop := func(in *isa.Inst, pc, next uint64) handler {
		return func(c *CPU) bool { return false }
	}
	compilers[isa.OpCFILabel] = nop
	compilers[isa.OpNop] = nop
	compilers[isa.OpTrap] = func(in *isa.Inst, pc, next uint64) handler {
		return func(c *CPU) bool { return c.halted(StopTrap, next) }
	}
}
