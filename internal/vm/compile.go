package vm

// Threaded dispatch: at translate time every decoded instruction is
// specialized into a handler closure with its operands (registers,
// immediates, precomputed branch targets and effective-address shapes)
// captured, so the cached execution path pays one indirect call per
// instruction instead of re-walking the ~60-case exec switch and
// re-reading operand fields. Step keeps the switch as the bit-exact
// reference; the randomized differential tests hold the two to
// state-for-state equality.
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
//   - stopping handlers restore PC before raising (pageFaultPC etc.
//     leave PC at the faulting instruction, halted at its successor,
//     matching exec);
//   - the dispatch loop adds the retired-instruction count (including
//     a stopping instruction) to Cycles on every exit path.

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/mpx"
)

// handler executes one specialized instruction. It reports true when
// the hart stopped (c.stop holds the reason), exactly like exec.
type handler func(c *CPU) bool

// compilerFunc specializes one decoded instruction located at pc with
// successor address next into a handler.
type compilerFunc func(in *isa.Inst, pc, next uint64) handler

// compilers is the handler table, keyed by opcode. It is total over
// valid opcodes (enforced by TestCompilersCoverOpSpace); translate only
// sees instructions that already decoded, so a nil entry is a
// programming error, not a runtime condition.
var compilers [isa.NumOps]compilerFunc

// compile specializes in into a handler.
func compile(in *isa.Inst, pc, next uint64) handler {
	f := compilers[in.Op]
	if f == nil {
		panic(fmt.Sprintf("vm: opcode %v has no handler compiler", in.Op))
	}
	return f(in, pc, next)
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

// fuseCmpBranch macro-fuses a compare + conditional-branch pair — the
// final pair of most loop traces — into one handler: one dispatch
// instead of two, with the branch decided on the just-computed flag
// byte instead of a round trip through the stored flags. The flags are
// still set (they are architectural state), and both instructions are
// stop-free, so fusing them moves no stop point. Returns nil when the
// pair has no fused form. Checked against the unfused handler pair over
// an operand grid by TestFusedCmpBranchMatchesUnfused.
func fuseCmpBranch(cmp, br *isa.Inst, brNext uint64) handler {
	if !br.Op.ReadsFlags() {
		return nil
	}
	mask, r1 := takenMask[br.Op], cmp.R1&15
	target, next := brNext+uint64(br.Imm), brNext
	switch cmp.Op {
	case isa.OpCmpRI:
		v := uint64(cmp.Imm)
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
	case isa.OpCmpRR:
		r2 := cmp.R2 & 15
		return func(c *CPU) bool {
			f, taken := decide(mask, c.Regs[r1], c.Regs[r2])
			c.flags = f
			if taken {
				c.PC = target
			} else {
				c.PC = next
			}
			return false
		}
	}
	return nil
}

// Stop raisers for compiled handlers: like the exec raisers, but they
// also restore PC (dead inside a block) to its architecturally exact
// value first.

func (c *CPU) pageFaultPC(f *mem.Fault, pc uint64) bool {
	c.PC = pc
	return c.pageFault(f, pc)
}

func (c *CPU) boundFaultPC(pc uint64) bool {
	c.PC = pc
	return c.boundFault(pc)
}

func (c *CPU) invalidPC(pc uint64) bool {
	c.PC = pc
	return c.invalid(pc)
}

func (c *CPU) divideFaultPC(pc uint64) bool {
	c.PC = pc
	c.stop = Stop{Reason: StopException, Exc: ExcDivide, PC: pc}
	return true
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
		return c.pageFaultPC(f, pc)
	}
	c.Regs[r] = v
	return false
}

// storeSlow finishes a store whose sized entry declined: true if stopped.
func (c *CPU) storeSlow(a uint64, size int, v, pc uint64) bool {
	if f := c.Mem.Store(a, size, v); f != nil {
		return c.pageFaultPC(f, pc)
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

// compileRet compiles ret/reti. At the block tier (predicted 0: no
// return site is address 0, it follows a call) it transfers to whatever
// address it popped. As a trace seam whose matching call is earlier in
// the same trace, the popped address is checked against the statically
// predicted return site: a match continues straight into the return-site
// slots (the PC write is dead there), anything else — a mismatched call
// stack — side-exits to wherever the return really went. The load is
// architectural, faults and all, and SP is popped either way: the ret
// retired.
func compileRet(in *isa.Inst, pc, predicted uint64) handler {
	pop := 8 + uint64(in.Imm)
	return func(c *CPU) bool {
		target, ok := c.Mem.Load8(c.Regs[isa.SP])
		if !ok {
			var f *mem.Fault
			if target, f = c.Mem.Load(c.Regs[isa.SP], 8); f != nil {
				return c.pageFaultPC(f, pc)
			}
		}
		c.Regs[isa.SP] += pop
		c.PC = target
		if predicted == 0 || target == predicted {
			return false
		}
		return c.sideExit(target)
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
	compilers[isa.OpPushI] = func(in *isa.Inst, pc, next uint64) handler {
		v := uint64(in.Imm)
		return func(c *CPU) bool {
			a := c.Regs[isa.SP] - 8
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
					return c.pageFaultPC(f, pc)
				}
			}
			c.Regs[isa.SP] += 8
			c.Regs[r1] = v
			return false
		}
	}

	// ALU register-register forms, written out per op: one closure, no
	// inner operator call.
	rr := func(in *isa.Inst) (isa.Reg, isa.Reg) { return in.R1 & 15, in.R2 & 15 }
	compilers[isa.OpAddRR] = func(in *isa.Inst, pc, next uint64) handler {
		r1, r2 := rr(in)
		return func(c *CPU) bool { c.Regs[r1] += c.Regs[r2]; return false }
	}
	compilers[isa.OpSubRR] = func(in *isa.Inst, pc, next uint64) handler {
		r1, r2 := rr(in)
		return func(c *CPU) bool { c.Regs[r1] -= c.Regs[r2]; return false }
	}
	compilers[isa.OpMulRR] = func(in *isa.Inst, pc, next uint64) handler {
		r1, r2 := rr(in)
		return func(c *CPU) bool { c.Regs[r1] *= c.Regs[r2]; return false }
	}
	compilers[isa.OpAndRR] = func(in *isa.Inst, pc, next uint64) handler {
		r1, r2 := rr(in)
		return func(c *CPU) bool { c.Regs[r1] &= c.Regs[r2]; return false }
	}
	compilers[isa.OpOrRR] = func(in *isa.Inst, pc, next uint64) handler {
		r1, r2 := rr(in)
		return func(c *CPU) bool { c.Regs[r1] |= c.Regs[r2]; return false }
	}
	compilers[isa.OpXorRR] = func(in *isa.Inst, pc, next uint64) handler {
		r1, r2 := rr(in)
		return func(c *CPU) bool { c.Regs[r1] ^= c.Regs[r2]; return false }
	}
	compilers[isa.OpShlRR] = func(in *isa.Inst, pc, next uint64) handler {
		r1, r2 := rr(in)
		return func(c *CPU) bool { c.Regs[r1] <<= c.Regs[r2] & 63; return false }
	}
	compilers[isa.OpShrRR] = func(in *isa.Inst, pc, next uint64) handler {
		r1, r2 := rr(in)
		return func(c *CPU) bool { c.Regs[r1] >>= c.Regs[r2] & 63; return false }
	}

	divMod := func(div bool) compilerFunc {
		return func(in *isa.Inst, pc, next uint64) handler {
			r1, r2 := in.R1&15, in.R2&15
			return func(c *CPU) bool {
				d := int64(c.Regs[r2])
				if d == 0 {
					return c.divideFaultPC(pc)
				}
				if div {
					c.Regs[r1] = uint64(int64(c.Regs[r1]) / d)
				} else {
					c.Regs[r1] = uint64(int64(c.Regs[r1]) % d)
				}
				return false
			}
		}
	}
	compilers[isa.OpDivRR] = divMod(true)
	compilers[isa.OpModRR] = divMod(false)

	compilers[isa.OpCmpRR] = func(in *isa.Inst, pc, next uint64) handler {
		r1, r2 := rr(in)
		return func(c *CPU) bool { c.setCmp(c.Regs[r1], c.Regs[r2]); return false }
	}
	compilers[isa.OpTestRR] = func(in *isa.Inst, pc, next uint64) handler {
		r1, r2 := rr(in)
		return func(c *CPU) bool { c.setTest(c.Regs[r1] & c.Regs[r2]); return false }
	}

	// ALU register-immediate forms.
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
	compilers[isa.OpAndRI] = func(in *isa.Inst, pc, next uint64) handler {
		r1, v := ri(in)
		return func(c *CPU) bool { c.Regs[r1] &= v; return false }
	}
	compilers[isa.OpOrRI] = func(in *isa.Inst, pc, next uint64) handler {
		r1, v := ri(in)
		return func(c *CPU) bool { c.Regs[r1] |= v; return false }
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
	compilers[isa.OpShrRI] = func(in *isa.Inst, pc, next uint64) handler {
		r1, v := ri(in)
		s := v & 63
		return func(c *CPU) bool { c.Regs[r1] >>= s; return false }
	}
	compilers[isa.OpCmpRI] = func(in *isa.Inst, pc, next uint64) handler {
		r1, v := ri(in)
		return func(c *CPU) bool { c.setCmp(c.Regs[r1], v); return false }
	}
	compilers[isa.OpNeg] = func(in *isa.Inst, pc, next uint64) handler {
		r1 := in.R1 & 15
		return func(c *CPU) bool { c.Regs[r1] = -c.Regs[r1]; return false }
	}
	compilers[isa.OpNot] = func(in *isa.Inst, pc, next uint64) handler {
		r1 := in.R1 & 15
		return func(c *CPU) bool { c.Regs[r1] = ^c.Regs[r1]; return false }
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
	compilers[isa.OpLoop] = func(in *isa.Inst, pc, next uint64) handler {
		target := next + uint64(in.Imm)
		return func(c *CPU) bool {
			c.Regs[isa.R1]--
			if c.Regs[isa.R1] != 0 {
				c.PC = target
			} else {
				c.PC = next
			}
			return false
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
	compilers[isa.OpJmpR] = func(in *isa.Inst, pc, next uint64) handler {
		r1 := in.R1 & 15
		return func(c *CPU) bool { c.PC = c.Regs[r1]; return false }
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
	jmpCallM := func(call bool) compilerFunc {
		return func(in *isa.Inst, pc, next uint64) handler {
			ea := compileEA(in.Mem, next)
			return func(c *CPU) bool {
				a := ea(c)
				target, ok := c.Mem.Load8(a)
				if !ok {
					var f *mem.Fault
					if target, f = c.Mem.Load(a, 8); f != nil {
						return c.pageFaultPC(f, pc)
					}
				}
				if call {
					a = c.Regs[isa.SP] - 8
					if !c.Mem.Store8(a, next) && c.storeSlow(a, 8, next, pc) {
						return true
					}
					c.Regs[isa.SP] = a
				}
				c.PC = target
				return false
			}
		}
	}
	compilers[isa.OpJmpM] = jmpCallM(false)
	compilers[isa.OpCallM] = jmpCallM(true)

	ret := func(in *isa.Inst, pc, next uint64) handler { return compileRet(in, pc, 0) }
	compilers[isa.OpRet] = ret
	compilers[isa.OpRetI] = ret

	compilers[isa.OpBndCL] = func(in *isa.Inst, pc, next uint64) handler {
		bnd, r1 := in.Bnd, in.R1&15
		return func(c *CPU) bool {
			if !c.Bnd.CheckLower(bnd, c.Regs[r1]) {
				return c.boundFaultPC(pc)
			}
			return false
		}
	}
	compilers[isa.OpBndCU] = func(in *isa.Inst, pc, next uint64) handler {
		bnd, r1 := in.Bnd, in.R1&15
		return func(c *CPU) bool {
			if !c.Bnd.CheckUpper(bnd, c.Regs[r1]) {
				return c.boundFaultPC(pc)
			}
			return false
		}
	}
	compilers[isa.OpBndCLM] = func(in *isa.Inst, pc, next uint64) handler {
		bnd := in.Bnd
		if base, d, hot := baseDisp(in.Mem); hot {
			return func(c *CPU) bool { return !c.Bnd.CheckLower(bnd, c.Regs[base]+d) && c.boundFaultPC(pc) }
		}
		ea := compileEA(in.Mem, next)
		return func(c *CPU) bool { return !c.Bnd.CheckLower(bnd, ea(c)) && c.boundFaultPC(pc) }
	}
	compilers[isa.OpBndCUM] = func(in *isa.Inst, pc, next uint64) handler {
		bnd := in.Bnd
		if base, d, hot := baseDisp(in.Mem); hot {
			return func(c *CPU) bool { return !c.Bnd.CheckUpper(bnd, c.Regs[base]+d) && c.boundFaultPC(pc) }
		}
		ea := compileEA(in.Mem, next)
		return func(c *CPU) bool { return !c.Bnd.CheckUpper(bnd, ea(c)) && c.boundFaultPC(pc) }
	}
	compilers[isa.OpBndMk] = func(in *isa.Inst, pc, next uint64) handler {
		bnd, ea := in.Bnd, compileEA(in.Mem, next)
		base, hasBase := in.Mem.Base, in.Mem.Base.Valid()
		return func(c *CPU) bool {
			var lo uint64
			if hasBase {
				lo = c.Regs[base]
			}
			c.Bnd.Set(bnd, mpx.Bound{Lower: lo, Upper: ea(c)})
			return false
		}
	}
	compilers[isa.OpBndMov] = func(in *isa.Inst, pc, next uint64) handler {
		bnd, bnd2 := in.Bnd, in.Bnd2
		return func(c *CPU) bool {
			c.Bnd.Set(bnd, c.Bnd.Get(bnd2))
			return false
		}
	}

	nop := func(in *isa.Inst, pc, next uint64) handler {
		return func(c *CPU) bool { return false }
	}
	compilers[isa.OpCFILabel] = nop
	compilers[isa.OpNop] = nop

	halted := func(reason StopReason) compilerFunc {
		return func(in *isa.Inst, pc, next uint64) handler {
			return func(c *CPU) bool { return c.halted(reason, next) }
		}
	}
	compilers[isa.OpHalt] = halted(StopHalt)
	compilers[isa.OpTrap] = halted(StopTrap)
	compilers[isa.OpEExit] = halted(StopEExit)

	invalid := func(in *isa.Inst, pc, next uint64) handler {
		return func(c *CPU) bool { return c.invalidPC(pc) }
	}
	compilers[isa.OpEAccept] = invalid
	compilers[isa.OpEModPE] = invalid

	compilers[isa.OpXRstor] = func(in *isa.Inst, pc, next uint64) handler {
		return func(c *CPU) bool {
			for b := isa.BndReg(0); b < isa.NumBndRegs; b++ {
				c.Bnd.Set(b, mpx.Bound{Lower: 0, Upper: ^uint64(0)})
			}
			return false
		}
	}
	compilers[isa.OpWrFSBase] = nop
	compilers[isa.OpWrGSBase] = nop

	compilers[isa.OpVScatter] = func(in *isa.Inst, pc, next uint64) handler {
		r1, ea := in.R1&15, compileEA(in.Mem, next)
		return func(c *CPU) bool {
			a := ea(c)
			if f := c.Mem.Store(a, 8, c.Regs[r1]); f != nil {
				return c.pageFaultPC(f, pc)
			}
			if f := c.Mem.Store(a+128, 8, c.Regs[r1]); f != nil {
				return c.pageFaultPC(f, pc)
			}
			return false
		}
	}
}
