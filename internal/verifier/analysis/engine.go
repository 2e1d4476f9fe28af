// Package analysis is the cfi_label-aware range analysis of the paper's
// §4.3: an abstract interpretation over instruction nodes that proves
// each memory access lands in a domain's data region or faults in one of
// its guard regions. The verifier's Stage 4 rejects any access it cannot
// prove; the MMDSFI instrumenter imports it to drop the mem_guards it
// proves redundant. It is part of the verifier's TCB, so it imports
// nothing from this module but isa.
package analysis

import "repro/internal/isa"

// Node is one instruction in the analysis representation, shared between
// the instrumenter's optimizer and the verifier's Stage 4.
type Node struct {
	// Inst is the instruction.
	Inst isa.Inst
	// Target is the node index of a direct branch target, or -1.
	Target int
	// Addr and Next are the code offsets of this instruction and of the
	// instruction after it (used to resolve PC-relative operands).
	Addr, Next uint64
	// Exempt marks the load of a cfi_guard sequence, which reads the
	// prospective jump target's bytes and is not subject to the memory
	// access policy (it is part of the pseudo-instruction; a wild
	// pointer makes it fault, which is safe).
	Exempt bool
}

// Access describes one memory access performed by a node.
type Access struct {
	// Mem is the accessed operand (for implicit stack accesses it is
	// the synthesized [sp-8] or [sp+0] operand).
	Mem isa.MemRef
	// Size is the access width in bytes.
	Size int
	// Store is true for writes.
	Store bool
}

// Accesses returns the data-memory accesses performed by in, including the
// implicit stack accesses of push/pop/call/ret (the paper's "implicit
// register-based" category).
func Accesses(in isa.Inst) []Access {
	var out []Access
	if kind, size := in.Op.MemUse(); kind == isa.MemLoad || kind == isa.MemStore || kind == isa.MemScatter {
		out = append(out, Access{Mem: in.Mem, Size: size, Store: kind != isa.MemLoad})
	}
	if kind, ok := in.Op.HasImplicitStackAccess(); ok {
		m := isa.Mem(isa.SP, 0)
		if kind == isa.MemStore {
			m = isa.Mem(isa.SP, -8)
		}
		out = append(out, Access{Mem: m, Size: 8, Store: kind == isa.MemStore})
	}
	return out
}

// Code is the unit of analysis: the instruction nodes plus the layout
// facts the analysis needs.
type Code struct {
	Nodes []Node
	// GuardSize is the size of the guard regions around the data region
	// (and of the code/data gap).
	GuardSize int64
	// CodeSpan is the page-padded code size; the data region begins at
	// CodeSpan+GuardSize, which is how PC-relative operands resolve to
	// data-relative values.
	CodeSpan int64
	// MinData is the minimum data-region size the loader guarantees;
	// PC-relative upper bounds are derived from it.
	MinData int64
}

// Result is the outcome of the range analysis.
type Result struct {
	// In is the abstract state at entry to each node (In[i].Reachable
	// is false for unreachable nodes).
	In []State
	// Proven[i] is true when every access of node i is statically
	// proven to stay within [D.begin-G, D.end+G) — i.e. to either land
	// in the data region or fault in a guard region.
	Proven []bool
}

// maxJoinsBeforeWiden bounds how many times a node's input state may
// change before joins at that node widen aggressively, guaranteeing
// termination.
const maxJoinsBeforeWiden = 12

// Analyze runs the cfi_label-aware range analysis of §4.3/§5 over code,
// starting from the given entry nodes plus every cfi_label (any of which
// may be reached by an indirect transfer under MMDSFI's coarse CFI).
func Analyze(code *Code, entries []int) *Result {
	n := len(code.Nodes)
	res := &Result{In: make([]State, n), Proven: make([]bool, n)}
	if n == 0 {
		return res
	}
	joins := make([]int, n)

	var work []int
	push := func(i int) { work = append(work, i) }
	propagate := func(i int, s State) {
		if i < 0 || i >= n {
			return
		}
		force := joins[i] > maxJoinsBeforeWiden
		if res.In[i].join(s, 2*code.GuardSize, force) {
			joins[i]++
			push(i)
		}
	}

	for _, e := range entries {
		propagate(e, TopState())
	}
	for i, nd := range code.Nodes {
		if nd.Inst.Op == isa.OpCFILabel {
			propagate(i, TopState())
		}
	}

	for len(work) > 0 {
		i := work[len(work)-1]
		work = work[:len(work)-1]
		st := res.In[i].Clone()
		nd := &code.Nodes[i]

		proven := true
		if !nd.Exempt {
			for _, a := range Accesses(nd.Inst) {
				if nd.Inst.Op == isa.OpVScatter {
					proven = false // multiple non-contiguous targets
					continue
				}
				if !AccessSafe(code, &st, nd, a) {
					proven = false
				}
			}
		}
		res.Proven[i] = proven

		// The successful-access refinement must not apply to exempt
		// (cfi_guard) loads: they read the code region, not D.
		transfer(code, &st, nd, proven && !nd.Exempt)

		op := nd.Inst.Op
		switch {
		case op == isa.OpJmp:
			propagate(nd.Target, st)
		case op.IsCondBranch():
			propagate(nd.Target, st)
			propagate(i+1, st)
		case op == isa.OpCall:
			propagate(nd.Target, st)
			// The matching return arrives at the fallthrough via an
			// indirect jump; model the post-return state as unknown.
			propagate(i+1, TopState())
		case op.IsRegIndirect(), op.IsMemIndirect(), op.IsReturn():
			// Successors are cfi_labels, which are entries already.
			if op == isa.OpCallR || op == isa.OpCallM {
				propagate(i+1, TopState())
			}
		case op == isa.OpTrap:
			// The LibOS returns control to the cfi_label after the
			// trap (trampoline protocol); model as unknown state.
			propagate(i+1, TopState())
		case op.IsUncondTransfer():
			// halt, eexit: no successors.
		default:
			propagate(i+1, st)
		}
	}
	return res
}

// evalMem computes the abstract effective address of operand m, term by
// term as the OVM computes it: the base (the next instruction's address
// when PC-relative, zero when absent), plus index*scale, plus disp.
func evalMem(code *Code, st *State, nd *Node, m isa.MemRef) AVal {
	var a AVal
	switch {
	case m.IsAbs():
		return Const(int64(m.Disp), int64(m.Disp))
	case m.IsPCRel():
		// The data region starts at codeBase + CodeSpan + GuardSize, so
		// relative to D.begin, codeBase+Next is a known constant
		// c ≥ -(CodeSpan+GuardSize). Relative to D.end-1 we only know
		// DSize ≥ MinData.
		c := int64(nd.Next) - code.CodeSpan - code.GuardSize
		a = DPtr(c, c-code.MinData+1)
	case m.Base.Valid():
		a = st.Regs[m.Base]
	default:
		a = Const(0, 0)
	}
	if m.HasIndex() {
		a = a.Add(st.Regs[m.Index].MulConst(int64(m.Scale)))
	}
	return a.AddConst(int64(m.Disp), int64(m.Disp))
}

// AccessSafe reports whether access a of node nd is proven to land within
// the window [D.begin-G, D.end+G), where any non-D address faults in a
// guard region.
func AccessSafe(code *Code, st *State, nd *Node, a Access) bool {
	g := code.GuardSize
	av := evalMem(code, st, nd, a.Mem)
	if av.K == KDPtr && av.Lo >= -g && av.Hi+int64(a.Size)-1 <= g {
		return true
	}
	// Fall back to the checked-expression set.
	if a.Mem.IsAbs() || a.Mem.IsPCRel() {
		return false
	}
	e, ok := st.lookupExpr(a.Mem)
	if !ok {
		return false
	}
	d := int64(a.Mem.Disp)
	slack := g - int64(a.Size)
	return d-e.DLo <= slack && d-e.DLo >= -slack &&
		e.DHi-d <= slack && e.DHi-d >= -slack
}

// transfer applies the abstract semantics of nd to st. proven indicates
// that all of nd's accesses were statically proven in-window, enabling the
// successful-access refinement (an in-window access that did not fault
// must have landed inside D).
func transfer(code *Code, st *State, nd *Node, proven bool) {
	in := nd.Inst
	setReg := func(r isa.Reg, v AVal) {
		st.killReg(r, nil)
		st.Regs[r] = v
	}
	shiftReg := func(r isa.Reg, delta int64) {
		st.killReg(r, &delta)
		st.Regs[r] = st.Regs[r].AddConst(delta, delta)
	}
	refine := func(m isa.MemRef, size int) {
		if !proven || m.IsAbs() || m.IsPCRel() {
			return
		}
		st.setExpr(m, int64(m.Disp), true, true)
		if !m.HasIndex() {
			d := int64(m.Disp)
			st.Regs[m.Base] = DPtr(-d, -d-int64(size)+1)
		}
	}

	switch in.Op {
	case isa.OpMovRI:
		setReg(in.R1, Const(in.Imm, in.Imm))
	case isa.OpMovRR:
		v := st.Regs[in.R2]
		setReg(in.R1, v)
	case isa.OpLoad:
		refine(in.Mem, 8)
		setReg(in.R1, Top)
	case isa.OpLoadB:
		// The OVM zero-extends the loaded byte.
		refine(in.Mem, 1)
		setReg(in.R1, Const(0, 255))
	case isa.OpStore, isa.OpStoreB:
		refine(in.Mem, accessSize(in.Op))
	case isa.OpLea:
		v := evalMem(code, st, nd, in.Mem)
		setReg(in.R1, v)
	case isa.OpPush, isa.OpPushI:
		refine(isa.Mem(isa.SP, -8), 8)
		shiftReg(isa.SP, -8)
	case isa.OpPop:
		refine(isa.Mem(isa.SP, 0), 8)
		if in.R1 == isa.SP {
			setReg(isa.SP, Top)
		} else {
			setReg(in.R1, Top)
			shiftReg(isa.SP, 8)
		}
	case isa.OpAddRI:
		shiftReg(in.R1, in.Imm)
	case isa.OpSubRI:
		shiftReg(in.R1, -in.Imm)
	case isa.OpAddRR:
		if v := st.Regs[in.R2]; v.K == KConst && v.Lo == v.Hi {
			shiftReg(in.R1, v.Lo)
		} else {
			sum := st.Regs[in.R1].Add(v)
			setReg(in.R1, sum)
		}
	case isa.OpSubRR:
		if v := st.Regs[in.R2]; v.K == KConst && v.Lo == v.Hi && in.R1 != in.R2 {
			shiftReg(in.R1, -v.Lo)
		} else if in.R1 == in.R2 {
			setReg(in.R1, Const(0, 0))
		} else {
			diff := st.Regs[in.R1].Sub(v)
			setReg(in.R1, diff)
		}
	case isa.OpMulRI:
		v := st.Regs[in.R1].MulConst(in.Imm)
		setReg(in.R1, v)
	case isa.OpAndRI:
		// Masking with a non-negative immediate bounds the value.
		if in.Imm >= 0 {
			setReg(in.R1, Const(0, in.Imm))
		} else {
			setReg(in.R1, Top)
		}
	case isa.OpShlRI:
		// The OVM shifts by imm&63. A non-negative constant interval
		// scales exactly unless the shift overflows (MulConst, and a
		// negative 1<<63, give Top).
		v := st.Regs[in.R1]
		if v.K == KConst && v.Lo >= 0 {
			v = v.MulConst(int64(1) << (uint64(in.Imm) & 63))
		} else {
			v = Top
		}
		setReg(in.R1, v)
	case isa.OpMulRR, isa.OpDivRR, isa.OpModRR, isa.OpAndRR, isa.OpOrRR,
		isa.OpXorRR, isa.OpShlRR, isa.OpShrRR, isa.OpOrRI, isa.OpXorRI,
		isa.OpShrRI, isa.OpNeg, isa.OpNot:
		setReg(in.R1, Top)
	case isa.OpCmpRR, isa.OpCmpRI, isa.OpTestRR:
		// Flags only.
	case isa.OpBndCLM, isa.OpBndCUM:
		if in.Bnd == isa.BND0 && !in.Mem.IsAbs() && !in.Mem.IsPCRel() {
			st.setExpr(in.Mem, int64(in.Mem.Disp), in.Op == isa.OpBndCLM, in.Op == isa.OpBndCUM)
			if e, ok := st.lookupExpr(in.Mem); ok && !in.Mem.HasIndex() && e.DLo == e.DHi {
				st.Regs[in.Mem.Base] = DPtr(-e.DLo, -e.DLo)
			}
		}
	case isa.OpBndCL, isa.OpBndCU:
		if in.Bnd == isa.BND0 {
			m := isa.Mem(in.R1, 0)
			st.setExpr(m, 0, in.Op == isa.OpBndCL, in.Op == isa.OpBndCU)
			if e, ok := st.lookupExpr(m); ok && e.DLo == e.DHi {
				st.Regs[in.R1] = DPtr(-e.DLo, -e.DLo)
			}
		}
	case isa.OpCall:
		refine(isa.Mem(isa.SP, -8), 8)
		shiftReg(isa.SP, -8)
	case isa.OpCallR, isa.OpCallM:
		refine(isa.Mem(isa.SP, -8), 8)
		shiftReg(isa.SP, -8)
	case isa.OpRet, isa.OpRetI:
		refine(isa.Mem(isa.SP, 0), 8)
	}
}

func accessSize(op isa.Op) int {
	if op == isa.OpLoadB || op == isa.OpStoreB {
		return 1
	}
	return 8
}
