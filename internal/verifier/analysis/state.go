package analysis

import (
	"repro/internal/isa"
)

// CheckedExpr records a memory-operand expression base+index*scale+δ that
// has been proven to evaluate into the data region for some δ in
// [DLo, DHi]. Together with the guard regions, a checked expression proves
// accesses at nearby displacements safe: any address within a guard-size
// of a point in D either lands in D or faults in a guard region.
type CheckedExpr struct {
	Base     isa.Reg
	Index    isa.Reg
	Scale    uint8
	DLo, DHi int64
	// LB and UB record which half of the mem_guard has been seen (a
	// bndcl proves the lower side, a bndcu the upper side). Both must
	// hold for the expression to count as fully checked.
	LB, UB bool
}

func (e CheckedExpr) checked() bool { return e.LB && e.UB }

// matches reports whether e covers the operand (base,index,scale).
func (e CheckedExpr) matches(m isa.MemRef) bool {
	return e.Base == m.Base && e.Index == m.Index && (!m.HasIndex() || e.Scale == m.Scale)
}

// State is the abstract machine state at one program point: an abstract
// value per register plus the set of checked memory expressions.
type State struct {
	Regs  [isa.NumRegs]AVal
	Exprs []CheckedExpr
	// Reachable distinguishes the unexplored bottom state from an
	// all-Top state.
	Reachable bool
}

// TopState returns the state at an analysis entry point: every register
// unknown, no checked expressions. Per the paper's coarse CFI, every
// cfi_label may be reached from any indirect transfer in the domain, so
// nothing can be assumed there.
func TopState() State {
	return State{Reachable: true}
}

// Clone returns a copy of s that shares no storage with it.
func (s State) Clone() State {
	ns := s
	ns.Exprs = append([]CheckedExpr(nil), s.Exprs...)
	return ns
}

// join merges o into s, returning true if s changed. The bottom
// (unreachable) state is the identity. When force is true (the node's join
// budget is exhausted), any register or expression still changing is
// widened straight to its top, guaranteeing termination while leaving
// already-stable facts — like a loop pointer anchored by re-checks —
// untouched.
func (s *State) join(o State, widenLimit int64, force bool) bool {
	if !o.Reachable {
		return false
	}
	if !s.Reachable {
		*s = o.Clone()
		return true
	}
	changed := false
	for i := range s.Regs {
		nv := s.Regs[i].Join(o.Regs[i], widenLimit)
		if force && nv != s.Regs[i] {
			nv = Top
		}
		if nv != s.Regs[i] {
			s.Regs[i] = nv
			changed = true
		}
	}
	// Keep only expressions present in both, with hulled displacement
	// ranges and conjoined check flags.
	var kept []CheckedExpr
	for _, e := range s.Exprs {
		for _, f := range o.Exprs {
			if e.Base == f.Base && e.Index == f.Index && e.Scale == f.Scale {
				m := CheckedExpr{
					Base: e.Base, Index: e.Index, Scale: e.Scale,
					DLo: min64(e.DLo, f.DLo), DHi: max64(e.DHi, f.DHi),
					LB: e.LB && f.LB, UB: e.UB && f.UB,
				}
				if force && m != e {
					break // still changing: widen away
				}
				if m.DHi-m.DLo >= 0 && m.DHi-m.DLo <= widenLimit {
					kept = append(kept, m)
				}
				break
			}
		}
	}
	if len(kept) != len(s.Exprs) {
		changed = true
	} else {
		for i := range kept {
			if kept[i] != s.Exprs[i] {
				changed = true
				break
			}
		}
	}
	s.Exprs = kept
	return changed
}

// killReg invalidates everything that depended on register r, unless the
// write was "r += delta" with a known constant delta, in which case
// dependent expressions and the register's own abstract value shift.
func (s *State) killReg(r isa.Reg, shift *int64) {
	var kept []CheckedExpr
	for _, e := range s.Exprs {
		if e.Base != r && e.Index != r {
			kept = append(kept, e)
			continue
		}
		if shift != nil && e.Base == r && e.Index != r {
			// base moved by +delta ⇒ same address is expressed
			// with displacement reduced by delta.
			e.DLo -= *shift
			e.DHi -= *shift
			kept = append(kept, e)
		}
	}
	s.Exprs = kept
}

// setExpr records or refines a checked expression.
func (s *State) setExpr(m isa.MemRef, d int64, lb, ub bool) {
	for i := range s.Exprs {
		e := &s.Exprs[i]
		if e.Base == m.Base && e.Index == m.Index && e.Scale == m.Scale {
			if e.DLo == d && e.DHi == d {
				e.LB = e.LB || lb
				e.UB = e.UB || ub
				return
			}
			// A fresh exact check replaces the old range when it
			// proves both sides; otherwise keep the stronger fact.
			if lb && ub {
				e.DLo, e.DHi, e.LB, e.UB = d, d, true, true
				return
			}
			if e.checked() {
				return // existing full check is stronger
			}
			e.DLo, e.DHi = d, d
			e.LB = e.LB || lb
			e.UB = e.UB || ub
			return
		}
	}
	scale := m.Scale
	if !m.HasIndex() {
		scale = 1
	}
	s.Exprs = append(s.Exprs, CheckedExpr{
		Base: m.Base, Index: m.Index, Scale: scale,
		DLo: d, DHi: d, LB: lb, UB: ub,
	})
}

// lookupExpr finds the checked expression covering operand m, if any.
func (s *State) lookupExpr(m isa.MemRef) (CheckedExpr, bool) {
	for _, e := range s.Exprs {
		if e.matches(m) && e.checked() {
			return e, true
		}
	}
	return CheckedExpr{}, false
}
