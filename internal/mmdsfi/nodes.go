package mmdsfi

import (
	"fmt"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/oelf"
	"repro/internal/verifier/analysis"
)

// buildNodes lowers a list of items into the analysis representation,
// resolving label targets to node indices and data symbols to the
// PC-relative operands the linker will emit. It returns the Code and the
// explicit entry indices (the program entry plus every function label,
// which covers uninstrumented programs that have no cfi_labels yet).
func buildNodes(items []asm.Item, p *asm.Program) (*analysis.Code, []int, error) {
	addrs := make([]uint64, len(items)+1)
	var off uint64
	labelIdx := make(map[string]int)
	for i, it := range items {
		addrs[i] = off
		off += uint64(isa.EncodedLen(it.Inst.Op))
		for _, l := range it.Labels {
			if _, dup := labelIdx[l]; dup {
				return nil, nil, fmt.Errorf("mmdsfi: duplicate label %q", l)
			}
			labelIdx[l] = i
		}
	}
	addrs[len(items)] = off
	codeSpan := int64(oelf.CodeSpan(off))
	dataStart := codeSpan + oelf.GuardSize

	exempt := markExempt(items)
	nodes := make([]analysis.Node, len(items))
	for i, it := range items {
		in := it.Inst
		target := -1
		if in.Op.IsDirectBranch() {
			ti, ok := labelIdx[in.Label]
			if !ok {
				return nil, nil, fmt.Errorf("mmdsfi: undefined label %q", in.Label)
			}
			target = ti
		}
		if it.DataSym != "" {
			symOff, ok := p.DataSyms[it.DataSym]
			if !ok {
				return nil, nil, fmt.Errorf("mmdsfi: undefined data symbol %q", it.DataSym)
			}
			next := addrs[i] + uint64(isa.EncodedLen(in.Op))
			disp := int64(dataStart) + int64(symOff) + int64(in.Mem.Disp) - int64(next)
			in.Mem = isa.MemRef{Base: isa.RegPC, Index: in.Mem.Index, Scale: in.Mem.Scale, Disp: int32(disp)}
		}
		nodes[i] = analysis.Node{
			Inst:   in,
			Target: target,
			Addr:   addrs[i],
			Next:   addrs[i] + uint64(isa.EncodedLen(in.Op)),
			Exempt: exempt[i],
		}
	}

	var entries []int
	if p.Entry != "" {
		if ei, ok := labelIdx[p.Entry]; ok {
			entries = append(entries, ei)
		}
	}
	for l := range p.FuncLabels {
		if i, ok := labelIdx[l]; ok {
			entries = append(entries, i)
		}
	}
	code := &analysis.Code{
		Nodes:     nodes,
		GuardSize: oelf.GuardSize,
		CodeSpan:  codeSpan,
		MinData:   int64(len(p.Data)) + int64(p.BSS),
	}
	return code, entries, nil
}

// hoistLoopGuards implements loop check hoisting (§4.3, optimization 2):
// for a mem_guard inside a loop whose operand advances by a small constant
// per iteration, place a copy of the guard in the loop preheader. The
// in-loop guard is then removed by removeRedundantGuards if (and only if)
// the range analysis proves the hoisted check plus the successful-access
// refinement cover every iteration.
func hoistLoopGuards(items []asm.Item, guards []guardRef, p *asm.Program, opts Options) ([]asm.Item, []guardRef, error) {
	code, _, err := buildNodes(items, p)
	if err != nil {
		return nil, nil, err
	}

	// Find natural loops from direct back edges: branch at b targeting
	// head h ≤ b defines body [h, b].
	type loop struct{ head, tail int }
	var loops []loop
	for i, nd := range code.Nodes {
		if nd.Inst.Op.IsDirectBranch() && nd.Inst.Op != isa.OpCall && nd.Target >= 0 && nd.Target <= i {
			loops = append(loops, loop{head: nd.Target, tail: i})
		}
	}
	if len(loops) == 0 {
		return items, guards, nil
	}

	// For each guard inside a loop, decide hoistability: the operand's
	// base register must only change by constant steps inside the body,
	// with total per-iteration step below the guard slack, and the
	// index register (if any) must not change at all.
	type hoist struct {
		before int        // insert position (loop head item index)
		m      isa.MemRef // operand to check, with entry displacement
		sym    string
	}
	var hoists []hoist
	for _, g := range guards {
		if g.access < 0 {
			continue
		}
		m := code.Nodes[g.cl].Inst.Mem
		if m.IsPCRel() || m.IsAbs() {
			continue
		}
		for _, lp := range loops {
			if g.cl < lp.head || g.cl > lp.tail {
				continue
			}
			step, ok := loopStep(code.Nodes[lp.head:lp.tail+1], m)
			if !ok || abs64(step) > oelf.GuardSize-64 {
				continue
			}
			h := hoist{before: lp.head, m: m, sym: items[g.cl].DataSym}
			dup := false
			for _, prev := range hoists {
				if prev == h {
					dup = true
					break
				}
			}
			if !dup {
				hoists = append(hoists, h)
			}
			break
		}
	}
	if len(hoists) == 0 {
		return items, guards, nil
	}

	// Rebuild the item list with preheader guards inserted. Inserting
	// *before* the loop head keeps the back edge (which targets the
	// head's labels) inside the loop, so the hoisted guard runs once.
	insertAt := make(map[int][]hoist)
	for _, h := range hoists {
		insertAt[h.before] = append(insertAt[h.before], h)
	}
	var out []asm.Item
	var hoisted []guardRef
	remap := make([]int, len(items))
	for i, it := range items {
		for _, h := range insertAt[i] {
			// The preheader guard must run before the head label is
			// reachable by fallthrough; it takes no labels so jumps
			// into the loop bypass it (and the in-loop guard then
			// simply stays, keeping soundness).
			hoisted = append(hoisted, guardRef{cl: len(out), access: -1})
			out = append(out, guardPair(h.m, h.sym)...)
		}
		remap[i] = len(out)
		out = append(out, it)
	}
	ng := make([]guardRef, 0, len(guards)+len(hoisted))
	for _, g := range guards {
		ng = append(ng, guardRef{cl: remap[g.cl], access: remap[g.access]})
	}
	ng = append(ng, hoisted...)
	return out, ng, nil
}

// loopStep computes the net constant change applied to the base register
// of operand m across one iteration of the loop body, returning ok=false
// when the register changes in a non-constant way, the operand's index
// register changes, or the body leaves the loop through a call or trap
// (after which nothing can be assumed). loopStep is a heuristic only:
// hoisting an extra guard is always sound, and the *removal* of the
// in-loop guard is justified independently by the range analysis.
func loopStep(body []analysis.Node, m isa.MemRef) (int64, bool) {
	var step int64
	for _, nd := range body {
		in := nd.Inst
		switch in.Op {
		case isa.OpCall, isa.OpCallR, isa.OpCallM, isa.OpJmpR, isa.OpJmpM, isa.OpTrap:
			return 0, false
		}
		for _, w := range regWrites(in) {
			if m.HasIndex() && w.reg == m.Index {
				return 0, false
			}
			if w.reg != m.Base {
				continue
			}
			if !w.constStep {
				return 0, false
			}
			step += w.delta
		}
	}
	return step, true
}

type regEffect struct {
	reg       isa.Reg
	delta     int64
	constStep bool
}

// regWrites lists the register writes of in, marking constant increments.
func regWrites(in isa.Inst) []regEffect {
	switch in.Op {
	case isa.OpAddRI:
		return []regEffect{{in.R1, in.Imm, true}}
	case isa.OpSubRI:
		return []regEffect{{in.R1, -in.Imm, true}}
	case isa.OpMovRI, isa.OpMovRR, isa.OpLoad, isa.OpLoadB, isa.OpLea,
		isa.OpAddRR, isa.OpSubRR, isa.OpMulRR, isa.OpDivRR, isa.OpModRR,
		isa.OpAndRR, isa.OpOrRR, isa.OpXorRR, isa.OpShlRR, isa.OpShrRR,
		isa.OpMulRI, isa.OpAndRI, isa.OpOrRI, isa.OpXorRI, isa.OpShlRI,
		isa.OpShrRI, isa.OpNeg, isa.OpNot:
		return []regEffect{{in.R1, 0, false}}
	case isa.OpPop:
		return []regEffect{{in.R1, 0, false}, {isa.SP, 8, true}}
	case isa.OpPush, isa.OpPushI:
		return []regEffect{{isa.SP, -8, true}}
	case isa.OpLoop:
		return []regEffect{{isa.R1, -1, true}}
	}
	return nil
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

// removeRedundantGuards implements redundant check elimination (§4.3,
// optimization 1): a mem_guard is dropped when the analysis proves the
// guarded access in-window from the state *before* the guard. The batch
// removal is sound because each removed guard's information is
// re-established by the successful-access refinement of the access it
// guarded.
func removeRedundantGuards(items []asm.Item, guards []guardRef, p *asm.Program) ([]asm.Item, error) {
	code, entries, err := buildNodes(items, p)
	if err != nil {
		return nil, err
	}
	res := analysis.Analyze(code, entries)

	drop := make([]bool, len(items))
	for _, g := range guards {
		if g.access < 0 {
			// A hoisted preheader guard is dead weight when the range
			// analysis already proves its own check in-window.
			if res.In[g.cl].Reachable {
				st := res.In[g.cl].Clone()
				nd := &code.Nodes[g.cl]
				if analysis.AccessSafe(code, &st, nd, analysis.Access{Mem: nd.Inst.Mem, Size: 8}) {
					drop[g.cl], drop[g.cl+1] = true, true
				}
			}
			continue
		}
		if !res.In[g.cl].Reachable {
			// Unreachable guards (dead code) can go too.
			drop[g.cl], drop[g.cl+1] = true, true
			continue
		}
		st := res.In[g.cl].Clone()
		nd := &code.Nodes[g.access]
		safe := true
		for _, a := range analysis.Accesses(nd.Inst) {
			if !analysis.AccessSafe(code, &st, nd, a) {
				safe = false
				break
			}
		}
		if safe {
			drop[g.cl], drop[g.cl+1] = true, true
		}
	}

	var out []asm.Item
	var carry []string
	for i, it := range items {
		if drop[i] {
			carry = append(carry, it.Labels...)
			continue
		}
		it.Labels = append(carry, it.Labels...)
		carry = nil
		out = append(out, it)
	}
	if len(carry) > 0 {
		return nil, fmt.Errorf("mmdsfi: labels %v stranded by guard removal", carry)
	}
	return out, nil
}
