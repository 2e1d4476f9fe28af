// Package mmdsfi implements MPX-based, Multi-Domain Software Fault
// Isolation — the paper's §4 — as a transformation over asm.Programs.
//
// The instrumentation enforces two policies inside a domain with code
// region C and data region D:
//
//   - Memory access policy: every memory access lands in [D.begin, D.end),
//     enforced by mem_guard pseudo-instructions (a bndcl/bndcu pair
//     against BND0) plus the guard regions around D.
//   - Control transfer policy: every control transfer targets C, enforced
//     by rewriting returns, guarding register-indirect transfers with
//     cfi_guard (an 8-byte load compared for equality against BND1, which
//     holds the domain's cfi_label value), and placing cfi_labels at every
//     valid indirect target.
//
// The two optimizations of §4.3 are implemented: redundant check
// elimination and loop check hoisting, both justified by the verifier's
// own range analysis (package verifier/analysis), which this package
// imports: the instrumenter depends on the TCB, never the reverse.
package mmdsfi

import (
	"fmt"
	"maps"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/verifier/analysis"
)

// Options selects which confinements the instrumenter applies. The
// selective switches exist to reproduce the paper's Figure 7b overhead
// breakdown; production use keeps everything on.
type Options struct {
	// ConfineControl enables the CFI pass: cfi_labels, cfi_guards and
	// return rewriting.
	ConfineControl bool
	// ConfineLoads guards memory loads (including pop's implicit load).
	ConfineLoads bool
	// ConfineStores guards memory stores (including push/call's
	// implicit store).
	ConfineStores bool
	// Optimize enables redundant check elimination and loop check
	// hoisting. Off, the instrumenter is the paper's "naive"
	// implementation: one mem_guard per access.
	Optimize bool
}

// DefaultOptions enables full confinement with optimizations.
func DefaultOptions() Options {
	return Options{ConfineControl: true, ConfineLoads: true, ConfineStores: true, Optimize: true}
}

// Instrument applies MMDSFI to a program, returning a new program. The
// input program is not modified.
func Instrument(p *asm.Program, opts Options) (*asm.Program, error) {
	out := &asm.Program{
		FuncLabels: maps.Clone(p.FuncLabels),
		Entry:      p.Entry,
		Data:       append([]byte(nil), p.Data...),
		DataSyms:   maps.Clone(p.DataSyms),
		BSS:        p.BSS,
	}
	items := append([]asm.Item(nil), p.Items...)

	var err error
	if opts.ConfineControl {
		items, err = cfiPass(items, out.FuncLabels)
		if err != nil {
			return nil, err
		}
	}
	items, err = memGuardPass(items, out, opts)
	if err != nil {
		return nil, err
	}
	out.Items = items
	return out, nil
}

// cfiGuardItems emits the cfi_guard pseudo-instruction for a target
// register: load the 8 bytes at the target into the guard scratch
// register and equality-check them against BND1.
func cfiGuardItems(target isa.Reg) []asm.Item {
	return []asm.Item{
		{Inst: isa.Inst{Op: isa.OpLoad, R1: isa.GuardScratch, Mem: isa.Mem(target, 0)}},
		{Inst: isa.Inst{Op: isa.OpBndCL, Bnd: isa.BND1, R1: isa.GuardScratch}},
		{Inst: isa.Inst{Op: isa.OpBndCU, Bnd: isa.BND1, R1: isa.GuardScratch}},
	}
}

// cfiPass performs the control-transfer instrumentation.
func cfiPass(items []asm.Item, funcLabels map[string]bool) ([]asm.Item, error) {
	out := make([]asm.Item, 0, len(items)*2)
	for _, it := range items {
		op := it.Inst.Op
		isFuncEntry := false
		for _, l := range it.Labels {
			if funcLabels[l] {
				isFuncEntry = true
				break
			}
		}
		if isFuncEntry {
			// The cfi_label takes over all the labels so that both
			// direct and indirect arrivals execute from it.
			out = append(out, asm.Item{Inst: isa.Inst{Op: isa.OpCFILabel}, Labels: it.Labels})
			it.Labels = nil
		}

		switch {
		case op.IsReturn():
			// ret → pop r13; [add sp, imm;] cfi_guard r13; jmp r13
			pop := asm.Item{Inst: isa.Inst{Op: isa.OpPop, R1: isa.RetScratch}, Labels: it.Labels}
			out = append(out, pop)
			if op == isa.OpRetI && it.Inst.Imm != 0 {
				out = append(out, asm.Item{Inst: isa.Inst{Op: isa.OpAddRI, R1: isa.SP, Imm: it.Inst.Imm}})
			}
			out = append(out, cfiGuardItems(isa.RetScratch)...)
			out = append(out, asm.Item{Inst: isa.Inst{Op: isa.OpJmpR, R1: isa.RetScratch}})

		case op.IsRegIndirect():
			if it.Inst.R1 == isa.GuardScratch {
				return nil, fmt.Errorf("mmdsfi: indirect transfer through reserved register %s", isa.GuardScratch)
			}
			g := cfiGuardItems(it.Inst.R1)
			g[0].Labels = it.Labels
			it.Labels = nil
			out = append(out, g...)
			out = append(out, it)
			if op == isa.OpCallR {
				// Return site: the rewritten callee return jumps here.
				out = append(out, asm.Item{Inst: isa.Inst{Op: isa.OpCFILabel}})
			}

		case op == isa.OpCall:
			out = append(out, it)
			out = append(out, asm.Item{Inst: isa.Inst{Op: isa.OpCFILabel}})

		case op.IsMemIndirect():
			return nil, fmt.Errorf("mmdsfi: memory-based indirect transfer %s is not supported (the verifier rejects it)", op)

		default:
			out = append(out, it)
		}
	}
	return out, nil
}

// guardRef tracks an inserted mem_guard pair for the optimizer.
type guardRef struct {
	cl     int // item index of the bndcl (bndcu is cl+1)
	access int // item index of the guarded access, or -1 for hoisted guards
}

// memGuardPass inserts mem_guard pairs before unsafe accesses and, when
// optimizing, removes the ones the range analysis proves redundant after
// hoisting loop-invariant checks.
func memGuardPass(items []asm.Item, p *asm.Program, opts Options) ([]asm.Item, error) {
	if !opts.ConfineLoads && !opts.ConfineStores {
		return items, nil
	}
	items, guards, err := insertAllGuards(items, opts)
	if err != nil {
		return nil, err
	}
	if !opts.Optimize {
		return items, nil
	}
	items, guards, err = hoistLoopGuards(items, guards, p, opts)
	if err != nil {
		return nil, err
	}
	return removeRedundantGuards(items, guards, p)
}

// needsGuard reports whether the instruction's accesses fall under the
// enabled confinement options.
func needsGuard(in isa.Inst, opts Options) (isa.MemRef, bool) {
	for _, a := range analysis.Accesses(in) {
		if a.Store && !opts.ConfineStores {
			continue
		}
		if !a.Store && !opts.ConfineLoads {
			continue
		}
		if a.Mem.IsPCRel() || a.Mem.IsAbs() {
			// A PC-relative data reference resolves into the data
			// region and the range analysis proves it (unless an
			// unknown index moves it: the verifier rejects that); an
			// absolute operand is rejected. Neither gets a guard.
			continue
		}
		return a.Mem, true
	}
	return isa.MemRef{}, false
}

func guardPair(m isa.MemRef, dataSym string) []asm.Item {
	return []asm.Item{
		{Inst: isa.Inst{Op: isa.OpBndCLM, Bnd: isa.BND0, Mem: m}, DataSym: dataSym},
		{Inst: isa.Inst{Op: isa.OpBndCUM, Bnd: isa.BND0, Mem: m}, DataSym: dataSym},
	}
}

// insertAllGuards is the naive instrumentation: one mem_guard pair before
// every in-scope access. The guard inherits the access's labels so direct
// branches cannot skip it.
func insertAllGuards(items []asm.Item, opts Options) ([]asm.Item, []guardRef, error) {
	exempt := markExempt(items)
	out := make([]asm.Item, 0, len(items)*2)
	var guards []guardRef
	for i, it := range items {
		if it.Inst.Op == isa.OpVScatter {
			return nil, nil, fmt.Errorf("mmdsfi: vector scatter cannot be confined (the verifier rejects it)")
		}
		m, ok := needsGuard(it.Inst, opts)
		if ok && !exempt[i] {
			g := guardPair(m, it.DataSym)
			g[0].Labels = it.Labels
			it.Labels = nil
			guards = append(guards, guardRef{cl: len(out), access: len(out) + 2})
			out = append(out, g...)
		}
		out = append(out, it)
	}
	return out, guards, nil
}

// markExempt flags the loads that belong to cfi_guard sequences.
func markExempt(items []asm.Item) []bool {
	ex := make([]bool, len(items))
	for i := 0; i+2 < len(items); i++ {
		if isCFIGuardLoad(items[i].Inst) &&
			items[i+1].Inst.Op == isa.OpBndCL && items[i+1].Inst.Bnd == isa.BND1 &&
			items[i+2].Inst.Op == isa.OpBndCU && items[i+2].Inst.Bnd == isa.BND1 {
			ex[i] = true
		}
	}
	return ex
}

func isCFIGuardLoad(in isa.Inst) bool {
	return in.Op == isa.OpLoad && in.R1 == isa.GuardScratch &&
		!in.Mem.HasIndex() && in.Mem.Disp == 0 &&
		in.Mem.Base.Valid()
}
