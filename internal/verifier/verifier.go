// Package verifier implements the Occlum binary verifier (§5 of the
// paper): an independent static checker that takes an OELF binary and
// decides whether it complies with the security policies of MMDSFI. Only
// binaries that pass all four stages are signed; the LibOS loader refuses
// anything unsigned. This keeps the large MMDSFI toolchain out of the TCB:
// the verifier links isa, oelf and its range analysis, nothing else.
//
// The four stages mirror the paper exactly:
//
//	Stage 1 — complete disassembly (Algorithm 1): scan for cfi_label
//	          magic bytes, disassemble from every label following
//	          sequential execution and direct transfers, abort on any
//	          invalid or overlapping instruction.
//	Stage 2 — instruction set verification: reject dangerous SGX, MPX
//	          and miscellaneous privileged instructions.
//	Stage 3 — control transfer verification (Figure 3): classify every
//	          transfer and check its category's criteria.
//	Stage 4 — memory access verification (Figure 4): classify every
//	          access and check it with the cfi_label-aware range
//	          analysis.
package verifier

import (
	"fmt"
	"sort"

	"repro/internal/isa"
	"repro/internal/oelf"
	"repro/internal/verifier/analysis"
)

// Error is a verification failure, tagged with the stage that rejected
// the binary.
type Error struct {
	Stage  int
	Offset int
	Msg    string
}

// Error implements the error interface.
func (e *Error) Error() string {
	return fmt.Sprintf("verifier: stage %d: offset %#x: %s", e.Stage, e.Offset, e.Msg)
}

func errf(stage, off int, format string, args ...any) error {
	return &Error{Stage: stage, Offset: off, Msg: fmt.Sprintf(format, args...)}
}

// Verifier checks OELF binaries and signs the compliant ones.
type Verifier struct {
	key oelf.SigningKey
}

// New creates a verifier that signs with key.
func New(key oelf.SigningKey) *Verifier { return &Verifier{key: key} }

// Verify runs all four stages on b. It does not sign.
func (v *Verifier) Verify(b *oelf.Binary) error {
	if b.Image.GuardSize != oelf.GuardSize {
		return errf(0, 0, "unsupported guard size %d (loader provides %d)",
			b.Image.GuardSize, oelf.GuardSize)
	}
	r, err := disassemble(b.Image.Code)
	if err != nil {
		return err
	}
	if err := verifyEntry(b, r); err != nil {
		return err
	}
	if err := verifyInstructionSet(r); err != nil {
		return err
	}
	if err := verifyControlTransfers(r); err != nil {
		return err
	}
	return verifyMemoryAccesses(b, r)
}

// VerifyAndSign verifies b and, on success, attaches the verifier
// signature.
func (v *Verifier) VerifyAndSign(b *oelf.Binary) error {
	if err := v.Verify(b); err != nil {
		return err
	}
	v.key.Sign(b)
	return nil
}

// rinst is one reachable instruction: the subject set R of Algorithm 1.
type rinst struct {
	off  int
	n    int
	inst isa.Inst
}

// disassemble is Stage 1, Algorithm 1: complete and reliable disassembly
// rooted at the cfi_labels. It returns R sorted by offset.
func disassemble(code []byte) ([]rinst, error) {
	const stage = 1
	owner := make([]int32, len(code)) // byte → owning instruction start, or -1
	for i := range owner {
		owner[i] = -1
	}
	insts := make(map[int]rinst)

	// Line 2: find all cfi_labels by scanning byte by byte.
	stack := isa.FindCFIMagic(code)
	if len(stack) == 0 {
		return nil, errf(stage, 0, "no cfi_labels: program has no valid entry points")
	}

	for len(stack) > 0 {
		addr := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for {
			// Line 6: the whole instruction must lie within C.
			if addr < 0 || addr >= len(code) {
				return nil, errf(stage, addr, "control flow leaves the code segment")
			}
			// Line 8-10: decode; invalid instructions abort.
			in, n, err := isa.Decode(code, addr)
			if err != nil {
				return nil, errf(stage, addr, "invalid instruction: %v", err)
			}
			// Line 11-12: already disassembled here — converged.
			if _, ok := insts[addr]; ok {
				break
			}
			// Line 13-14: overlap with a differently-aligned
			// instruction aborts (the variable-length hazard).
			for b := addr; b < addr+n; b++ {
				if owner[b] != -1 {
					return nil, errf(stage, addr,
						"instruction overlaps the one at %#x", owner[b])
				}
			}
			for b := addr; b < addr+n; b++ {
				owner[b] = int32(addr)
			}
			insts[addr] = rinst{off: addr, n: n, inst: in}
			// Line 16-18: follow direct control transfers.
			if in.Op.IsDirectBranch() {
				target := addr + n + int(int32(in.Imm))
				stack = append(stack, target)
			}
			// Line 19-20: stop at unconditional transfers.
			if in.Op.IsUncondTransfer() {
				break
			}
			addr += n
		}
	}

	r := make([]rinst, 0, len(insts))
	for _, ri := range insts {
		r = append(r, ri)
	}
	sort.Slice(r, func(i, j int) bool { return r[i].off < r[j].off })
	return r, nil
}

// verifyEntry checks that the binary's declared entry point is a
// cfi_label (the LibOS guarantees programs start there).
func verifyEntry(b *oelf.Binary, r []rinst) error {
	i, ok := find(r, int(b.Image.Entry))
	if !ok || r[i].inst.Op != isa.OpCFILabel {
		return errf(1, int(b.Image.Entry), "entry point is not a cfi_label")
	}
	return nil
}

func find(r []rinst, off int) (int, bool) {
	i := sort.Search(len(r), func(i int) bool { return r[i].off >= off })
	if i < len(r) && r[i].off == off {
		return i, true
	}
	return 0, false
}

// verifyInstructionSet is Stage 2: no dangerous instructions in R.
func verifyInstructionSet(r []rinst) error {
	for _, ri := range r {
		if ri.inst.Op.IsDangerous() {
			return errf(2, ri.off, "dangerous instruction %s", ri.inst.Op)
		}
	}
	return nil
}

// cfiGuardAt reports whether r[i..i+3] form a cfi_guard triple followed by
// a register-based indirect transfer through the guarded register, at
// contiguous offsets.
func cfiGuardAt(r []rinst, i int) (target isa.Reg, ok bool) {
	if i+3 >= len(r) {
		return 0, false
	}
	ld, cl, cu, tr := r[i], r[i+1], r[i+2], r[i+3]
	if ld.off+ld.n != cl.off || cl.off+cl.n != cu.off || cu.off+cu.n != tr.off {
		return 0, false
	}
	if !(ld.inst.Op == isa.OpLoad && ld.inst.R1 == isa.GuardScratch &&
		!ld.inst.Mem.HasIndex() && !ld.inst.Mem.IsPCRel() && !ld.inst.Mem.IsAbs() &&
		ld.inst.Mem.Disp == 0) {
		return 0, false
	}
	if !(cl.inst.Op == isa.OpBndCL && cl.inst.Bnd == isa.BND1 && cl.inst.R1 == isa.GuardScratch) {
		return 0, false
	}
	if !(cu.inst.Op == isa.OpBndCU && cu.inst.Bnd == isa.BND1 && cu.inst.R1 == isa.GuardScratch) {
		return 0, false
	}
	if !tr.inst.Op.IsRegIndirect() || tr.inst.R1 != ld.inst.Mem.Base {
		return 0, false
	}
	if tr.inst.R1 == isa.GuardScratch {
		return 0, false // the load would have clobbered the target
	}
	return tr.inst.R1, true
}

// verifyControlTransfers is Stage 3, Figure 3.
func verifyControlTransfers(r []rinst) error {
	const stage = 3

	// Mark, for every register-based indirect transfer, whether it is
	// guarded; and mark the interior instructions of guard sequences
	// (the bndcl/bndcu and the transfer itself), which direct branches
	// must not target.
	guarded := make(map[int]bool) // offset of reg-indirect transfer
	interior := make(map[int]bool)
	for i := range r {
		if _, ok := cfiGuardAt(r, i); ok {
			guarded[r[i+3].off] = true
			interior[r[i+1].off] = true
			interior[r[i+2].off] = true
			interior[r[i+3].off] = true
		}
	}

	for _, ri := range r {
		op := ri.inst.Op
		switch {
		case op.IsDirectBranch():
			// Category 1: the target must not be a register-based
			// indirect transfer (which would skip its cfi_guard),
			// nor any interior instruction of a guard sequence.
			target := ri.off + ri.n + int(int32(ri.inst.Imm))
			ti, ok := find(r, target)
			if !ok {
				return errf(stage, ri.off, "direct transfer to unverified offset %#x", target)
			}
			if r[ti].inst.Op.IsRegIndirect() {
				return errf(stage, ri.off,
					"direct transfer targets a register-based indirect transfer at %#x", target)
			}
			if interior[target] {
				return errf(stage, ri.off,
					"direct transfer into the middle of a cfi_guard sequence at %#x", target)
			}
		case op.IsRegIndirect():
			// Category 2: must be guarded by a cfi_guard.
			if !guarded[ri.off] {
				return errf(stage, ri.off, "%s is not guarded by a cfi_guard", op)
			}
		case op.IsMemIndirect():
			// Category 3: reject.
			return errf(stage, ri.off, "memory-based indirect transfer %s", op)
		case op.IsReturn():
			// Category 4: reject.
			return errf(stage, ri.off, "return-based indirect transfer %s", op)
		}
	}
	return nil
}

// verifyMemoryAccesses is Stage 4, Figure 4: build the CFG over R, run the
// cfi_label-aware range analysis, and check every access.
func verifyMemoryAccesses(b *oelf.Binary, r []rinst) error {
	const stage = 4
	code, err := buildCode(b, r)
	if err != nil {
		return err
	}
	res := analysis.Analyze(code, nil)
	for i, ri := range r {
		op := ri.inst.Op
		// Category: direct memory offset — reject (no fixed address
		// can be assumed to be within a domain).
		accesses := analysis.Accesses(ri.inst)
		for _, a := range accesses {
			if a.Mem.IsAbs() {
				return errf(stage, ri.off, "direct memory offset operand in %s", op)
			}
		}
		// Category: vector SIB — reject.
		if op == isa.OpVScatter {
			return errf(stage, ri.off, "vector SIB scatter")
		}
		if len(accesses) == 0 || code.Nodes[i].Exempt {
			continue
		}
		// Categories SIB / implicit register-based / RIP-relative:
		// check via the range analysis.
		if !res.In[i].Reachable {
			// In R but unreachable for the analysis would be a
			// verifier bug; reject conservatively.
			return errf(stage, ri.off, "access in analysis-unreachable code")
		}
		if !res.Proven[i] {
			return errf(stage, ri.off, "memory access in %s not provably within the data region", op)
		}
	}
	return nil
}

// buildCode lowers R into the shared analysis representation.
func buildCode(b *oelf.Binary, r []rinst) (*analysis.Code, error) {
	byOff := make(map[int]int, len(r))
	for i, ri := range r {
		byOff[ri.off] = i
	}
	nodes := make([]analysis.Node, len(r))
	for i, ri := range r {
		target := -1
		if ri.inst.Op.IsDirectBranch() {
			t, ok := byOff[ri.off+ri.n+int(int32(ri.inst.Imm))]
			if !ok {
				return nil, errf(4, ri.off, "direct branch target not in R")
			}
			target = t
		}
		// Fallthrough adjacency: the analysis engine treats node i+1
		// as the fallthrough; verify that holds whenever the
		// instruction can fall through.
		if !ri.inst.Op.IsUncondTransfer() {
			if i+1 >= len(r) || r[i+1].off != ri.off+ri.n {
				return nil, errf(4, ri.off, "instruction falls through into unverified bytes")
			}
		}
		_, guardLoad := cfiGuardAt(r, i) // a cfi_guard's load is exempt
		nodes[i] = analysis.Node{
			Inst:   ri.inst,
			Target: target,
			Addr:   uint64(ri.off),
			Next:   uint64(ri.off + ri.n),
			Exempt: guardLoad,
		}
	}
	return &analysis.Code{
		Nodes:     nodes,
		GuardSize: int64(b.Image.GuardSize),
		CodeSpan:  int64(b.Image.CodeSpan()),
		MinData:   int64(b.Image.MinDataSize()),
	}, nil
}
