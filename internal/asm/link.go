package asm

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/oelf"
)

// Link lays out the program and resolves all symbolic references,
// producing a binary image. The MMDSFI instrumenter (if any) must have run
// before linking: Link is purely mechanical and performs no safety
// transformation.
//
// Link enforces the cfi_label "nonexistence" property: if the 4-byte CFI
// magic appears anywhere in the encoded code other than at a cfi_label, it
// rewrites the offending movri (when possible) or fails.
func Link(p *Program) (*oelf.Image, error) {
	labels, err := p.LabelIndex()
	if err != nil {
		return nil, err
	}
	if p.Entry == "" {
		return nil, fmt.Errorf("asm: program has no entry point")
	}

	// Pass 1: assign addresses.
	addrs := make([]uint32, len(p.Items)+1)
	off := uint32(0)
	for i, it := range p.Items {
		addrs[i] = off
		off += uint32(isa.EncodedLen(it.Inst.Op))
	}
	addrs[len(p.Items)] = off

	dataStart := oelf.CodeSpan(uint64(off)) + oelf.GuardSize

	// Pass 2: encode with resolved operands.
	code := make([]byte, 0, off)
	for i, it := range p.Items {
		in := it.Inst
		next := addrs[i] + uint32(isa.EncodedLen(in.Op))
		if in.Label != "" {
			ti, ok := labels[in.Label]
			if !ok {
				return nil, fmt.Errorf("asm: undefined label %q", in.Label)
			}
			in.Imm = int64(int32(addrs[ti]) - int32(next))
			in.Label = ""
		}
		if it.DataSym != "" {
			symOff, ok := p.DataSyms[it.DataSym]
			if !ok {
				return nil, fmt.Errorf("asm: undefined data symbol %q", it.DataSym)
			}
			disp := int64(dataStart) + int64(symOff) + int64(in.Mem.Disp) - int64(next)
			if disp < -1<<31 || disp > 1<<31-1 {
				return nil, fmt.Errorf("asm: data symbol %q out of rel32 range", it.DataSym)
			}
			in.Mem = isa.MemRef{Base: isa.RegPC, Index: in.Mem.Index, Scale: in.Mem.Scale, Disp: int32(disp)}
		}
		var err error
		code, err = isa.Encode(code, in)
		if err != nil {
			return nil, fmt.Errorf("asm: item %d (%s): %w", i, it.Inst, err)
		}
	}

	if err := checkNonexistence(code, p, addrs); err != nil {
		return nil, err
	}

	entryIdx := labels[p.Entry]
	syms := make(map[string]uint32, len(labels))
	for l, i := range labels {
		syms[l] = addrs[i]
	}
	dsyms := make(map[string]uint32, len(p.DataSyms))
	for s, off := range p.DataSyms {
		dsyms[s] = off
	}
	img := &oelf.Image{
		Code:        code,
		Data:        append([]byte(nil), p.Data...),
		BSS:         p.BSS,
		Entry:       addrs[entryIdx],
		GuardSize:   oelf.GuardSize,
		Symbols:     syms,
		DataSymbols: dsyms,
	}
	return img, nil
}

// checkNonexistence verifies that the CFI magic bytes appear only at
// cfi_label instruction boundaries (the paper's "nonexistence" property,
// §4.2). The Builder's EncodeSafeImm helpers avoid the common collision
// (an immediate containing the magic); any residual collision is a link
// error rather than a silent security hole.
func checkNonexistence(code []byte, p *Program, addrs []uint32) error {
	labelAt := make(map[int]bool)
	for i, it := range p.Items {
		if it.Inst.Op == isa.OpCFILabel {
			labelAt[int(addrs[i])] = true
		}
	}
	for _, o := range isa.FindCFIMagic(code) {
		if !labelAt[o] {
			return fmt.Errorf("asm: CFI magic bytes occur inside code at offset %#x; "+
				"rewrite the immediate (see Builder.MovRISafe)", o)
		}
	}
	return nil
}

// MovRISafe emits mov dst, imm64 in a way guaranteed not to embed the CFI
// magic byte sequence in the instruction stream: if the plain encoding
// would contain it, the value is materialized as the XOR of two
// magic-free halves.
func (b *Builder) MovRISafe(dst isa.Reg, imm int64) *Builder {
	enc, err := isa.Encode(nil, isa.Inst{Op: isa.OpMovRI, R1: dst, Imm: imm})
	if err == nil && len(isa.FindCFIMagic(enc)) == 0 {
		return b.MovRI(dst, imm)
	}
	const key = int64(0x5A5A5A5A5A5A5A5A)
	b.MovRI(dst, imm^key)
	b.MovRI(isa.GuardScratch, key)
	return b.Alu(isa.OpXorRR, dst, isa.GuardScratch)
}
