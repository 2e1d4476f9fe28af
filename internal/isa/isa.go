// Package isa defines the OVM instruction set architecture: a synthetic
// 64-bit ISA that stands in for x86-64 in this reproduction of the Occlum
// paper (ASPLOS'20).
//
// OVM deliberately reproduces the x86-64 properties that the paper's MMDSFI
// scheme and binary verifier depend on:
//
//   - Variable-length instruction encoding, so a faulty control transfer can
//     land in the middle of an instruction and decode garbage (the hazard
//     that drives Stage 1 of the verifier).
//   - Scale-index-base (SIB) memory operands, PC-relative operands, absolute
//     ("direct memory offset") operands and a vector-SIB scatter, matching
//     every row of the paper's Figure 4.
//   - Direct, register-indirect, memory-indirect and return-based control
//     transfers, matching every row of Figure 3.
//   - MPX-style bound registers bnd0..bnd3 with lower/upper check
//     instructions that raise a #BR exception, plus the dangerous
//     bound-mutating instructions (bndmk/bndmov).
//   - A set of privileged/dangerous instructions standing in for the SGX
//     (eexit/eaccept/emodpe) and miscellaneous (xrstor/wrfsbase/wrgsbase)
//     instructions that the verifier's Stage 2 must reject.
//   - An 8-byte cfi_label encoding whose first four bytes form a magic
//     sequence that cannot appear in well-formed uninstrumented code and
//     whose last four bytes hold a domain ID.
package isa

import "fmt"

// PageSize is the page granularity, matching SGX EPC pages: the unit of
// memory permissions and of a domain's code-segment padding.
const PageSize = 4096

// Reg identifies one of the sixteen 64-bit general-purpose registers.
//
// Register conventions (mirroring the paper's toolchain-reserved registers):
//
//	R0        syscall number / syscall return value
//	R1..R5    syscall arguments; general use otherwise
//	R10       process-entry pointer to the auxiliary vector
//	R13       toolchain scratch: holds popped return targets (ret rewriting)
//	R14       toolchain scratch: cfi_guard load target
//	R15 (SP)  stack pointer (push/pop operate on it implicitly)
type Reg uint8

// General purpose registers.
const (
	R0 Reg = iota
	R1
	R2
	R3
	R4
	R5
	R6
	R7
	R8
	R9
	R10
	R11
	R12
	R13
	R14
	R15

	// SP is the conventional stack pointer (alias of R15).
	SP = R15
	// RetScratch is the toolchain-reserved register used by MMDSFI's
	// ret rewriting (pop target, cfi_guard it, jump).
	RetScratch = R13
	// GuardScratch is the toolchain-reserved register used by cfi_guard
	// to hold the 8 bytes loaded from a prospective indirect target.
	GuardScratch = R14

	// NumRegs is the number of general-purpose registers.
	NumRegs = 16

	// RegNone marks an absent base or index register in a MemRef.
	RegNone Reg = 0xFF
	// RegPC marks a PC-relative base in a MemRef (the x86 RIP-relative
	// addressing mode). The effective address is the address of the
	// *next* instruction plus the displacement.
	RegPC Reg = 0xFE
)

// Valid reports whether r names a real general-purpose register.
func (r Reg) Valid() bool { return r < NumRegs }

// String returns the assembly name of the register.
func (r Reg) String() string {
	switch r {
	case RegNone:
		return "none"
	case RegPC:
		return "pc"
	case R15:
		return "sp"
	default:
		return fmt.Sprintf("r%d", uint8(r))
	}
}

// BndReg identifies one of the four MPX bound registers.
type BndReg uint8

// MPX bound registers. The Occlum LibOS initializes BND0 to the data region
// [D.begin, D.end) of the running SIP's domain and BND1 to the exact 8-byte
// cfi_label value of that domain, so that bndcl+bndcu against BND1 is an
// equality test.
const (
	BND0 BndReg = iota
	BND1
	BND2
	BND3

	// NumBndRegs is the number of MPX bound registers.
	NumBndRegs = 4
)

// Valid reports whether b names a real bound register.
func (b BndReg) Valid() bool { return b < NumBndRegs }

// String returns the assembly name of the bound register.
func (b BndReg) String() string { return fmt.Sprintf("bnd%d", uint8(b)) }

// MemRef is an OVM memory operand: base + index*scale + disp.
//
// The operand shapes map onto the paper's Figure 4 categories:
//
//   - Base set, Index optional: scale-index-base (SIB) addressing.
//   - Base == RegPC: RIP-relative addressing.
//   - Base == RegNone and Index == RegNone: direct memory offset (an
//     absolute address); the verifier rejects this form.
//   - Used by OpVScatter: vector SIB; the verifier rejects it.
type MemRef struct {
	// Base is the base register, RegNone for none, or RegPC for
	// PC-relative addressing.
	Base Reg
	// Index is the index register or RegNone.
	Index Reg
	// Scale multiplies the index register; it must be 1, 2, 4 or 8.
	// A zero Scale is normalized to 1 when the Index is absent.
	Scale uint8
	// Disp is the signed 32-bit displacement.
	Disp int32
}

// Abs returns a direct-memory-offset operand for the absolute address addr.
// The Occlum verifier rejects instructions using this form (Figure 4).
func Abs(addr int32) MemRef { return MemRef{Base: RegNone, Index: RegNone, Scale: 1, Disp: addr} }

// Mem returns a base+disp memory operand.
func Mem(base Reg, disp int32) MemRef {
	return MemRef{Base: base, Index: RegNone, Scale: 1, Disp: disp}
}

// MemSIB returns a full scale-index-base memory operand.
func MemSIB(base, index Reg, scale uint8, disp int32) MemRef {
	return MemRef{Base: base, Index: index, Scale: scale, Disp: disp}
}

// MemPC returns a PC-relative memory operand. The effective address is the
// address of the next instruction plus disp.
func MemPC(disp int32) MemRef {
	return MemRef{Base: RegPC, Index: RegNone, Scale: 1, Disp: disp}
}

// IsAbs reports whether m is a direct memory offset (no base, no index).
func (m MemRef) IsAbs() bool { return m.Base == RegNone && m.Index == RegNone }

// IsPCRel reports whether m is PC-relative.
func (m MemRef) IsPCRel() bool { return m.Base == RegPC }

// HasIndex reports whether m uses an index register.
func (m MemRef) HasIndex() bool { return m.Index != RegNone && m.Index != RegPC }

// ValidScale reports whether the scale factor is one of 1, 2, 4, 8.
func (m MemRef) ValidScale() bool {
	switch m.Scale {
	case 1, 2, 4, 8:
		return true
	}
	return false
}

// String renders the operand in a readable [base+index*scale+disp] form.
func (m MemRef) String() string {
	s := "["
	switch {
	case m.IsAbs():
		return fmt.Sprintf("[abs %#x]", uint32(m.Disp))
	case m.IsPCRel():
		s += "pc"
	default:
		s += m.Base.String()
	}
	if m.HasIndex() {
		s += fmt.Sprintf("+%s*%d", m.Index, m.Scale)
	}
	if m.Disp != 0 {
		s += fmt.Sprintf("%+d", m.Disp)
	}
	return s + "]"
}
