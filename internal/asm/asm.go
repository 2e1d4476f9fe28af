// Package asm provides the program representation and builder used by the
// Occlum toolchain: a symbolic assembly layer over internal/isa, with
// labels, data symbols and a linker that lays out MMDSFI-compatible
// binaries.
//
// Programs are built either with the Builder API (used by the workload
// generators and tests) or parsed from .oasm text (cmd/occlum-as). Both
// produce a Program of Items — instructions that still carry symbolic
// branch targets and data references. The MMDSFI instrumenter
// (internal/mmdsfi) transforms Programs; the linker resolves symbols and
// emits raw code/data images.
package asm

import (
	"fmt"

	"repro/internal/isa"
)

// Item is one instruction plus its symbolic decorations.
type Item struct {
	// Inst is the instruction. For direct branches, Inst.Label carries
	// the symbolic target until link time.
	Inst isa.Inst
	// Labels are the labels defined at this instruction.
	Labels []string
	// DataSym, when non-empty, names a data symbol; at link time the
	// instruction's memory operand becomes PC-relative with a
	// displacement reaching the symbol in the data region.
	DataSym string
}

// Program is a not-yet-linked unit: symbolic instructions plus an
// initialized data section.
type Program struct {
	// Items are the instructions in layout order.
	Items []Item
	// FuncLabels marks labels that are entered indirectly (function
	// entries, jump-table targets, return sites). The MMDSFI
	// instrumenter places a cfi_label at each.
	FuncLabels map[string]bool
	// Entry is the label where execution starts. It must be a
	// FuncLabel (the LibOS enters programs only at cfi_labels).
	Entry string
	// Data is the initialized data section.
	Data []byte
	// DataSyms maps data symbol names to offsets in Data.
	DataSyms map[string]uint32
	// BSS is the size of the zero-initialized region following Data.
	BSS uint32
}

// NewProgram returns an empty program.
func NewProgram() *Program {
	return &Program{
		FuncLabels: make(map[string]bool),
		DataSyms:   make(map[string]uint32),
	}
}

// LabelIndex returns a map from label name to the index of the item that
// defines it, or an error for duplicate definitions.
func (p *Program) LabelIndex() (map[string]int, error) {
	idx := make(map[string]int)
	for i, it := range p.Items {
		for _, l := range it.Labels {
			if _, dup := idx[l]; dup {
				return nil, fmt.Errorf("asm: duplicate label %q", l)
			}
			idx[l] = i
		}
	}
	return idx, nil
}

// Builder incrementally constructs a Program. Methods record the first
// error encountered; Finish reports it.
type Builder struct {
	p   *Program
	err error
	// pending are labels waiting to attach to the next instruction.
	pending []string
	uniq    int
}

// Uniq returns a fresh label name with the given prefix, for helper
// libraries that emit internal control flow.
func (b *Builder) Uniq(prefix string) string {
	b.uniq++
	return fmt.Sprintf("%s$%d", prefix, b.uniq)
}

// NewBuilder returns a Builder over a fresh Program.
func NewBuilder() *Builder {
	return &Builder{p: NewProgram()}
}

// Finish returns the built program, or the first recorded error. It also
// verifies that all referenced labels and data symbols are defined.
func (b *Builder) Finish() (*Program, error) {
	if b.err != nil {
		return nil, b.err
	}
	if len(b.pending) > 0 {
		return nil, fmt.Errorf("asm: trailing labels %v not attached to an instruction", b.pending)
	}
	idx, err := b.p.LabelIndex()
	if err != nil {
		return nil, err
	}
	for _, it := range b.p.Items {
		if it.Inst.Label != "" {
			if _, ok := idx[it.Inst.Label]; !ok {
				return nil, fmt.Errorf("asm: undefined label %q", it.Inst.Label)
			}
		}
		if it.DataSym != "" {
			if _, ok := b.p.DataSyms[it.DataSym]; !ok {
				return nil, fmt.Errorf("asm: undefined data symbol %q", it.DataSym)
			}
		}
	}
	if b.p.Entry == "" {
		return nil, fmt.Errorf("asm: program has no entry point")
	}
	if _, ok := idx[b.p.Entry]; !ok {
		return nil, fmt.Errorf("asm: entry label %q undefined", b.p.Entry)
	}
	return b.p, nil
}

func (b *Builder) fail(format string, args ...any) {
	if b.err == nil {
		b.err = fmt.Errorf("asm: "+format, args...)
	}
}

// emit appends an instruction, attaching pending labels.
func (b *Builder) emit(it Item) {
	it.Labels = append(it.Labels, b.pending...)
	b.pending = nil
	b.p.Items = append(b.p.Items, it)
}

// I appends a raw instruction.
func (b *Builder) I(in isa.Inst) *Builder {
	b.emit(Item{Inst: in})
	return b
}

// Label defines a local label (a direct-branch target) at the next
// instruction.
func (b *Builder) Label(name string) *Builder {
	b.pending = append(b.pending, name)
	return b
}

// Func defines a function entry: a label that may be reached indirectly.
// The MMDSFI instrumenter will place a cfi_label here.
func (b *Builder) Func(name string) *Builder {
	b.p.FuncLabels[name] = true
	return b.Label(name)
}

// Entry defines the program entry function.
func (b *Builder) Entry(name string) *Builder {
	if b.p.Entry != "" {
		b.fail("duplicate entry point %q", name)
		return b
	}
	b.p.Entry = name
	return b.Func(name)
}

// DeclareFunc marks name as an indirect-entry label without defining it;
// the label itself must appear separately (used by the text assembler,
// where "name:" is written explicitly).
func (b *Builder) DeclareFunc(name string) *Builder {
	b.p.FuncLabels[name] = true
	return b
}

// DeclareEntry sets the entry point without defining the label.
func (b *Builder) DeclareEntry(name string) *Builder {
	if b.p.Entry != "" {
		b.fail("duplicate entry point %q", name)
		return b
	}
	b.p.Entry = name
	return b.DeclareFunc(name)
}

// Bytes defines an initialized data symbol with the given content.
func (b *Builder) Bytes(sym string, data []byte) *Builder {
	if _, dup := b.p.DataSyms[sym]; dup {
		b.fail("duplicate data symbol %q", sym)
		return b
	}
	// Align symbols to 8 bytes so 64-bit loads of symbol words are
	// naturally aligned.
	for len(b.p.Data)%8 != 0 {
		b.p.Data = append(b.p.Data, 0)
	}
	b.p.DataSyms[sym] = uint32(len(b.p.Data))
	b.p.Data = append(b.p.Data, data...)
	return b
}

// Zero defines a zero-initialized data symbol of n bytes (allocated in the
// initialized data section for addressing simplicity).
func (b *Builder) Zero(sym string, n int) *Builder {
	return b.Bytes(sym, make([]byte, n))
}

// String defines a NUL-terminated string symbol.
func (b *Builder) String(sym, s string) *Builder {
	return b.Bytes(sym, append([]byte(s), 0))
}

// ReserveBSS adds n bytes to the zero-initialized tail of the data region.
func (b *Builder) ReserveBSS(n uint32) *Builder {
	b.p.BSS += n
	return b
}

// --- Instruction helpers -------------------------------------------------

// MovRI emits movri dst, imm64.
func (b *Builder) MovRI(dst isa.Reg, imm int64) *Builder {
	return b.I(isa.Inst{Op: isa.OpMovRI, R1: dst, Imm: imm})
}

// MovRR emits mov dst, src.
func (b *Builder) MovRR(dst, src isa.Reg) *Builder {
	return b.I(isa.Inst{Op: isa.OpMovRR, R1: dst, R2: src})
}

// Load emits load dst, mem (64-bit).
func (b *Builder) Load(dst isa.Reg, m isa.MemRef) *Builder {
	return b.I(isa.Inst{Op: isa.OpLoad, R1: dst, Mem: m})
}

// LoadB emits loadb dst, mem (8-bit, zero-extended).
func (b *Builder) LoadB(dst isa.Reg, m isa.MemRef) *Builder {
	return b.I(isa.Inst{Op: isa.OpLoadB, R1: dst, Mem: m})
}

// Store emits store mem, src (64-bit).
func (b *Builder) Store(m isa.MemRef, src isa.Reg) *Builder {
	return b.I(isa.Inst{Op: isa.OpStore, R1: src, Mem: m})
}

// StoreB emits storeb mem, src (low byte).
func (b *Builder) StoreB(m isa.MemRef, src isa.Reg) *Builder {
	return b.I(isa.Inst{Op: isa.OpStoreB, R1: src, Mem: m})
}

// LeaData emits lea dst, <sym>: the address of a data symbol, resolved at
// link time into a PC-relative operand.
func (b *Builder) LeaData(dst isa.Reg, sym string) *Builder {
	b.emit(Item{Inst: isa.Inst{Op: isa.OpLea, R1: dst, Mem: isa.MemPC(0)}, DataSym: sym})
	return b
}

// LoadData emits load dst, <sym> from a data symbol.
func (b *Builder) LoadData(dst isa.Reg, sym string) *Builder {
	b.emit(Item{Inst: isa.Inst{Op: isa.OpLoad, R1: dst, Mem: isa.MemPC(0)}, DataSym: sym})
	return b
}

// StoreData emits store <sym>, src to a data symbol.
func (b *Builder) StoreData(sym string, src isa.Reg) *Builder {
	b.emit(Item{Inst: isa.Inst{Op: isa.OpStore, R1: src, Mem: isa.MemPC(0)}, DataSym: sym})
	return b
}

// Push emits push src.
func (b *Builder) Push(src isa.Reg) *Builder { return b.I(isa.Inst{Op: isa.OpPush, R1: src}) }

// Pop emits pop dst.
func (b *Builder) Pop(dst isa.Reg) *Builder { return b.I(isa.Inst{Op: isa.OpPop, R1: dst}) }

// Alu emits a register-register ALU instruction.
func (b *Builder) Alu(op isa.Op, dst, src isa.Reg) *Builder {
	return b.I(isa.Inst{Op: op, R1: dst, R2: src})
}

// AluI emits a register-immediate ALU instruction.
func (b *Builder) AluI(op isa.Op, dst isa.Reg, imm int32) *Builder {
	return b.I(isa.Inst{Op: op, R1: dst, Imm: int64(imm)})
}

// Add emits add dst, src.
func (b *Builder) Add(dst, src isa.Reg) *Builder { return b.Alu(isa.OpAddRR, dst, src) }

// AddI emits add dst, imm.
func (b *Builder) AddI(dst isa.Reg, imm int32) *Builder { return b.AluI(isa.OpAddRI, dst, imm) }

// Sub emits sub dst, src.
func (b *Builder) Sub(dst, src isa.Reg) *Builder { return b.Alu(isa.OpSubRR, dst, src) }

// SubI emits sub dst, imm.
func (b *Builder) SubI(dst isa.Reg, imm int32) *Builder { return b.AluI(isa.OpSubRI, dst, imm) }

// Mul emits mul dst, src.
func (b *Builder) Mul(dst, src isa.Reg) *Builder { return b.Alu(isa.OpMulRR, dst, src) }

// MulI emits mul dst, imm.
func (b *Builder) MulI(dst isa.Reg, imm int32) *Builder { return b.AluI(isa.OpMulRI, dst, imm) }

// Div emits div dst, src (signed).
func (b *Builder) Div(dst, src isa.Reg) *Builder { return b.Alu(isa.OpDivRR, dst, src) }

// And emits and dst, src.
func (b *Builder) And(dst, src isa.Reg) *Builder { return b.Alu(isa.OpAndRR, dst, src) }

// AndI emits and dst, imm.
func (b *Builder) AndI(dst isa.Reg, imm int32) *Builder { return b.AluI(isa.OpAndRI, dst, imm) }

// Or emits or dst, src.
func (b *Builder) Or(dst, src isa.Reg) *Builder { return b.Alu(isa.OpOrRR, dst, src) }

// Xor emits xor dst, src.
func (b *Builder) Xor(dst, src isa.Reg) *Builder { return b.Alu(isa.OpXorRR, dst, src) }

// XorI emits xor dst, imm.
func (b *Builder) XorI(dst isa.Reg, imm int32) *Builder { return b.AluI(isa.OpXorRI, dst, imm) }

// ShlI emits shl dst, imm.
func (b *Builder) ShlI(dst isa.Reg, imm int32) *Builder { return b.AluI(isa.OpShlRI, dst, imm) }

// ShrI emits shr dst, imm.
func (b *Builder) ShrI(dst isa.Reg, imm int32) *Builder { return b.AluI(isa.OpShrRI, dst, imm) }

// Cmp emits cmp a, b.
func (b *Builder) Cmp(a, r isa.Reg) *Builder { return b.Alu(isa.OpCmpRR, a, r) }

// CmpI emits cmp a, imm.
func (b *Builder) CmpI(a isa.Reg, imm int32) *Builder { return b.AluI(isa.OpCmpRI, a, imm) }

// Test emits test a, b.
func (b *Builder) Test(a, r isa.Reg) *Builder { return b.Alu(isa.OpTestRR, a, r) }

// Jmp emits jmp label.
func (b *Builder) Jmp(label string) *Builder {
	return b.I(isa.Inst{Op: isa.OpJmp, Label: label})
}

// Jcc emits a conditional branch to label.
func (b *Builder) Jcc(op isa.Op, label string) *Builder {
	if !op.IsCondBranch() {
		b.fail("%s is not a conditional branch", op)
		return b
	}
	return b.I(isa.Inst{Op: op, Label: label})
}

// Je emits je label.
func (b *Builder) Je(label string) *Builder { return b.Jcc(isa.OpJe, label) }

// Jne emits jne label.
func (b *Builder) Jne(label string) *Builder { return b.Jcc(isa.OpJne, label) }

// Jl emits jl label.
func (b *Builder) Jl(label string) *Builder { return b.Jcc(isa.OpJl, label) }

// Jle emits jle label.
func (b *Builder) Jle(label string) *Builder { return b.Jcc(isa.OpJle, label) }

// Jg emits jg label.
func (b *Builder) Jg(label string) *Builder { return b.Jcc(isa.OpJg, label) }

// Jge emits jge label.
func (b *Builder) Jge(label string) *Builder { return b.Jcc(isa.OpJge, label) }

// Call emits call label (direct).
func (b *Builder) Call(label string) *Builder {
	b.p.FuncLabels[label] = true
	return b.I(isa.Inst{Op: isa.OpCall, Label: label})
}

// CallR emits callr reg (register-indirect).
func (b *Builder) CallR(r isa.Reg) *Builder { return b.I(isa.Inst{Op: isa.OpCallR, R1: r}) }

// JmpR emits jmpr reg (register-indirect).
func (b *Builder) JmpR(r isa.Reg) *Builder { return b.I(isa.Inst{Op: isa.OpJmpR, R1: r}) }

// Ret emits ret. The MMDSFI instrumenter rewrites it into
// pop+cfi_guard+jmpr; uninstrumented binaries keep the raw ret (and are
// rejected by the verifier, as in the paper).
func (b *Builder) Ret() *Builder { return b.I(isa.Inst{Op: isa.OpRet}) }

// Trap emits the LibOS syscall gate instruction. User programs must not
// emit it (the verifier rejects it); it is used by loaders and tests.
func (b *Builder) Trap() *Builder { return b.I(isa.Inst{Op: isa.OpTrap}) }

// Nop emits nop.
func (b *Builder) Nop() *Builder { return b.I(isa.Inst{Op: isa.OpNop}) }
