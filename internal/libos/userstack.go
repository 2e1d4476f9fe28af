package libos

import (
	"encoding/binary"
	"errors"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/mpx"
	"repro/internal/vm"
)

// PlaceCode copies code into dst, the len(code) bytes it will run from
// in domain id, with the cfi_label at each offset of labels rewritten
// to carry id (loader duty 2). labels are code's cfi_labels, as
// isa.FindCFIMagic finds them.
func PlaceCode(dst, code []byte, labels []int, id uint32) {
	copy(dst, code)
	for _, off := range labels {
		binary.LittleEndian.PutUint32(dst[off+4:], id)
	}
}

// EnterDomain points cpu at entry inside domain id, whose data region
// is [dataBase, dataBase+dataSize), and initialises its MPX bounds
// (loader duty 4): BND0 confines memory accesses to the data region and
// BND1 makes cfi_guard an equality test on id's cfi_label.
func EnterDomain(cpu *vm.CPU, id uint32, entry, dataBase, dataSize uint64) {
	cpu.PC = entry
	cpu.Bnd.Set(isa.BND0, mpx.Bound{Lower: dataBase, Upper: dataBase + dataSize - 1})
	v := isa.CFILabelValue(id)
	cpu.Bnd.Set(isa.BND1, mpx.Bound{Lower: v, Upper: v})
}

// SetupUserStack writes the auxiliary-vector block at the top of the data
// region and initializes the CPU's SP, R10 and PC-independent state for a
// fresh process whose argv is path followed by args. It is shared between
// the Occlum loader and the baseline kernels so every system presents the
// identical process-start ABI. The block is written in place, through one
// write loan over its pages, so a spawn stages no copy of it.
//
// Returns the heap bounds carved between the static data and the stack.
func SetupUserStack(as *mem.Paged, cpu *vm.CPU, trampAddr, dataBase, dataSize, stackSize, minData uint64, path string, args []string) (heapBase, heapEnd uint64, err error) {
	stackTop := dataBase + dataSize
	heapBase = dataBase + (minData+15)/16*16
	heapEnd = stackTop - stackSize

	argc := 1 + len(args)
	strLen := len(path) + 1
	for _, a := range args {
		strLen += len(a) + 1
	}
	hdrLen := uint64(AuxArgv) + uint64(8*argc)
	blockLen := (hdrLen + uint64(strLen) + 15) / 16 * 16
	blockAddr := stackTop - blockLen

	v, f := as.ViewBytes(blockAddr, int(blockLen), mem.AccessWrite)
	if f != nil {
		return 0, 0, f
	}
	block, le := v.B, binary.LittleEndian
	le.PutUint64(block[AuxTrampoline:], trampAddr)
	le.PutUint64(block[AuxHeapBase:], heapBase)
	le.PutUint64(block[AuxHeapEnd:], heapEnd)
	le.PutUint64(block[AuxArgc:], uint64(argc))
	off := hdrLen
	for i := 0; i < argc; i++ {
		a := path
		if i > 0 {
			a = args[i-1]
		}
		le.PutUint64(block[AuxArgv+8*i:], blockAddr+off)
		off += uint64(copy(block[off:], a))
		block[off] = 0
		off++
	}
	clear(block[off:])
	if !v.CommitWrite(len(block)) {
		return 0, 0, errors.New("libos: stack remapped during process setup")
	}
	cpu.Regs[isa.SP] = blockAddr &^ 15
	cpu.Regs[isa.R10] = blockAddr
	return heapBase, heapEnd, nil
}

// EncodeTrampoline returns the encoded syscall gate for a domain:
// cfi_label (with the domain ID) followed by trap.
func EncodeTrampoline(domainID uint32) []byte {
	var tramp []byte
	tramp, err := isaEncode(tramp, isa.Inst{Op: isa.OpCFILabel, DomainID: domainID})
	if err != nil {
		panic(err)
	}
	tramp, err = isaEncode(tramp, isa.Inst{Op: isa.OpTrap})
	if err != nil {
		panic(err)
	}
	return tramp
}

func isaEncode(dst []byte, in isa.Inst) ([]byte, error) { return isa.Encode(dst, in) }
