// Package specint provides the CPU-intensive kernel suite standing in for
// SPECint 2006 in the paper's Figure 7: twelve synthetic kernels, each
// with the characteristic instruction mix of its namesake (pointer
// chasing for mcf, call-dense dispatch for perlbench, streaming stores
// for libquantum, and so on).
//
// The kernels run on the bare virtual CPU, with and without MMDSFI
// instrumentation; because the interpreter counts retired instructions,
// the overhead numbers are exact and deterministic, not subject to
// measurement noise.
package specint

import (
	"encoding/binary"
	"fmt"

	"repro/internal/asm"
	"repro/internal/baseline"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/mmdsfi"
	"repro/internal/oelf"
	"repro/internal/vm"
)

// Recipe describes a kernel's per-iteration instruction mix.
type Recipe struct {
	// Name is the SPECint component this kernel models.
	Name string
	// Loads / Stores per iteration over a working array.
	Loads, Stores int
	// Chase is the length of a pointer-chasing walk per iteration
	// (dependent loads — the mcf/omnetpp access pattern).
	Chase int
	// Alu is the number of pure register operations per iteration.
	Alu int
	// Calls is the number of leaf-function calls per iteration; every
	// call's return is an indirect transfer under MMDSFI (the
	// dispatch-dense perlbench/xalancbmk pattern).
	Calls int
	// Branches adds extra conditional branches per iteration.
	Branches int
}

// Suite is the twelve-kernel suite of Figure 7a. The mixes follow the
// qualitative characterization of SPECint 2006: perlbench/gcc/xalancbmk
// are call- and branch-dense, mcf/omnetpp chase pointers, libquantum
// streams, hmmer/h264ref are load-dominated array code.
var Suite = []Recipe{
	{Name: "perlbench", Loads: 4, Stores: 2, Alu: 6, Calls: 4, Branches: 3},
	{Name: "bzip2", Loads: 6, Stores: 4, Alu: 10, Calls: 0, Branches: 2},
	{Name: "gcc", Loads: 5, Stores: 2, Chase: 2, Alu: 8, Calls: 3, Branches: 4},
	{Name: "mcf", Chase: 8, Loads: 1, Stores: 1, Alu: 4, Calls: 0, Branches: 1},
	{Name: "gobmk", Loads: 3, Stores: 1, Alu: 8, Calls: 2, Branches: 5},
	{Name: "hmmer", Loads: 10, Stores: 2, Alu: 12, Calls: 0, Branches: 1},
	{Name: "sjeng", Loads: 3, Stores: 1, Alu: 9, Calls: 2, Branches: 4},
	{Name: "libquantum", Loads: 2, Stores: 6, Alu: 12, Calls: 0, Branches: 1},
	{Name: "h264ref", Loads: 8, Stores: 3, Alu: 10, Calls: 1, Branches: 2},
	{Name: "omnetpp", Chase: 5, Loads: 2, Stores: 2, Alu: 5, Calls: 3, Branches: 2},
	{Name: "astar", Loads: 5, Stores: 1, Chase: 3, Alu: 6, Calls: 1, Branches: 3},
	{Name: "xalancbmk", Loads: 4, Stores: 2, Alu: 5, Calls: 4, Branches: 3},
}

const (
	arraySize = 1 << 14 // bytes; well within one domain
	chaseLen  = 256     // nodes in the pointer-chasing ring
)

// Build generates the kernel program for a recipe, running the mix for
// the given number of iterations. The program ends with a trap (the bare
// runner's exit signal) and never needs an OS.
func Build(r Recipe, iters int) (*asm.Program, error) {
	b := asm.NewBuilder()
	// Working array and pointer-chasing ring, pre-linked at build time
	// (offsets relative to the data region).
	ring := make([]byte, chaseLen*8)
	for i := 0; i < chaseLen; i++ {
		next := uint64((i + 97) % chaseLen * 8) // co-prime stride
		binary.LittleEndian.PutUint64(ring[i*8:], next)
	}
	b.Bytes("ring", ring)
	b.Zero("arr", arraySize)

	b.Entry("_start")
	b.MovRI(isa.R9, int64(iters)) // iteration counter
	b.LeaData(isa.R8, "arr")      // array base
	b.LeaData(isa.R7, "ring")     // ring base
	b.MovRI(isa.R6, 0)            // chase cursor (offset)
	b.MovRI(isa.R5, 0)            // array cursor
	b.MovRI(isa.R0, 0)            // accumulator

	b.Label("iter")

	// Array accesses: compute the block pointer once, then access at
	// small offsets — the common compiled-code shape that lets both
	// the real and the reproduced optimizer drop all but the first
	// mem_guard of the block (§4.3, redundant check elimination).
	if r.Loads > 0 || r.Stores > 0 {
		b.MovRR(isa.R4, isa.R8)
		b.Add(isa.R4, isa.R5)
	}
	for i := 0; i < r.Loads; i++ {
		b.Load(isa.R3, isa.Mem(isa.R4, int32(i*8%512)))
		b.Add(isa.R0, isa.R3)
	}
	for i := 0; i < r.Stores; i++ {
		b.Store(isa.Mem(isa.R4, int32(512+i*8%512)), isa.R0)
	}
	// Pointer chase: r6 = ring[r6].
	for i := 0; i < r.Chase; i++ {
		b.MovRR(isa.R4, isa.R7)
		b.Add(isa.R4, isa.R6)
		b.Load(isa.R6, isa.Mem(isa.R4, 0))
	}
	// ALU work.
	for i := 0; i < r.Alu; i++ {
		switch i % 4 {
		case 0:
			b.MulI(isa.R0, 33)
		case 1:
			b.AddI(isa.R0, 0x9E37)
		case 2:
			b.Xor(isa.R0, isa.R5)
		case 3:
			b.ShrI(isa.R0, 1)
		}
	}
	// Leaf calls (each return is an indirect transfer under MMDSFI).
	for i := 0; i < r.Calls; i++ {
		b.Call(fmt.Sprintf("leaf%d", i%2))
	}
	// Extra conditional branches.
	for i := 0; i < r.Branches; i++ {
		skip := fmt.Sprintf("b%d", i)
		b.Test(isa.R0, isa.R0)
		b.Jne(skip)
		b.AddI(isa.R0, 1)
		b.Label(skip)
		b.Nop()
	}

	// Advance cursors, loop.
	b.AddI(isa.R5, 128)
	b.AndI(isa.R5, arraySize-129)
	b.SubI(isa.R9, 1)
	b.CmpI(isa.R9, 0)
	b.Jg("iter")
	b.I(isa.Inst{Op: isa.OpTrap})

	// Leaf functions with realistic bodies (a dozen instructions, so
	// the per-call CFI cost amortizes the way it does over real
	// functions).
	for i := 0; i < 2; i++ {
		b.Func(fmt.Sprintf("leaf%d", i))
		b.AddI(isa.R0, int32(i+1))
		b.MulI(isa.R0, 17)
		b.MovRR(isa.R3, isa.R0)
		b.ShrI(isa.R3, 7)
		b.Xor(isa.R0, isa.R3)
		b.MulI(isa.R0, 31)
		b.AddI(isa.R0, 0x1F3)
		b.MovRR(isa.R3, isa.R0)
		b.ShrI(isa.R3, 13)
		b.Xor(isa.R0, isa.R3)
		b.Ret()
	}
	return b.Finish()
}

// Run executes a linked kernel image on a bare MMDSFI domain and returns
// the retired instruction count. Instrumented and plain images run on the
// identical layout, so cycle ratios are directly comparable.
func Run(img *oelf.Image) (uint64, error) {
	dSize := (img.MinDataSize() + 64<<10 + mem.PageSize - 1) / mem.PageSize * mem.PageSize
	c, err := baseline.BareDomain(img, 1, 0x100000, dSize)
	if err != nil {
		return 0, err
	}
	st := c.Run(0)
	if st.Reason != vm.StopTrap {
		return 0, fmt.Errorf("specint: kernel stopped with %v", st)
	}
	return c.Cycles, nil
}

// Measure builds, links and runs a recipe under the given instrumentation
// options, returning retired cycles.
func Measure(r Recipe, iters int, opts mmdsfi.Options) (uint64, error) {
	prog, err := Build(r, iters)
	if err != nil {
		return 0, err
	}
	ip, err := mmdsfi.Instrument(prog, opts)
	if err != nil {
		return 0, err
	}
	img, err := asm.Link(ip)
	if err != nil {
		return 0, err
	}
	return Run(img)
}

// Overhead returns the relative slowdown of instrumented vs plain
// execution for a recipe: (instrumented − base) / base.
func Overhead(r Recipe, iters int, opts mmdsfi.Options) (float64, error) {
	base, err := Measure(r, iters, mmdsfi.Options{})
	if err != nil {
		return 0, err
	}
	instr, err := Measure(r, iters, opts)
	if err != nil {
		return 0, err
	}
	return float64(instr)/float64(base) - 1, nil
}
