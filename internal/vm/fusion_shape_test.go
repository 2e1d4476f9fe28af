package vm_test

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/mmdsfi"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// TestTraceFusionShape pins the dispatch count of the two workload loops
// trace fusion exists for, as MMDSFI instruments them: cc1's
// (workloads.BuildCompilerStage: a load, three ALU-immediate ops and a
// store to the same word, then the cursor pair) and od's (a byte
// load/xor/store and the cursor pair). Each loop is entered the way the
// stage enters it and run until its trace forms; the trace unrolls the
// loop to the 64-instruction cap, and every iteration costs three slots
// fused — loop guard, read-modify-write, induction pair — against eight
// (cc1) and six (od) unfused. A slot count is exact where a wall clock
// is not: this is the tier-1 hold on the dispatch count.
func TestTraceFusionShape(t *testing.T) {
	for _, w := range []struct {
		name       string
		build      func() (*asm.Program, error)
		loop       string // the loop's label
		iterInsts  uint64 // instructions per loop iteration
		iters      int    // iterations the trace unrolls
		slots      int    // slots per iteration, fused
		slotsNoFus int    // slots per iteration, unfused
	}{
		{"cc1", func() (*asm.Program, error) { return workloads.BuildCompilerStage(1, 0) }, "wloop", 10, 6, 3, 8},
		{"od", workloads.BuildOd, "odloop", 8, 8, 3, 6},
	} {
		for _, fused := range []bool{true, false} {
			old := vm.SetFusion(fused)
			sh := loopTrace(t, w.name, w.build, w.loop)
			vm.SetFusion(old)
			want := w.slots
			if !fused {
				want = w.slotsNoFus
			}
			if sh.Insts != w.iterInsts*uint64(w.iters) || sh.Blocks != 2*w.iters {
				t.Errorf("%s (fused %v): trace of %d instructions in %d blocks, want %d iterations of %d",
					w.name, fused, sh.Insts, sh.Blocks, w.iters, w.iterInsts)
			}
			if sh.Slots != want*w.iters {
				t.Errorf("%s (fused %v): %d slots for %d iterations, want %d per iteration",
					w.name, fused, sh.Slots, w.iters, want)
			}
		}
	}
}

// loopTrace instruments and links the stage, maps it, enters the loop
// at loop the way the stage does, through the lea/mov pair that falls
// into it, with a full 4 KiB buffer (r7) to sweep, runs 3000
// instructions and returns the superblock anchored at the loop body,
// right after the loop guard (cmpi; jcc): the body's block heats first,
// as the guard's first run belongs to the block before it.
func loopTrace(t *testing.T, name string, build func() (*asm.Program, error), loop string) vm.TraceShape {
	t.Helper()
	p, err := build()
	if err != nil {
		t.Fatal(err)
	}
	if p, err = mmdsfi.Instrument(p, mmdsfi.DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	img, err := asm.Link(p)
	if err != nil {
		t.Fatal(err)
	}
	const base = 0x100000
	dbase := base + img.DataStart()
	dsize := (img.MinDataSize() + mem.PageSize - 1) / mem.PageSize * mem.PageSize
	m := mem.NewPaged(base, dbase+dsize-base)
	if err := m.Map(base, img.CodeSpan(), mem.PermRX); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteDirect(base, img.Code); err != nil {
		t.Fatal(err)
	}
	if err := m.Map(dbase, dsize, mem.PermRW); err != nil {
		t.Fatal(err)
	}
	c := vm.New(m)
	const prologue, guard = 9 + 3, 6 + 5 // lea + mov; cmpi + jcc
	head := base + uint64(img.Symbols[loop])
	c.PC = head - prologue
	c.Regs[isa.R7] = 4096
	if st := c.Run(3000); st.Reason != vm.StopCycles {
		t.Fatalf("%s: stop = %v", name, st)
	}
	for _, sh := range c.TraceShapes() {
		if sh.Anchor == head+guard {
			return sh
		}
	}
	t.Fatalf("%s: no superblock anchored at the loop body: %+v", name, c.TraceShapes())
	return vm.TraceShape{}
}
