package vm

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/mpx"
	"repro/internal/oelf"
)

// loadImage maps a linked image into fresh memory the way a loader would:
// code RX (made RWX to mirror SGX LibOS pools where noted), a guard gap,
// data+bss+stack RW, and a trailing guard page. It returns a CPU ready to
// run at the entry point with SP at the top of the stack.
func loadImage(t testing.TB, img *oelf.Image, stack uint64) *CPU {
	t.Helper()
	const base = 0x100000
	dataSize := (img.MinDataSize() + stack + mem.PageSize - 1) / mem.PageSize * mem.PageSize
	total := img.DataStart() + dataSize + uint64(img.GuardSize)
	m := mem.NewPaged(base, total+mem.PageSize)
	if err := m.Map(base, img.CodeSpan(), mem.PermRX); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteDirect(base, img.Code); err != nil {
		t.Fatal(err)
	}
	dbase := base + img.DataStart()
	if err := m.Map(dbase, dataSize, mem.PermRW); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteDirect(dbase, img.Data); err != nil {
		t.Fatal(err)
	}
	c := New(m)
	c.PC = base + uint64(img.Entry)
	c.Regs[isa.SP] = dbase + dataSize // top of stack
	return c
}

func build(t testing.TB, f func(b *asm.Builder)) *oelf.Image {
	t.Helper()
	b := asm.NewBuilder()
	f(b)
	p, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	img, err := asm.Link(p)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

func TestArithmeticLoop(t *testing.T) {
	// Sum 1..100 into R0.
	img := build(t, func(b *asm.Builder) {
		b.Entry("_start")
		b.MovRI(isa.R0, 0)
		b.MovRI(isa.R2, 1)
		b.Label("loop")
		b.Add(isa.R0, isa.R2)
		b.AddI(isa.R2, 1)
		b.CmpI(isa.R2, 100)
		b.Jle("loop")
		b.Trap()
	})
	c := loadImage(t, img, 4096)
	st := c.Run(0)
	if st.Reason != StopTrap {
		t.Fatalf("stop = %v", st)
	}
	if c.Regs[isa.R0] != 5050 {
		t.Fatalf("sum = %d, want 5050", c.Regs[isa.R0])
	}
}

func TestMemoryAndDataSymbols(t *testing.T) {
	img := build(t, func(b *asm.Builder) {
		b.Bytes("buf", make([]byte, 64))
		b.Entry("_start")
		b.LeaData(isa.R1, "buf")
		b.MovRI(isa.R2, 0xCAFE)
		b.Store(isa.Mem(isa.R1, 8), isa.R2)
		b.Load(isa.R3, isa.Mem(isa.R1, 8))
		b.MovRI(isa.R4, 0x41)
		b.StoreB(isa.Mem(isa.R1, 0), isa.R4)
		b.LoadB(isa.R5, isa.Mem(isa.R1, 0))
		b.Trap()
	})
	c := loadImage(t, img, 4096)
	if st := c.Run(0); st.Reason != StopTrap {
		t.Fatalf("stop = %v", st)
	}
	if c.Regs[isa.R3] != 0xCAFE || c.Regs[isa.R5] != 0x41 {
		t.Fatalf("r3=%#x r5=%#x", c.Regs[isa.R3], c.Regs[isa.R5])
	}
}

func TestCallRet(t *testing.T) {
	img := build(t, func(b *asm.Builder) {
		b.Entry("_start")
		b.MovRI(isa.R1, 20)
		b.MovRI(isa.R2, 22)
		b.Call("addfn")
		b.Trap()
		b.Func("addfn")
		b.MovRR(isa.R0, isa.R1)
		b.Add(isa.R0, isa.R2)
		b.Ret()
	})
	c := loadImage(t, img, 4096)
	if st := c.Run(0); st.Reason != StopTrap {
		t.Fatalf("stop = %v", st)
	}
	if c.Regs[isa.R0] != 42 {
		t.Fatalf("r0 = %d, want 42", c.Regs[isa.R0])
	}
}

func TestIndirectCall(t *testing.T) {
	img := build(t, func(b *asm.Builder) {
		b.Entry("_start")
		b.MovRI(isa.R0, 7)
		// Compute the function address as entry + known offsets is
		// fragile; instead call via a pushed return-style pointer:
		// lea of a label is not exposed, so use call/ret plumbing.
		b.Call("getpc") // r6 = address after this call
		// r6 now points at the addi below; skip it (6 bytes) and the
		// 5-byte jmp to reach "target".
		b.AddI(isa.R6, 11)
		b.Jmp("do")
		b.Label("target")
		b.MovRI(isa.R0, 42)
		b.Trap()
		b.Label("do")
		b.JmpR(isa.R6)
		b.Func("getpc")
		b.Load(isa.R6, isa.Mem(isa.SP, 0))
		b.Ret()
	})
	c := loadImage(t, img, 4096)
	if st := c.Run(0); st.Reason != StopTrap {
		t.Fatalf("stop = %v", st)
	}
	if c.Regs[isa.R0] != 42 {
		t.Fatalf("r0 = %d, want 42", c.Regs[isa.R0])
	}
}

func TestPushPop(t *testing.T) {
	img := build(t, func(b *asm.Builder) {
		b.Entry("_start")
		b.MovRI(isa.R1, 11)
		b.MovRI(isa.R2, 22)
		b.Push(isa.R1)
		b.Push(isa.R2)
		b.Pop(isa.R3)
		b.Pop(isa.R4)
		b.Trap()
	})
	c := loadImage(t, img, 4096)
	sp0 := uint64(0)
	c2 := c // capture initial sp after load
	sp0 = c2.Regs[isa.SP]
	if st := c.Run(0); st.Reason != StopTrap {
		t.Fatalf("stop = %v", st)
	}
	if c.Regs[isa.R3] != 22 || c.Regs[isa.R4] != 11 {
		t.Fatalf("r3=%d r4=%d", c.Regs[isa.R3], c.Regs[isa.R4])
	}
	if c.Regs[isa.SP] != sp0 {
		t.Fatalf("sp not balanced: %#x vs %#x", c.Regs[isa.SP], sp0)
	}
}

func TestGuardRegionFaults(t *testing.T) {
	// A store into the code/data gap (guard region) must raise #PF on
	// an unmapped page — the MMDSFI guard-region mechanism.
	img := build(t, func(b *asm.Builder) {
		b.Bytes("buf", make([]byte, 16))
		b.Entry("_start")
		b.LeaData(isa.R1, "buf")
		b.SubI(isa.R1, 2048) // into the guard gap
		b.Store(isa.Mem(isa.R1, 0), isa.R1)
		b.Trap()
	})
	c := loadImage(t, img, 4096)
	st := c.Run(0)
	if st.Reason != StopException || st.Exc != ExcPage || st.Fault == nil || !st.Fault.Unmapped {
		t.Fatalf("stop = %v, want unmapped #PF", st)
	}
}

func TestNXDataFetchFaults(t *testing.T) {
	// Jumping into the data region must fault: data pages are RW, not X.
	img := build(t, func(b *asm.Builder) {
		b.Bytes("buf", []byte{byte(isa.OpNop), byte(isa.OpNop)})
		b.Entry("_start")
		b.LeaData(isa.R1, "buf")
		b.JmpR(isa.R1)
	})
	c := loadImage(t, img, 4096)
	st := c.Run(0)
	if st.Reason != StopException || st.Exc != ExcPage {
		t.Fatalf("stop = %v, want #PF", st)
	}
	if st.Fault.Access != mem.AccessExec {
		t.Fatalf("fault access = %v, want exec", st.Fault.Access)
	}
}

func TestBoundCheckRaisesBR(t *testing.T) {
	img := build(t, func(b *asm.Builder) {
		b.Entry("_start")
		b.MovRI(isa.R1, 0x5000)
		b.I(isa.Inst{Op: isa.OpBndCL, Bnd: isa.BND0, R1: isa.R1})
		b.I(isa.Inst{Op: isa.OpBndCU, Bnd: isa.BND0, R1: isa.R1})
		b.Trap()
	})
	c := loadImage(t, img, 4096)
	c.Bnd.Set(isa.BND0, mpx.Bound{Lower: 0x4000, Upper: 0x4FFF})
	st := c.Run(0)
	if st.Reason != StopException || st.Exc != ExcBound {
		t.Fatalf("stop = %v, want #BR", st)
	}

	// In range: passes.
	c2 := loadImage(t, img, 4096)
	c2.Bnd.Set(isa.BND0, mpx.Bound{Lower: 0x4000, Upper: 0x5FFF})
	if st := c2.Run(0); st.Reason != StopTrap {
		t.Fatalf("stop = %v, want trap", st)
	}
}

func TestDivideByZero(t *testing.T) {
	img := build(t, func(b *asm.Builder) {
		b.Entry("_start")
		b.MovRI(isa.R1, 10)
		b.MovRI(isa.R2, 0)
		b.Div(isa.R1, isa.R2)
		b.Trap()
	})
	c := loadImage(t, img, 4096)
	if st := c.Run(0); st.Reason != StopException || st.Exc != ExcDivide {
		t.Fatalf("stop = %v, want #DE", st)
	}
}

func TestCycleBudget(t *testing.T) {
	img := build(t, func(b *asm.Builder) {
		b.Entry("_start")
		b.Label("spin")
		b.Jmp("spin")
	})
	c := loadImage(t, img, 4096)
	st := c.Run(1000)
	if st.Reason != StopCycles {
		t.Fatalf("stop = %v, want cycle budget", st)
	}
	if c.Cycles != 1000 {
		t.Fatalf("cycles = %d, want 1000", c.Cycles)
	}
}

func TestXRstorDisablesMPX(t *testing.T) {
	// The reason Stage 2 rejects xrstor: it makes every bound check pass.
	img := build(t, func(b *asm.Builder) {
		b.Entry("_start")
		b.I(isa.Inst{Op: isa.OpXRstor})
		b.MovRI(isa.R1, 0xFFFF_FFFF)
		b.I(isa.Inst{Op: isa.OpBndCL, Bnd: isa.BND0, R1: isa.R1})
		b.I(isa.Inst{Op: isa.OpBndCU, Bnd: isa.BND0, R1: isa.R1})
		b.Trap()
	})
	c := loadImage(t, img, 4096)
	c.Bnd.Set(isa.BND0, mpx.Bound{Lower: 1, Upper: 2})
	if st := c.Run(0); st.Reason != StopTrap {
		t.Fatalf("stop = %v: xrstor should have widened bounds", st)
	}
}

func TestCFILabelIsNoOp(t *testing.T) {
	img := build(t, func(b *asm.Builder) {
		b.Entry("_start")
		b.MovRI(isa.R1, 5)
		b.I(isa.Inst{Op: isa.OpCFILabel, DomainID: 9})
		b.AddI(isa.R1, 1)
		b.Trap()
	})
	c := loadImage(t, img, 4096)
	if st := c.Run(0); st.Reason != StopTrap {
		t.Fatalf("stop = %v", st)
	}
	if c.Regs[isa.R1] != 6 {
		t.Fatalf("r1 = %d", c.Regs[isa.R1])
	}
}

func TestTrapResume(t *testing.T) {
	img := build(t, func(b *asm.Builder) {
		b.Entry("_start")
		b.MovRI(isa.R0, 1)
		b.Trap()
		b.MovRI(isa.R0, 2)
		b.Trap()
	})
	c := loadImage(t, img, 4096)
	if st := c.Run(0); st.Reason != StopTrap || c.Regs[isa.R0] != 1 {
		t.Fatalf("first stop = %v r0=%d", st, c.Regs[isa.R0])
	}
	// Resuming continues after the trap.
	if st := c.Run(0); st.Reason != StopTrap || c.Regs[isa.R0] != 2 {
		t.Fatalf("second stop = %v r0=%d", st, c.Regs[isa.R0])
	}
}

func TestICacheInvalidatedOnTrustedWrite(t *testing.T) {
	img := build(t, func(b *asm.Builder) {
		b.Entry("_start")
		b.MovRI(isa.R0, 1)
		b.Trap()
	})
	c := loadImage(t, img, 4096)
	if st := c.Run(0); st.Reason != StopTrap {
		t.Fatalf("stop = %v", st)
	}
	// Trusted rewrite of the movri immediate (like the loader patching
	// cfi_label domain IDs) must take effect on re-execution.
	base := c.Mem.Base()
	if err := c.Mem.WriteDirect(base+2, []byte{7}); err != nil {
		t.Fatal(err)
	}
	c.PC = base + uint64(img.Entry)
	if st := c.Run(0); st.Reason != StopTrap {
		t.Fatalf("stop = %v", st)
	}
	if c.Regs[isa.R0] != 7 {
		t.Fatalf("r0 = %d, want 7 (icache must be invalidated)", c.Regs[isa.R0])
	}
}

func TestRunawayPCFaults(t *testing.T) {
	// Falling off the end of code hits the zero padding of the last
	// code page (#UD on the zero opcode) or, past that, the unmapped
	// guard gap (#PF). Either way the runaway hart stops.
	img := build(t, func(b *asm.Builder) {
		b.Entry("_start")
		b.Nop()
	})
	c := loadImage(t, img, 4096)
	st := c.Run(0)
	if st.Reason != StopException || (st.Exc != ExcPage && st.Exc != ExcInvalid) {
		t.Fatalf("stop = %v, want #PF or #UD", st)
	}
}

// loadImageRWX is loadImage with the code region remapped writable, the
// shape of a LibOS loader pool where code is patched in place.
func loadImageRWX(t *testing.T, img *oelf.Image, stack uint64) *CPU {
	t.Helper()
	c := loadImage(t, img, stack)
	if err := c.Mem.Map(c.Mem.Base(), img.CodeSpan(), mem.PermRWX); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestSelfModifyingCodeFlushesBlocks(t *testing.T) {
	// A program that patches the immediate of its own movri through an
	// untrusted store to a writable+executable page, then loops back
	// over the patched instruction. The translated block for the loop
	// body must be re-decoded at the next block boundary, so the second
	// pass sees the new immediate.
	img := build(t, func(b *asm.Builder) {
		b.Entry("_start")
		b.Call("getpc") // r6 = address of "patch"
		b.Label("patch")
		b.MovRI(isa.R0, 1) // imm64 low byte at patch+2
		b.MovRI(isa.R2, 9)
		b.StoreB(isa.Mem(isa.R6, 2), isa.R2) // movri r0, 1 -> movri r0, 9
		b.AddI(isa.R5, 1)
		b.CmpI(isa.R5, 2)
		b.Jl("patch")
		b.Trap()
		b.Func("getpc")
		b.Load(isa.R6, isa.Mem(isa.SP, 0))
		b.Ret()
	})
	c := loadImageRWX(t, img, 4096)
	if st := c.Run(0); st.Reason != StopTrap {
		t.Fatalf("stop = %v", st)
	}
	if c.Regs[isa.R0] != 9 {
		t.Fatalf("r0 = %d, want 9 (stale translated block executed)", c.Regs[isa.R0])
	}
	if s := c.CacheStats(); s.Flushes == 0 {
		t.Fatalf("stats = %+v: self-modifying store flushed no blocks", s)
	}
}

func TestStoreToCodePageFlushesBlocks(t *testing.T) {
	// Same invalidation path, driven from outside the program: after a
	// warm run, an untrusted store into the (writable+executable) code
	// page rewrites an immediate; re-execution must see it.
	img := build(t, func(b *asm.Builder) {
		b.Entry("_start")
		b.MovRI(isa.R0, 1)
		b.Trap()
	})
	c := loadImageRWX(t, img, 4096)
	if st := c.Run(0); st.Reason != StopTrap {
		t.Fatalf("stop = %v", st)
	}
	base := c.Mem.Base()
	if f := c.Mem.Store(base+uint64(img.Entry)+2, 1, 7); f != nil {
		t.Fatal(f)
	}
	c.PC = base + uint64(img.Entry)
	if st := c.Run(0); st.Reason != StopTrap {
		t.Fatalf("stop = %v", st)
	}
	if c.Regs[isa.R0] != 7 {
		t.Fatalf("r0 = %d, want 7 (block not invalidated by code-page store)", c.Regs[isa.R0])
	}
}

func TestMapOverCodeFlushesBlocks(t *testing.T) {
	// Remapping the code region non-executable (the teardown half of an
	// mmap-over-code) must invalidate translated blocks: re-running from
	// the entry raises an exec #PF instead of executing stale decodes.
	img := build(t, func(b *asm.Builder) {
		b.Entry("_start")
		b.MovRI(isa.R0, 1)
		b.Trap()
	})
	c := loadImage(t, img, 4096)
	if st := c.Run(0); st.Reason != StopTrap {
		t.Fatalf("stop = %v", st)
	}
	base := c.Mem.Base()
	if err := c.Mem.Map(base, img.CodeSpan(), mem.PermRW); err != nil {
		t.Fatal(err)
	}
	c.PC = base + uint64(img.Entry)
	st := c.Run(0)
	if st.Reason != StopException || st.Exc != ExcPage || st.Fault == nil || st.Fault.Access != mem.AccessExec {
		t.Fatalf("stop = %v, want exec #PF (stale block executed from non-executable page)", st)
	}
}

func TestMmapOverCodeRunsNewCode(t *testing.T) {
	// The full mmap-over-code sequence: remap the code range and write a
	// different program at the same addresses. The old translation must
	// not survive.
	oldImg := build(t, func(b *asm.Builder) {
		b.Entry("_start")
		b.MovRI(isa.R0, 1)
		b.Trap()
	})
	newImg := build(t, func(b *asm.Builder) {
		b.Entry("_start")
		b.MovRI(isa.R0, 2)
		b.MovRI(isa.R1, 40)
		b.AddI(isa.R1, 2)
		b.Trap()
	})
	c := loadImage(t, oldImg, 4096)
	if st := c.Run(0); st.Reason != StopTrap || c.Regs[isa.R0] != 1 {
		t.Fatalf("old program: stop=%v r0=%d", st, c.Regs[isa.R0])
	}
	base := c.Mem.Base()
	if err := c.Mem.Map(base, newImg.CodeSpan(), mem.PermRX); err != nil {
		t.Fatal(err)
	}
	if err := c.Mem.WriteDirect(base, newImg.Code); err != nil {
		t.Fatal(err)
	}
	c.PC = base + uint64(newImg.Entry)
	if st := c.Run(0); st.Reason != StopTrap {
		t.Fatalf("new program: stop = %v", st)
	}
	if c.Regs[isa.R0] != 2 || c.Regs[isa.R1] != 42 {
		t.Fatalf("r0=%d r1=%d, want 2 and 42 (stale translation ran)", c.Regs[isa.R0], c.Regs[isa.R1])
	}
}

func TestDataStoresDoNotFlushBlocks(t *testing.T) {
	// Stores to plain data pages must not invalidate translated code:
	// a warm re-run of a store-heavy program is served entirely from
	// the block cache.
	img := build(t, func(b *asm.Builder) {
		b.Bytes("buf", make([]byte, 64))
		b.Entry("_start")
		b.LeaData(isa.R1, "buf")
		b.MovRI(isa.R2, 0x77)
		b.Store(isa.Mem(isa.R1, 0), isa.R2)
		b.Store(isa.Mem(isa.R1, 8), isa.R2)
		b.Push(isa.R2)
		b.Pop(isa.R3)
		b.Trap()
	})
	c := loadImage(t, img, 4096)
	entry := c.Mem.Base() + uint64(img.Entry)
	if st := c.Run(0); st.Reason != StopTrap {
		t.Fatalf("stop = %v", st)
	}
	warm := c.CacheStats()
	c.PC = entry
	if st := c.Run(0); st.Reason != StopTrap {
		t.Fatalf("stop = %v", st)
	}
	s := c.CacheStats()
	if s.Flushes != warm.Flushes {
		t.Fatalf("data stores flushed blocks: %+v -> %+v", warm, s)
	}
	if s.Misses != warm.Misses {
		t.Fatalf("warm re-run missed the cache: %+v -> %+v", warm, s)
	}
	if s.Hits <= warm.Hits {
		t.Fatalf("warm re-run recorded no hits: %+v -> %+v", warm, s)
	}
}

func TestTrustedDataWriteDoesNotFlushBlocks(t *testing.T) {
	// A trusted WriteDirect into a data page (the LibOS copying a
	// syscall result into user memory) must not flush code blocks —
	// and the program must still observe the new data, since data reads
	// are never cached.
	img := build(t, func(b *asm.Builder) {
		b.Bytes("buf", []byte{1, 0, 0, 0, 0, 0, 0, 0})
		b.Entry("_start")
		b.LeaData(isa.R1, "buf")
		b.Load(isa.R3, isa.Mem(isa.R1, 0))
		b.Trap()
	})
	c := loadImage(t, img, 4096)
	entry := c.Mem.Base() + uint64(img.Entry)
	if st := c.Run(0); st.Reason != StopTrap || c.Regs[isa.R3] != 1 {
		t.Fatalf("stop=%v r3=%d", st, c.Regs[isa.R3])
	}
	warm := c.CacheStats()
	// Locate buf: the program left its address in r1.
	if err := c.Mem.WriteDirect(c.Regs[isa.R1], []byte{9}); err != nil {
		t.Fatal(err)
	}
	c.PC = entry
	if st := c.Run(0); st.Reason != StopTrap {
		t.Fatalf("stop = %v", st)
	}
	if c.Regs[isa.R3] != 9 {
		t.Fatalf("r3 = %d, want 9", c.Regs[isa.R3])
	}
	s := c.CacheStats()
	if s.Flushes != warm.Flushes || s.Misses != warm.Misses {
		t.Fatalf("trusted data write disturbed code blocks: %+v -> %+v", warm, s)
	}
}

func TestCycleBudgetMidBlock(t *testing.T) {
	// A budget that lands in the middle of a translated block must stop
	// exactly there and resume exactly there.
	img := build(t, func(b *asm.Builder) {
		b.Entry("_start")
		for i := 0; i < 10; i++ {
			b.AddI(isa.R0, 1)
		}
		b.Trap()
	})
	c := loadImage(t, img, 4096)
	st := c.Run(3)
	if st.Reason != StopCycles {
		t.Fatalf("stop = %v, want cycle budget", st)
	}
	if c.Cycles != 3 || c.Regs[isa.R0] != 3 {
		t.Fatalf("cycles=%d r0=%d, want 3 and 3", c.Cycles, c.Regs[isa.R0])
	}
	if st := c.Run(0); st.Reason != StopTrap {
		t.Fatalf("stop = %v", st)
	}
	if c.Cycles != 11 || c.Regs[isa.R0] != 10 {
		t.Fatalf("cycles=%d r0=%d, want 11 and 10", c.Cycles, c.Regs[isa.R0])
	}
}

func TestStepMatchesRun(t *testing.T) {
	// Differential check: the translated-block fast path and the Step
	// slow path must produce identical architectural state.
	img := build(t, func(b *asm.Builder) {
		b.Bytes("buf", make([]byte, 64))
		b.Entry("_start")
		b.MovRI(isa.R0, 0)
		b.MovRI(isa.R2, 1)
		b.Label("loop")
		b.Add(isa.R0, isa.R2)
		b.AddI(isa.R2, 3)
		b.Call("touch")
		b.CmpI(isa.R2, 40)
		b.Jle("loop")
		b.Trap()
		b.Func("touch")
		b.LeaData(isa.R1, "buf")
		b.Store(isa.Mem(isa.R1, 16), isa.R0)
		b.Load(isa.R3, isa.Mem(isa.R1, 16))
		b.Ret()
	})
	fast := loadImage(t, img, 4096)
	slow := loadImage(t, img, 4096)

	stFast := fast.Run(0)
	var stSlow Stop
	for {
		st, done := slow.Step()
		if done {
			stSlow = st
			break
		}
	}
	if stFast != stSlow {
		t.Fatalf("stops differ: run=%v step=%v", stFast, stSlow)
	}
	if fast.Regs != slow.Regs || fast.PC != slow.PC || fast.Cycles != slow.Cycles {
		t.Fatalf("state differs:\nrun:  regs=%v pc=%#x cycles=%d\nstep: regs=%v pc=%#x cycles=%d",
			fast.Regs, fast.PC, fast.Cycles, slow.Regs, slow.PC, slow.Cycles)
	}
	if fast.flags != slow.flags {
		t.Fatal("flags differ between Run and Step execution")
	}
}

func TestCacheStatsAccumulate(t *testing.T) {
	img := build(t, func(b *asm.Builder) {
		b.Entry("_start")
		b.MovRI(isa.R1, 50)
		b.Label("spin")
		b.Jcc(isa.OpLoop, "spin")
		b.Trap()
	})
	c := loadImage(t, img, 4096)
	if st := c.Run(0); st.Reason != StopTrap {
		t.Fatalf("stop = %v", st)
	}
	s := c.CacheStats()
	if s.Blocks == 0 || s.Misses == 0 {
		t.Fatalf("stats = %+v: expected decoded blocks", s)
	}
	// The 50-iteration loop re-enters its block through its own chain
	// pointer: chained transitions must dominate, with no extra map
	// traffic.
	if s.Hits+s.Chains < 40 {
		t.Fatalf("stats = %+v: loop not served from cache", s)
	}
	if s.Chains < 40 {
		t.Fatalf("stats = %+v: loop not chained block-to-block", s)
	}
	// Every retired instruction of this program went through the
	// threaded handlers (no Step fallback was ever needed).
	if s.Threaded != c.Cycles {
		t.Fatalf("threaded=%d cycles=%d: instructions escaped the fast path", s.Threaded, c.Cycles)
	}
}

func BenchmarkInterpreterThroughput(b *testing.B) {
	bb := asm.NewBuilder()
	bb.Entry("_start")
	bb.MovRI(isa.R0, 0)
	bb.MovRI(isa.R2, 1)
	bb.Label("loop")
	bb.Add(isa.R0, isa.R2)
	bb.AddI(isa.R2, 1)
	bb.CmpI(isa.R2, 1000000)
	bb.Jle("loop")
	bb.Trap()
	p, err := bb.Finish()
	if err != nil {
		b.Fatal(err)
	}
	img, err := asm.Link(p)
	if err != nil {
		b.Fatal(err)
	}
	const base = 0x100000
	dataSize := uint64(2 * mem.PageSize)
	m := mem.NewPaged(base, img.DataStart()+dataSize+mem.PageSize)
	_ = m.Map(base, img.CodeSpan(), mem.PermRX)
	_ = m.WriteDirect(base, img.Code)
	_ = m.Map(base+img.DataStart(), dataSize, mem.PermRW)
	c := New(m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Reset()
		c.PC = base + uint64(img.Entry)
		c.Regs[isa.SP] = base + img.DataStart() + dataSize
		if st := c.Run(0); st.Reason != StopTrap {
			b.Fatalf("stop = %v", st)
		}
	}
	b.ReportMetric(float64(c.Cycles), "cycles/op")
}

// TestCompilersCoverOpSpace: every valid opcode must have a handler
// compiler (compile panics on a missing table entry).
func TestCompilersCoverOpSpace(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for op := isa.OpInvalid + 1; op < isa.Op(isa.NumOps); op++ {
		in := isa.RandomInstOp(r, op)
		if h := compile(&in, 0x1000, 0x1000+uint64(in.Len())); h == nil {
			t.Errorf("%s: nil handler", op)
		}
	}
}

// chainImage lays out two single blocks on two different code pages,
// A = jmp B (so A chains to B) and B = movri r0, imm; trap. Keeping
// them on separate pages means an invalidation of B leaves A valid —
// the scenario where only the *chained successor* is stale.
func chainImage(t *testing.T, perm mem.Perm) (*CPU, uint64, uint64) {
	t.Helper()
	const base = 0x100000
	m := mem.NewPaged(base, 4*mem.PageSize)
	if err := m.Map(base, 2*mem.PageSize, perm); err != nil {
		t.Fatal(err)
	}
	// Block A at base: jmp +(PageSize-5) -> lands at base+PageSize.
	codeA, err := isa.Encode(nil, isa.Inst{Op: isa.OpJmp, Imm: mem.PageSize - 5})
	if err != nil {
		t.Fatal(err)
	}
	// Block B at base+PageSize: movri r0, 1; trap.
	codeB, err := isa.Encode(nil, isa.Inst{Op: isa.OpMovRI, R1: isa.R0, Imm: 1})
	if err != nil {
		t.Fatal(err)
	}
	codeB, err = isa.Encode(codeB, isa.Inst{Op: isa.OpTrap})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.WriteDirect(base, codeA); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteDirect(base+mem.PageSize, codeB); err != nil {
		t.Fatal(err)
	}
	c := New(m)
	c.PC = base
	return c, base, base + mem.PageSize
}

func TestChainedSuccessorInvalidatedBySMC(t *testing.T) {
	// Warm run establishes the chain A->B; an untrusted store then
	// rewrites B's immediate (self-modifying code through a W+X page).
	// Re-running A must NOT follow the chain into the stale B: the
	// chained transition revalidates B's span and re-translates.
	c, entry, bAddr := chainImage(t, mem.PermRWX)
	if st := c.Run(0); st.Reason != StopTrap || c.Regs[isa.R0] != 1 {
		t.Fatalf("warm run: stop=%v r0=%d", st, c.Regs[isa.R0])
	}
	warm := c.CacheStats()
	if f := c.Mem.Store(bAddr+2, 1, 9); f != nil { // movri imm low byte
		t.Fatal(f)
	}
	c.PC = entry
	if st := c.Run(0); st.Reason != StopTrap {
		t.Fatalf("stop = %v", st)
	}
	if c.Regs[isa.R0] != 9 {
		t.Fatalf("r0 = %d, want 9: chained successor executed stale", c.Regs[isa.R0])
	}
	s := c.CacheStats()
	if s.Flushes != warm.Flushes+1 {
		t.Fatalf("flushes %d -> %d, want exactly one (B)", warm.Flushes, s.Flushes)
	}
	// A itself stayed valid (different page): served as a hit, not
	// re-translated.
	if s.Blocks != warm.Blocks+1 {
		t.Fatalf("blocks %d -> %d, want exactly one re-translation (B)", warm.Blocks, s.Blocks)
	}
}

func TestChainedSuccessorSeveredByMapOverCode(t *testing.T) {
	// The teardown half of mmap-over-code, applied to the *chained*
	// successor's page only: following the chain out of the still-valid
	// A must fault on B's now non-executable page, not run stale code.
	c, entry, bAddr := chainImage(t, mem.PermRX)
	if st := c.Run(0); st.Reason != StopTrap {
		t.Fatalf("warm run: stop = %v", st)
	}
	if err := c.Mem.Map(bAddr, mem.PageSize, mem.PermRW); err != nil {
		t.Fatal(err)
	}
	c.PC = entry
	st := c.Run(0)
	if st.Reason != StopException || st.Exc != ExcPage || st.Fault == nil ||
		st.Fault.Access != mem.AccessExec || st.PC != bAddr {
		t.Fatalf("stop = %v, want exec #PF at %#x (stale chained block ran)", st, bAddr)
	}
}

func TestChainedLoopSeesPatchedCode(t *testing.T) {
	// In-loop SMC across a chain: every iteration, block A patches the
	// movri immediate inside block B (its direct-branch successor) to
	// the iteration counter, so a stale chained B is observable
	// immediately. asm-built, all on one RWX region.
	img := build(t, func(b *asm.Builder) {
		b.Entry("_start")
		b.Call("getpc") // r6 = address of "loop"
		b.Label("loop") // block A: patch B, then jump to it
		b.AddI(isa.R5, 1)
		b.MovRR(isa.R2, isa.R5)
		// B's movri starts 23 bytes after "loop" (addi 6 + mov 3 +
		// storeb 9 + jmp 5); its imm64 low byte is 2 further in.
		b.StoreB(isa.Mem(isa.R6, 25), isa.R2)
		b.Jmp("target")
		b.Label("target")  // block B
		b.MovRI(isa.R0, 0) // imm patched to 1, 2, 3
		b.CmpI(isa.R5, 3)
		b.Jl("loop")
		b.Trap()
		b.Func("getpc")
		b.Load(isa.R6, isa.Mem(isa.SP, 0))
		b.Ret()
	})
	c := loadImageRWX(t, img, 4096)
	if st := c.Run(0); st.Reason != StopTrap {
		t.Fatalf("stop = %v", st)
	}
	if c.Regs[isa.R0] != 3 {
		t.Fatalf("r0 = %d, want 3 (stale chained block executed)", c.Regs[isa.R0])
	}
	if s := c.CacheStats(); s.Flushes == 0 {
		t.Fatalf("stats = %+v: in-loop SMC flushed nothing", s)
	}
}

// condOps are the eight flag-based conditional branches.
var condOps = []isa.Op{isa.OpJe, isa.OpJne, isa.OpJl, isa.OpJle, isa.OpJg, isa.OpJge, isa.OpJb, isa.OpJae}

// TestCompiledBranchesMatchEvalCond exhaustively pins every compiled
// conditional-branch handler to the reference semantics in
// isa.Op.EvalCond, over all flag combinations. The handlers look their
// condition up in a truth table; this test is what keeps table and
// lookup from drifting.
func TestCompiledBranchesMatchEvalCond(t *testing.T) {
	const pc, next, disp = 0x1000, 0x1005, 0x40
	for _, op := range condOps {
		// Backward and forward displacements: the handler keeps the
		// rel32 as encoded.
		for _, rel := range []int64{disp, -disp} {
			in := isa.Inst{Op: op, Imm: rel}
			h := compile(&in, pc, next)
			for f := uint8(0); f < 8; f++ {
				zf, lts, ltu := f&flagZF != 0, f&flagLTS != 0, f&flagLTU != 0
				c := New(mem.NewPaged(0, mem.PageSize))
				c.flags = f
				if h(c) {
					t.Fatalf("%s: branch handler stopped the hart", op)
				}
				want := uint64(next)
				if op.EvalCond(zf, lts, ltu) {
					want = uint64(next + rel)
				}
				if c.PC != want {
					t.Errorf("%s(zf=%v lts=%v ltu=%v): pc=%#x want %#x", op, zf, lts, ltu, c.PC, want)
				}
				if c.flags != f {
					t.Errorf("%s: branch handler changed the flags", op)
				}
			}
		}
	}
}

// TestBranchTablesExhaustive walks the whole domain of the branch
// predicates — 8 flag branches × 8 packed flag states × both predicted
// directions — and checks that the truth table, the compiled Jcc
// handler and the seam guard all agree with isa.Op.EvalCond. The table
// is derived, not typed in; this is the proof that the derivation and
// the three lookups built on it are the reference definition.
func TestBranchTablesExhaustive(t *testing.T) {
	const pc, next, disp = 0x2000, 0x2005, 0x30
	for _, op := range condOps {
		in := isa.Inst{Op: op, Imm: disp}
		jcc := compile(&in, pc, next)
		for f := uint8(0); f < 8; f++ {
			ref := op.EvalCond(f&flagZF != 0, f&flagLTS != 0, f&flagLTU != 0)
			if got := holds(takenMask[op], f); got != ref {
				t.Errorf("%s flags=%03b: table says taken=%v, EvalCond %v", op, f, got, ref)
			}
			c := New(mem.NewPaged(0, mem.PageSize))
			c.flags = f
			if jcc(c) || (c.PC == next+disp) != ref || (c.PC == next) == ref {
				t.Errorf("%s flags=%03b: compiled handler pc=%#x, EvalCond %v", op, f, c.PC, ref)
			}
			for _, taken := range []bool{true, false} {
				mask, exitPC := guardMask(&in, taken, next)
				if got := holds(mask, f); got != (ref == taken) {
					t.Errorf("%s flags=%03b predict-taken=%v: guard table continues=%v", op, f, taken, got)
				}
				wantExit := uint64(next) // predicted taken, branch falls through
				if !taken {
					wantExit = next + disp
				}
				if exitPC != wantExit {
					t.Errorf("%s predict-taken=%v: exit pc %#x, want %#x", op, taken, exitPC, wantExit)
				}
				c := New(mem.NewPaged(0, mem.PageSize))
				c.flags, c.PC = f, 0xbad
				stopped := seamGuard(&in, taken, next)(c)
				switch {
				case stopped == (ref == taken):
					t.Errorf("%s flags=%03b predict-taken=%v: seam guard stopped=%v", op, f, taken, stopped)
				case stopped && (c.stop.Reason != stopSideExit || c.PC != wantExit):
					t.Errorf("%s flags=%03b predict-taken=%v: side exit stop=%v pc=%#x", op, f, taken, c.stop, c.PC)
				case !stopped && c.PC != 0xbad:
					t.Errorf("%s flags=%03b predict-taken=%v: continuing guard wrote pc", op, f, taken)
				}
				if c.flags != f {
					t.Errorf("%s: seam guard changed the flags", op)
				}
			}
		}
	}
	for op, mask := range takenMask {
		if !isa.Op(op).ReadsFlags() && mask != 0 {
			t.Errorf("%s reads no flags but has truth table %08b", isa.Op(op), mask)
		}
	}
}

// TestBranchClosureSizes pins the allocation size class of each closure
// built from the branch truth tables. Every translated branch allocates
// one, so a captured word that spills into the next class shows up in
// alloc_kib_per_op on the spawn-heavy workloads; the classes below are
// the ones the hand-written closures these replaced had (the flag seam
// guard alone grew, 16 → 24, and only traces allocate it). The layout of
// a closure's captures is the compiler's, so this is what notices if a
// harmless-looking edit or a toolchain change moves it.
func TestBranchClosureSizes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's own allocations land in TotalAlloc")
	}
	const next = 0x1005
	br := isa.Inst{Op: isa.OpJl, Imm: 0x40}
	ri := isa.Inst{Op: isa.OpCmpRI, R1: isa.R2, Imm: 7}
	rr := isa.Inst{Op: isa.OpCmpRR, R1: isa.R2, R2: isa.R3}
	ret := isa.Inst{Op: isa.OpRet}
	for _, tc := range []struct {
		name string
		mk   func() handler
		want uint64
	}{
		{"jcc", func() handler { return compile(&br, 0x1000, next) }, 24},
		{"fused branch ri", func() handler { return fuseCmpBranch(&ri, &br, next) }, 48},
		{"fused branch rr", func() handler { return fuseCmpBranch(&rr, &br, next) }, 32},
		{"seam guard", func() handler { return seamGuard(&br, true, next) }, 24},
		{"fused guard ri", func() handler { return fusedSeamGuard(&ri, &br, true, next) }, 32},
		{"fused guard rr", func() handler { return fusedSeamGuard(&rr, &br, false, next) }, 24},
		{"ret", func() handler { return compile(&ret, 0x1000, next) }, 24},
	} {
		const n = 1000
		keep := make([]handler, n)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := range keep {
			keep[i] = tc.mk()
		}
		runtime.ReadMemStats(&m1)
		if got := (m1.TotalAlloc - m0.TotalAlloc) / n; got != tc.want {
			t.Errorf("%s: %d bytes per closure, want %d", tc.name, got, tc.want)
		}
		runtime.KeepAlive(keep)
	}
}

// TestFusedCmpBranchMatchesUnfused checks every fused compare+branch
// closure against executing its two unfused handlers, over a grid of
// operand values covering signed/unsigned boundaries: identical PC and
// identical resulting flags.
func TestFusedCmpBranchMatchesUnfused(t *testing.T) {
	const cmpPC, cmpNext, brNext, disp = 0x1000, 0x1006, 0x100B, 0x40
	vals := []uint64{0, 1, 2, 127, 128, 1<<31 - 1, 1 << 31, 1<<63 - 1, 1 << 63, ^uint64(0), ^uint64(0) - 1}
	for _, cmpOp := range []isa.Op{isa.OpCmpRI, isa.OpCmpRR} {
		for _, br := range condOps {
			brIn := isa.Inst{Op: br, Imm: disp}
			for _, a := range vals {
				for _, bv := range vals {
					cmpIn := isa.Inst{Op: cmpOp, R1: isa.R2}
					if cmpOp == isa.OpCmpRI {
						cmpIn.Imm = int64(bv)
					} else {
						cmpIn.R2 = isa.R3
					}
					fused := fuseCmpBranch(&cmpIn, &brIn, brNext)
					if fused == nil {
						t.Fatalf("%s+%s: no fused form", cmpOp, br)
					}
					newCPU := func() *CPU {
						c := New(mem.NewPaged(0, mem.PageSize))
						c.Regs[isa.R2], c.Regs[isa.R3] = a, bv
						return c
					}
					fc, uc := newCPU(), newCPU()
					if fused(fc) {
						t.Fatalf("%s+%s: fused handler stopped the hart", cmpOp, br)
					}
					hc := compile(&cmpIn, cmpPC, cmpNext)
					hb := compile(&brIn, cmpNext, brNext)
					if hc(uc) || hb(uc) {
						t.Fatalf("%s+%s: unfused handlers stopped the hart", cmpOp, br)
					}
					if fc.PC != uc.PC {
						t.Errorf("%s+%s a=%#x b=%#x: pc %#x vs %#x", cmpOp, br, a, bv, fc.PC, uc.PC)
					}
					if fc.flags != uc.flags {
						t.Errorf("%s+%s a=%#x b=%#x: flags differ", cmpOp, br, a, bv)
					}
				}
			}
		}
	}
	// Pairs without a fused form stay unfused.
	for _, pair := range [][2]isa.Inst{
		{{Op: isa.OpTestRR, R1: isa.R2, R2: isa.R3}, {Op: isa.OpJe, Imm: disp}},
		{{Op: isa.OpCmpRI, R1: isa.R2, Imm: 1}, {Op: isa.OpLoop, Imm: disp}},
		{{Op: isa.OpAddRR, R1: isa.R2, R2: isa.R3}, {Op: isa.OpJe, Imm: disp}},
	} {
		cmpIn, brIn := pair[0], pair[1]
		if fuseCmpBranch(&cmpIn, &brIn, brNext) != nil {
			t.Errorf("%s+%s: unexpectedly fused", cmpIn.Op, brIn.Op)
		}
	}
}
