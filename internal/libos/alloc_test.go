package libos_test

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/libos"
	"repro/internal/ulib"
)

// floorProg runs n rounds of the syscall spine's common calls: lseek
// and a read(2) of a cached 4 KiB file block, a write(2) + read(2)
// through a pipe, a 4-span writev + readv through the same pipe, and
// getpid — 7 syscalls a round. It exits 2 on a short transfer.
func floorProg(n int64) func(b *asm.Builder) {
	return func(b *asm.Builder) {
		b.String("path", "/floor.dat")
		b.Zero("fds", 16)
		b.Zero("iov", 4*16)
		b.Zero("buf", 4096)
		b.Entry("_start")
		ulib.Prologue(b)
		ulib.OpenPath(b, "path", 10, libos.ORdOnly)
		b.MovRR(isa.R6, isa.R0)
		ulib.Pipe2(b, "fds")
		b.LoadData(isa.R7, "fds")
		b.LeaData(isa.R11, "fds")
		b.Load(isa.R11, isa.Mem(isa.R11, 8))
		for i := int64(0); i < 4; i++ {
			b.LeaData(isa.R5, "buf")
			b.AddI(isa.R5, int32(i*1024))
			ulib.IovSetReg(b, "iov", i, isa.R5, 256)
		}
		b.MovRI(isa.R5, n)
		b.Label("loop")
		b.MovRR(isa.R1, isa.R6)
		b.MovRI(isa.R2, 0)
		b.MovRI(isa.R3, libos.SeekSet)
		ulib.Syscall(b, libos.SysLseek)
		b.LeaData(isa.R2, "buf")
		b.MovRI(isa.R3, 4096)
		ulib.Syscall(b, libos.SysRead) // R1 still holds the file
		b.CmpI(isa.R0, 4096)
		b.Jne("fail")
		b.MovRR(isa.R1, isa.R11)
		b.LeaData(isa.R2, "buf")
		b.MovRI(isa.R3, 512)
		ulib.Syscall(b, libos.SysWrite)
		b.MovRR(isa.R1, isa.R7)
		b.LeaData(isa.R2, "buf")
		b.MovRI(isa.R3, 512)
		ulib.Syscall(b, libos.SysRead)
		b.CmpI(isa.R0, 512)
		b.Jne("fail")
		ulib.Writev(b, isa.R11, "iov", 4)
		ulib.Readv(b, isa.R7, "iov", 4)
		b.CmpI(isa.R0, 1024)
		b.Jne("fail")
		ulib.Syscall(b, libos.SysGetpid)
		b.SubI(isa.R5, 1)
		b.CmpI(isa.R5, 0)
		b.Jg("loop")
		ulib.Exit(b, 0)
		b.Label("fail")
		ulib.Exit(b, 2)
	}
}

// TestSyscallAllocationFloor: a SIP's syscall is a function call inside
// the enclave, and it leaves nothing on the heap — no syscall record, no
// copy of the return address or the iovec array, no wake callback. On
// a warm 1-hart kernel, two otherwise identical programs differ only in
// running 1000 more rounds of floorProg's 7 syscalls; the difference in
// heap allocations between their runs, per syscall, must stay under
// 0.05 (it was about 3 per read when each call allocated its record).
func TestSyscallAllocationFloor(t *testing.T) {
	const (
		rounds   = 1000
		perRound = 7
	)
	sys, tc := bootSmall(t, 4, 1, 0, nil)
	defer sys.OS.Shutdown()
	if err := sys.WriteFile("/floor.dat", pat(0x5a, 4096)); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int64{1, 1 + rounds} {
		if err := sys.Install(tc, fmt.Sprintf("/bin/floor%d", n), "floor", buildProg(t, floorProg(n))); err != nil {
			t.Fatal(err)
		}
	}
	run := func(n int64) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		p, err := sys.OS.Spawn(fmt.Sprintf("/bin/floor%d", n), nil, libos.SpawnOpt{})
		if err != nil {
			t.Fatal(err)
		}
		if status := p.Wait(); status != 0 {
			t.Fatalf("floor%d exited %d", n, status)
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	// Warm up: verify both images, fill the file cache and the pipe
	// buffer pool, and give each image its warm domain.
	for i := 0; i < 2; i++ {
		run(1)
		run(1 + rounds)
	}
	short, long := run(1), run(1+rounds)
	per := (float64(long) - float64(short)) / (rounds * perRound)
	t.Logf("mallocs: %d for 1 round, %d for %d rounds: %.4f per syscall", short, long, 1+rounds, per)
	if per >= 0.05 {
		t.Fatalf("%.3f heap allocations per syscall, want < 0.05", per)
	}
}
