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

// spawnBudget is what a warm spawn and exit of a cached image may
// allocate, stdio handed in: the Proc — scheduler handle, fd table,
// syscall record and exit latch are its fields — plus the wake callback
// bound to it, and the fd map's header and first group. A cache hit in
// loadBinary looks the image's version up by path and opens no node.
const spawnBudget = 4

// TestSpawnAllocationFloor: a SIP is cheap to create (§3.3) and leaves
// the heap as it found it but for what outlives the spawn. On a warm
// 1-hart kernel, 200 spawn+wait rounds of a program that exits at once
// allocate at most spawnBudget objects each (a Proc with a done
// channel, a handlers map, a separate scheduler handle and fd table,
// and staged argv and auxv buffers made 14). The teardown-zero check
// allocates a domain-sized buffer per exit, so it is off here.
func TestSpawnAllocationFloor(t *testing.T) {
	libos.CheckTeardownZero(false)
	defer libos.CheckTeardownZero(true)
	sys, tc := bootSmall(t, 2, 1, 0, nil)
	defer sys.OS.Shutdown()
	if err := sys.Install(tc, "/bin/nop", "nop", buildProg(t, func(b *asm.Builder) {
		b.Entry("_start")
		ulib.Prologue(b)
		ulib.Exit(b, 0)
	})); err != nil {
		t.Fatal(err)
	}
	stdio := libos.NewDiscardFile()
	spawn := func() {
		p, err := sys.OS.Spawn("/bin/nop", nil, libos.SpawnOpt{Stdin: stdio, Stdout: stdio, Stderr: stdio})
		if err != nil {
			t.Fatal(err)
		}
		if status := p.Wait(); status != 0 {
			t.Fatalf("nop exited %d", status)
		}
	}
	for i := 0; i < 20; i++ {
		spawn()
	}
	const rounds = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		spawn()
	}
	runtime.ReadMemStats(&after)
	per := float64(after.Mallocs-before.Mallocs) / rounds
	t.Logf("mallocs: %.2f per warm spawn+exit", per)
	if per > spawnBudget+0.5 {
		t.Fatalf("%.2f heap allocations per spawn+exit, want <= %d", per, spawnBudget)
	}
}

// pingProg is one side of a ping-pong over two pipes: the child (pong)
// reads a byte from fd 60 and writes it to fd 61, n times; the parent
// (ping) makes the pipes, spawns pong on their far ends, then writes a
// byte and reads the reply n times and waits for pong. It exits 2 on a
// short transfer.
func pingProg(n int64, pong string) func(b *asm.Builder) {
	const in, out = 60, 61
	return func(b *asm.Builder) {
		b.Zero("ab", 16)
		b.Zero("ba", 16)
		b.Zero("buf", 8)
		if pong != "" {
			b.String("pong", pong)
		}
		b.Entry("_start")
		ulib.Prologue(b)
		rd, wr := isa.R7, isa.R11
		if pong == "" {
			b.MovRI(rd, in)
			b.MovRI(wr, out)
		} else {
			ulib.Pipe2(b, "ab")
			ulib.Pipe2(b, "ba")
			b.LoadData(isa.R1, "ab")
			b.MovRI(isa.R2, in)
			ulib.Syscall(b, libos.SysDup2)
			b.LeaData(isa.R1, "ba")
			b.Load(isa.R1, isa.Mem(isa.R1, 8))
			b.MovRI(isa.R2, out)
			ulib.Syscall(b, libos.SysDup2)
			ulib.SpawnPath(b, "pong", int64(len(pong)), "", 0)
			b.MovRR(isa.R6, isa.R0)
			b.LeaData(wr, "ab")
			b.Load(wr, isa.Mem(wr, 8))
			b.LoadData(rd, "ba")
		}
		b.MovRI(isa.R5, n)
		b.Label("loop")
		step := func(no int64, fd isa.Reg) {
			b.MovRR(isa.R1, fd)
			b.LeaData(isa.R2, "buf")
			b.MovRI(isa.R3, 1)
			ulib.Syscall(b, no)
			b.CmpI(isa.R0, 1)
			b.Jne("fail")
		}
		if pong == "" {
			step(libos.SysRead, rd)
			step(libos.SysWrite, wr)
		} else {
			step(libos.SysWrite, wr)
			step(libos.SysRead, rd)
		}
		b.SubI(isa.R5, 1)
		b.CmpI(isa.R5, 0)
		b.Jg("loop")
		if pong != "" {
			ulib.Wait4(b, isa.R6)
		}
		ulib.Exit(b, 0)
		b.Label("fail")
		ulib.Exit(b, 2)
	}
}

// TestParkAllocationFloor: parking a SIP allocates nothing. On one hart
// two SIPs bounce a byte through two pipes, so each round parks the
// reader of an empty pipe and the peer's write unparks it. Two runs
// that differ only in 1000 more rounds must differ in heap allocations
// by under 0.05 per extra park (each park appended its waiter to a
// freshly allocated one-element list before the lists kept their
// arrays).
func TestParkAllocationFloor(t *testing.T) {
	const rounds = 1000
	sys, tc := bootSmall(t, 4, 1, 0, nil)
	defer sys.OS.Shutdown()
	for _, n := range []int64{1, 1 + rounds} {
		pong := fmt.Sprintf("/bin/pong%d", n)
		if err := sys.Install(tc, pong, "pong", buildProg(t, pingProg(n, ""))); err != nil {
			t.Fatal(err)
		}
		if err := sys.Install(tc, fmt.Sprintf("/bin/ping%d", n), "ping", buildProg(t, pingProg(n, pong))); err != nil {
			t.Fatal(err)
		}
	}
	run := func(n int64) (mallocs, parks uint64) {
		var before, after runtime.MemStats
		parks0 := sys.OS.Sched().Snapshot().Parks
		runtime.ReadMemStats(&before)
		p, err := sys.OS.Spawn(fmt.Sprintf("/bin/ping%d", n), nil, libos.SpawnOpt{})
		if err != nil {
			t.Fatal(err)
		}
		if status := p.Wait(); status != 0 {
			t.Fatalf("ping%d exited %d", n, status)
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs, sys.OS.Sched().Snapshot().Parks - parks0
	}
	for i := 0; i < 2; i++ {
		run(1)
		run(1 + rounds)
	}
	shortM, shortP := run(1)
	longM, longP := run(1 + rounds)
	if longP < shortP+rounds {
		t.Fatalf("%d parks for %d rounds, %d for 1: want at least one more per round", longP, 1+rounds, shortP)
	}
	per := (float64(longM) - float64(shortM)) / float64(longP-shortP)
	t.Logf("mallocs: %d for 1 round (%d parks), %d for %d rounds (%d parks): %.4f per park", shortM, shortP, longM, 1+rounds, longP, per)
	if per >= 0.05 {
		t.Fatalf("%.3f heap allocations per park, want < 0.05", per)
	}
}
