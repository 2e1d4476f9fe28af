package libos_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/fs"
	"repro/internal/isa"
	"repro/internal/libos"
	"repro/internal/ulib"
)

// bootSmall boots a system with a 4-hart pool and enough small domains
// for oversubscription tests.
func bootSmall(t testing.TB, domains, harts int, slice uint64, out *bytes.Buffer) (*core.System, *core.Toolchain) {
	t.Helper()
	tc := core.NewToolchain()
	lc := libos.DefaultConfig()
	lc.NumDomains = domains
	lc.DomainCodeSize = 256 << 10
	lc.DomainDataSize = 1 << 20
	lc.StackSize = 128 << 10
	lc.MaxThreads = harts
	lc.FSBlocks = 4096
	if slice != 0 {
		lc.CycleSlice = slice
	}
	if out != nil {
		lc.Stdout = out
	}
	sys, err := core.BootSystem(core.SystemConfig{LibOS: lc})
	if err != nil {
		t.Fatal(err)
	}
	return sys, tc
}

// syncBuffer is a Writer safe to read while SIPs write to it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) snapshot() []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]byte(nil), b.buf.Bytes()...)
}

// futexWaiterProg writes the address of its futex word to stdout (so the
// host can wake it), then waits on it.
func futexWaiterProg(b *asm.Builder) {
	b.Zero("fut", 8)
	b.Zero("futaddr", 8)
	b.Entry("_start")
	ulib.Prologue(b)
	b.LeaData(isa.R6, "fut")
	b.StoreData("futaddr", isa.R6)
	b.MovRI(isa.R1, 1)
	b.LeaData(isa.R2, "futaddr")
	b.MovRI(isa.R3, 8)
	ulib.Syscall(b, libos.SysWrite)
	// futex(WAIT, fut, 0)
	b.MovRI(isa.R1, libos.FutexWait)
	b.LeaData(isa.R2, "fut")
	b.MovRI(isa.R3, 0)
	ulib.Syscall(b, libos.SysFutex)
	ulib.Exit(b, 0)
}

// pipeParentProg creates a pipe, spawns /bin/pipechild (which inherits
// fds 3/4), blocks reading the pipe, then reaps the child.
func pipeParentProg(b *asm.Builder) {
	b.Zero("fds", 16)
	b.Zero("buf", 16)
	b.String("cpath", "/bin/pipechild")
	b.Entry("_start")
	ulib.Prologue(b)
	ulib.Pipe2(b, "fds") // rfd=3, wfd=4 in a fresh table
	ulib.SpawnPath(b, "cpath", 14, "", 0)
	b.MovRR(isa.R6, isa.R0) // child pid
	// read(3, buf, 8): parks until the child writes.
	b.MovRI(isa.R1, 3)
	b.LeaData(isa.R2, "buf")
	b.MovRI(isa.R3, 8)
	ulib.Syscall(b, libos.SysRead)
	ulib.Wait4(b, isa.R6)
	ulib.Exit(b, 0)
}

// pipeChildProg burns some cycles, then writes 8 bytes into the
// inherited pipe write end (fd 4).
func pipeChildProg(b *asm.Builder) {
	b.Bytes("msg", []byte("pingpong"))
	b.Entry("_start")
	ulib.Prologue(b)
	b.MovRI(isa.R7, 20000)
	b.Label("spin")
	b.SubI(isa.R7, 1)
	b.CmpI(isa.R7, 0)
	b.Jg("spin")
	b.MovRI(isa.R1, 4)
	b.LeaData(isa.R2, "msg")
	b.MovRI(isa.R3, 8)
	ulib.Syscall(b, libos.SysWrite)
	ulib.Exit(b, 0)
}

// cpuBoundProg spins long enough to cross several cycle slices.
func cpuBoundProg(b *asm.Builder) {
	b.Entry("_start")
	ulib.Prologue(b)
	b.MovRI(isa.R7, 300000)
	b.Label("spin")
	b.SubI(isa.R7, 1)
	b.CmpI(isa.R7, 0)
	b.Jg("spin")
	ulib.Exit(b, 0)
}

// TestOversubscribedSIPs is the M:N acceptance test: with a 4-hart pool,
// 64 concurrently live SIPs — CPU-bound, futex-blocked and pipe-blocked
// in equal measure — all run to completion. Under the old
// SIP-per-thread model this configuration failed at spawn #5 for lack
// of a free SGX thread, and any blocked SIP held a hart hostage.
func TestOversubscribedSIPs(t *testing.T) {
	const (
		harts      = 4
		futexSIPs  = 16
		pipePairs  = 16 // parent + child each
		cpuSIPs    = 16
		cycleSlice = 1 << 16 // small slices: force real multiplexing
	)
	sys, tc := bootSmall(t, 72, harts, cycleSlice, nil)
	defer sys.OS.Shutdown()

	for path, prog := range map[string]func(*asm.Builder){
		"/bin/futexwait": futexWaiterProg,
		"/bin/pipepar":   pipeParentProg,
		"/bin/pipechild": pipeChildProg,
		"/bin/cpu":       cpuBoundProg,
	} {
		if err := sys.Install(tc, path, path, buildProg(t, prog)); err != nil {
			t.Fatal(err)
		}
	}

	var procs []*libos.Proc
	outs := make([]*syncBuffer, futexSIPs)
	// Futex waiters first: they publish their futex address on stdout.
	for i := 0; i < futexSIPs; i++ {
		outs[i] = &syncBuffer{}
		p, err := sys.OS.Spawn("/bin/futexwait", nil, libos.SpawnOpt{Stdout: libos.NewWriterFile(outs[i])})
		if err != nil {
			t.Fatalf("futex spawn %d: %v", i, err)
		}
		procs = append(procs, p)
	}
	for i := 0; i < pipePairs; i++ {
		p, err := sys.OS.Spawn("/bin/pipepar", nil, libos.SpawnOpt{})
		if err != nil {
			t.Fatalf("pipe spawn %d: %v", i, err)
		}
		procs = append(procs, p)
	}
	for i := 0; i < cpuSIPs; i++ {
		p, err := sys.OS.Spawn("/bin/cpu", nil, libos.SpawnOpt{})
		if err != nil {
			t.Fatalf("cpu spawn %d: %v", i, err)
		}
		procs = append(procs, p)
	}

	// Wake every futex waiter. A wake can race the waiter's
	// registration, so retry until one is consumed.
	for i := 0; i < futexSIPs; i++ {
		var addr uint64
		deadline := time.Now().Add(30 * time.Second)
		for {
			if snap := outs[i].snapshot(); len(snap) >= 8 {
				addr = binary.LittleEndian.Uint64(snap)
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("futex waiter %d never published its address", i)
			}
			time.Sleep(time.Millisecond)
		}
		for sys.Host.FutexWake(addr, 1) == 0 {
			if time.Now().After(deadline) {
				t.Fatalf("futex waiter %d never registered", i)
			}
			time.Sleep(time.Millisecond)
		}
	}

	for i, p := range procs {
		status := waitTimeout(t, p, 60*time.Second, fmt.Sprintf("proc %d (pid %d)", i, p.PID()))
		if status != 0 {
			t.Fatalf("proc %d (pid %d): status %d", i, p.PID(), status)
		}
	}

	snap := sys.OS.Sched().Snapshot()
	if snap.Parks == 0 {
		t.Fatal("no parks recorded: blocking syscalls still hold harts")
	}
	t.Logf("sched: tasks=%d slices=%d parks=%d preempts=%d util=%.1f%%",
		snap.Tasks, snap.Slices, snap.Parks, snap.Preempts, 100*snap.Utilization())
}

func waitTimeout(t *testing.T, p *libos.Proc, d time.Duration, what string) int {
	t.Helper()
	done := make(chan int, 1)
	go func() { done <- p.Wait() }()
	select {
	case st := <-done:
		return st
	case <-time.After(d):
		t.Fatalf("%s did not exit within %v", what, d)
		return -1
	}
}

// TestKillLatencyAtBlockBoundary: with an effectively unbounded cycle
// slice, killing a CPU-bound SIP must still take effect promptly — the
// preempt flag stops the interpreter at the next block boundary instead
// of waiting out the slice. Under the pre-preemption design this test
// would spin for 2^40 cycles.
func TestKillLatencyAtBlockBoundary(t *testing.T) {
	sys, tc := bootSmall(t, 4, 2, 1<<40, nil)
	defer sys.OS.Shutdown()

	prog := buildProg(t, func(b *asm.Builder) {
		b.Entry("_start")
		ulib.Prologue(b)
		b.Label("forever")
		b.Jmp("forever")
	})
	if err := sys.Install(tc, "/bin/forever", "forever", prog); err != nil {
		t.Fatal(err)
	}
	p, err := sys.OS.Spawn("/bin/forever", nil, libos.SpawnOpt{})
	if err != nil {
		t.Fatal(err)
	}
	// Let it get onto a hart and into the loop.
	time.Sleep(10 * time.Millisecond)
	start := time.Now()
	if err := sys.OS.Kill(p.PID(), libos.SIGTERM); err != nil {
		t.Fatal(err)
	}
	status := waitTimeout(t, p, 10*time.Second, "killed SIP")
	if status != 128+libos.SIGTERM {
		t.Fatalf("status = %d, want %d", status, 128+libos.SIGTERM)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("kill took %v with a 2^40-cycle slice", elapsed)
	}
}

// TestParentExitsBeforeChild: an orphaned child is reparented, finishes
// on its own, and leaves no zombie behind (nobody is left to reap it).
func TestParentExitsBeforeChild(t *testing.T) {
	var out bytes.Buffer
	sys, tc := bootSmall(t, 4, 2, 0, &out)
	defer sys.OS.Shutdown()

	child := buildProg(t, func(b *asm.Builder) {
		b.Entry("_start")
		ulib.Prologue(b)
		b.MovRI(isa.R7, 100000)
		b.Label("spin")
		b.SubI(isa.R7, 1)
		b.CmpI(isa.R7, 0)
		b.Jg("spin")
		ulib.Exit(b, 0)
	})
	if err := sys.Install(tc, "/bin/slowchild", "slowchild", child); err != nil {
		t.Fatal(err)
	}
	parent := buildProg(t, func(b *asm.Builder) {
		b.String("cpath", "/bin/slowchild")
		b.Entry("_start")
		ulib.Prologue(b)
		ulib.SpawnPath(b, "cpath", 14, "", 0)
		ulib.Exit(b, 0) // exit immediately, not waiting for the child
	})
	if err := sys.Install(tc, "/bin/deadbeat", "deadbeat", parent); err != nil {
		t.Fatal(err)
	}

	p, err := sys.OS.Spawn("/bin/deadbeat", nil, libos.SpawnOpt{})
	if err != nil {
		t.Fatal(err)
	}
	parentPID := p.PID()
	childPID := parentPID + 1 // pids are serial; nothing else spawns here
	if status := p.Wait(); status != 0 {
		t.Fatalf("parent status = %d", status)
	}

	// The child must finish and be auto-reaped: its /proc entry
	// disappears instead of lingering as a zombie.
	deadline := time.Now().Add(30 * time.Second)
	for {
		_, err := sys.OS.VFS().Stat(fmt.Sprintf("/proc/%d/status", childPID))
		if errors.Is(err, fs.ErrNotExist) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("orphaned child %d still present (zombie leak): stat err = %v", childPID, err)
		}
		time.Sleep(time.Millisecond)
	}
	// The parent (spawned by the host, ppid 0) must not linger either.
	if _, err := sys.OS.VFS().Stat(fmt.Sprintf("/proc/%d/status", parentPID)); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("exited parent %d still present: err = %v", parentPID, err)
	}
}

// TestDoubleWaitReturnsECHILD: the second wait4 on an already-reaped
// child fails with ECHILD.
func TestDoubleWaitReturnsECHILD(t *testing.T) {
	var out bytes.Buffer
	sys, tc := bootSmall(t, 4, 2, 0, &out)
	defer sys.OS.Shutdown()

	child := buildProg(t, helloProgram("", 0))
	if err := sys.Install(tc, "/bin/quick", "quick", child); err != nil {
		t.Fatal(err)
	}
	parent := buildProg(t, func(b *asm.Builder) {
		b.String("cpath", "/bin/quick")
		b.Entry("_start")
		ulib.Prologue(b)
		ulib.SpawnPath(b, "cpath", 10, "", 0)
		b.MovRR(isa.R6, isa.R0)
		// First wait4 reaps the child and returns its pid.
		ulib.Wait4(b, isa.R6)
		b.Cmp(isa.R0, isa.R6)
		b.Jne("bad")
		// Second wait4 on the same pid: -ECHILD.
		ulib.Wait4(b, isa.R6)
		b.CmpI(isa.R0, -libos.ECHILD)
		b.Jne("bad")
		ulib.Exit(b, 0)
		b.Label("bad")
		b.Nop()
		ulib.Exit(b, 1)
	})
	if err := sys.Install(tc, "/bin/doublewait", "doublewait", parent); err != nil {
		t.Fatal(err)
	}
	p, err := sys.OS.Spawn("/bin/doublewait", nil, libos.SpawnOpt{})
	if err != nil {
		t.Fatal(err)
	}
	if status := waitTimeout(t, p, 30*time.Second, "doublewait"); status != 0 {
		t.Fatalf("status = %d, want 0", status)
	}
}

// TestWaitOnParkedChild: the parent parks in wait4 on a child that is
// itself parked in a futex wait; killing the child unblocks both, and
// the parent observes the child's termination status.
func TestWaitOnParkedChild(t *testing.T) {
	var out bytes.Buffer
	sys, tc := bootSmall(t, 4, 2, 0, &out)
	defer sys.OS.Shutdown()

	child := buildProg(t, func(b *asm.Builder) {
		b.Zero("fut", 8)
		b.Entry("_start")
		ulib.Prologue(b)
		// futex(WAIT, fut, 0): parks forever until killed.
		b.MovRI(isa.R1, libos.FutexWait)
		b.LeaData(isa.R2, "fut")
		b.MovRI(isa.R3, 0)
		ulib.Syscall(b, libos.SysFutex)
		ulib.Exit(b, 0)
	})
	if err := sys.Install(tc, "/bin/futforever", "futforever", child); err != nil {
		t.Fatal(err)
	}
	parent := buildProg(t, func(b *asm.Builder) {
		b.String("cpath", "/bin/futforever")
		b.Zero("status", 8)
		b.Entry("_start")
		ulib.Prologue(b)
		ulib.SpawnPath(b, "cpath", 15, "", 0)
		b.MovRR(isa.R1, isa.R0)
		b.LeaData(isa.R2, "status")
		ulib.Syscall(b, libos.SysWait4)
		// Exit with the reaped child's status (128+SIGTERM = 143).
		b.LoadData(isa.R6, "status")
		ulib.ExitR(b, isa.R6)
	})
	if err := sys.Install(tc, "/bin/waiter", "waiter", parent); err != nil {
		t.Fatal(err)
	}

	p, err := sys.OS.Spawn("/bin/waiter", nil, libos.SpawnOpt{})
	if err != nil {
		t.Fatal(err)
	}
	childPID := p.PID() + 1
	// Wait until the child exists and is parked deep in futex wait, then
	// kill it. Kill is safe regardless of the park state, so a fixed
	// short delay is enough to make the interesting interleaving
	// overwhelmingly likely without affecting correctness.
	deadline := time.Now().Add(30 * time.Second)
	for sys.OS.Kill(childPID, libos.SIGTERM) != nil {
		if time.Now().After(deadline) {
			t.Fatalf("child %d never appeared", childPID)
		}
		time.Sleep(time.Millisecond)
	}
	if status := waitTimeout(t, p, 30*time.Second, "waiter parent"); status != 128+libos.SIGTERM {
		t.Fatalf("parent status = %d, want %d (child's termination status)", status, 128+libos.SIGTERM)
	}
}
