package libos

// Internal regression tests for the wake generation check and latch:
// these need the syscall record, liveGen, wokenGen and wakeGen, so they
// live inside the package (the full-stack readiness tests stay in
// libos_test).

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/hostos"
	"repro/internal/sched"
	"repro/internal/sgx"
	"repro/internal/sysdispatch"
	"repro/internal/vm"
)

// manualParker parks on every Step until released, never registering a
// waiter — only an explicit Unpark can requeue it, which makes unparks
// observable one-for-one through the scheduler counters.
type manualParker struct{ quit atomic.Bool }

func (m *manualParker) Step() sched.Status {
	if m.quit.Load() {
		return sched.Done
	}
	return sched.Park
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestStaleTimerWakeSuppressed is the regression test for the
// wake-steal bug: a poll timeout's host timer could fire just after
// the poll completed (cancel raced the fire), and its callback would
// unpark the SIP even though the SIP had re-parked in a LATER syscall
// — a spurious wake stolen by the wrong wait. The fix stamps each
// syscall record with a generation and gates the unpark on the record
// still being the live one. This test replays the race directly:
// complete the "poll" (liveGen moves on to a later record), fire the
// stale timer callback, and assert the parked task is NOT woken — then
// fire the live record's callback and assert it is.
func TestStaleTimerWakeSuppressed(t *testing.T) {
	s := sched.New(1)
	defer s.Stop()
	task := &manualParker{}
	g := s.Prepare(task)
	p := &Proc{task: g}

	s.Start(g)
	waitFor(t, "initial park", func() bool { return s.Snapshot().Parks >= 1 })

	// The SIP completed syscall gen 1 (the poll) and is now parked in
	// syscall gen 2 — exactly the moment the stale gen-1 timer fires.
	p.sys.gen = 2
	p.liveGen.Store(2)
	baseUnparks := s.Snapshot().Unparks
	baseStale := NetStats().StaleWakes

	p.wakeGen(1)
	if p.wokenGen.Load() != 1 || p.woken() {
		t.Fatalf("stale fire latched generation %d; want its own (1), not the live one (2)", p.wokenGen.Load())
	}
	if got := NetStats().StaleWakes - baseStale; got != 1 {
		t.Fatalf("staleWakes delta = %d, want 1", got)
	}
	time.Sleep(50 * time.Millisecond)
	if got := s.Snapshot().Unparks - baseUnparks; got != 0 {
		t.Fatalf("stale timer unparked the task %d times; want 0", got)
	}

	// The live record's timer still wakes normally.
	task.quit.Store(true)
	p.wakeGen(2)
	if !p.woken() {
		t.Fatal("live fire did not latch the wake")
	}
	waitFor(t, "task completion", func() bool { return g.Done() })
	if got := s.Snapshot().Unparks - baseUnparks; got != 1 {
		t.Fatalf("unparks after live fire = %d, want 1", got)
	}
}

// TestTimerWakeLiveUnparks covers the inverse direction at the retry
// boundary: a timer firing for the record currently being re-dispatched
// (liveGen matches) must unpark even though the task is momentarily
// running — the latched wake is absorbed by the next park attempt, the
// normal timeout path.
func TestTimerWakeLiveUnparks(t *testing.T) {
	s := sched.New(1)
	defer s.Stop()
	task := &manualParker{}
	g := s.Prepare(task)
	p := &Proc{task: g}
	s.Start(g)
	waitFor(t, "initial park", func() bool { return s.Snapshot().Parks >= 1 })

	p.liveGen.Store(7)
	task.quit.Store(true)
	p.wakeGen(7)
	waitFor(t, "task completion", func() bool { return g.Done() })
}

// TestStaleWakeNeverLatchesALaterSyscall pins the wake latch of the
// Proc's one syscall record. Syscall g−1 leaves two wakes behind: a
// futex registration a waker consumed just as the syscall ended, and a
// poll timeout whose cancel lost the race with its fire. Both fire
// while syscall g — a poll with a 10 s timeout, reusing the record's
// memory — is live. They must neither latch g nor unpark the SIP, and
// the poll must park instead of reading the stale latch as its own
// timeout and returning 0 at once. A latch kept in the record and
// reached through a captured pointer fails all three.
func TestStaleWakeNeverLatchesALaterSyscall(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumDomains = 1
	cfg.DomainCodeSize = 64 << 10
	cfg.DomainDataSize = 256 << 10
	cfg.StackSize = 64 << 10
	cfg.MaxThreads = 1
	cfg.FSBlocks = 1024
	o, err := Boot(sgx.NewPlatform(64<<20), hostos.New(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer o.Shutdown()

	s := sched.New(1)
	defer s.Stop()
	task := &manualParker{}
	g := s.Prepare(task)
	d := o.domains[0]
	p := &Proc{os: o, dom: d, cpu: new(vm.CPU), task: g, fds: sysdispatch.NewFDTable()}
	p.wake = g.Unpark
	s.Start(g)
	waitFor(t, "initial park", func() bool { return s.Snapshot().Parks >= 1 })

	// Syscall g−1: a futex wait on a zero word parks, and a 20 ms
	// deadline is armed under the same generation. The syscall then
	// ends without cancelling either registration.
	futex := d.DataBase
	prev := p.newSyscall(SysFutex, [5]uint64{FutexWait, futex, 0}, 0)
	if r := p.dispatch(prev); r != sysParked {
		t.Fatalf("futex wait on a matching word: %v, want parked", r)
	}
	baseFires := NetStats().TimerFires
	p.armTimeout(prev, nil, 20)
	prevGen := prev.gen
	p.blocked = nil
	p.liveGen.Store(0)

	// Syscall g reuses the record; the stale wakes land while it is live.
	pollArgs := [5]uint64{d.DataBase, 0, 10_000}
	cur := p.newSyscall(SysPoll, pollArgs, 0)
	if cur != prev || cur.gen != prevGen+1 {
		t.Fatalf("record %p gen %d after %p gen %d; want the same record, next generation", cur, cur.gen, prev, prevGen)
	}
	p.liveGen.Store(cur.gen)
	baseUnparks := s.Snapshot().Unparks
	baseStale := NetStats().StaleWakes
	if n := o.host.FutexWake(futex, 1); n != 1 {
		t.Fatalf("futex wake woke %d waiters, want the stale registration", n)
	}
	waitFor(t, "the stale timer fire", func() bool { return NetStats().TimerFires-baseFires >= 1 })
	if p.woken() {
		t.Fatalf("stale wakes latched syscall %d (wokenGen %d)", cur.gen, p.wokenGen.Load())
	}
	time.Sleep(50 * time.Millisecond)
	if got := s.Snapshot().Unparks - baseUnparks; got != 0 {
		t.Fatalf("stale wakes unparked the SIP %d times; want 0", got)
	}
	if got := NetStats().StaleWakes - baseStale; got != 2 {
		t.Fatalf("staleWakes delta = %d, want 2 (the futex wake and the timer fire)", got)
	}

	// The poll parks on its own 10 s deadline.
	if r := p.dispatch(cur); r != sysParked {
		t.Fatalf("poll with a 10 s timeout after a stale wake: %v (R0 %d), want parked", r, int64(p.cpu.Regs[0]))
	}
	if cur.cancel == nil {
		t.Fatal("parked poll armed no deadline")
	}

	// Its own wake still completes it: the timeout path returns 0.
	p.wakeGen(cur.gen)
	if !p.woken() {
		t.Fatal("a wake for the live syscall did not latch")
	}
	p.blocked = nil
	p.cpu.Regs[0] = 1
	if r := p.dispatch(cur); r != sysResume || p.cpu.Regs[0] != 0 {
		t.Fatalf("retry after the live wake: %v (R0 %d), want resume with 0", r, int64(p.cpu.Regs[0]))
	}
	if cur.cancel != nil {
		t.Fatal("completed poll left its registration behind")
	}
	task.quit.Store(true)
	g.Unpark()
	waitFor(t, "task completion", func() bool { return g.Done() })
}
