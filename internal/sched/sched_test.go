package sched

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// countTask yields n times, then finishes.
type countTask struct {
	n    int
	done chan struct{}
}

func (t *countTask) Step() Status {
	if t.n <= 0 {
		close(t.done)
		return Done
	}
	t.n--
	return Yield
}

func TestManyTasksFewHarts(t *testing.T) {
	s := New(2)
	defer s.Stop()
	const tasks = 100
	dones := make([]chan struct{}, tasks)
	for i := range dones {
		dones[i] = make(chan struct{})
		s.Go(&countTask{n: 10, done: dones[i]})
	}
	for i, d := range dones {
		select {
		case <-d:
		case <-time.After(10 * time.Second):
			t.Fatalf("task %d never finished", i)
		}
	}
	if got := s.Snapshot().Tasks; got != tasks {
		t.Fatalf("Tasks = %d, want %d", got, tasks)
	}
}

// parkTask parks on every step until woken `wakes` times, then finishes.
type parkTask struct {
	g      atomic.Pointer[G]
	remain atomic.Int64
	parked chan struct{} // signaled once on first park decision
	once   sync.Once
	done   chan struct{}
}

func (t *parkTask) Step() Status {
	if t.remain.Load() <= 0 {
		close(t.done)
		return Done
	}
	t.once.Do(func() { close(t.parked) })
	return Park
}

func (t *parkTask) wake() {
	t.remain.Add(-1)
	if g := t.g.Load(); g != nil {
		g.Unpark()
	}
}

func TestParkUnpark(t *testing.T) {
	s := New(1)
	defer s.Stop()
	pt := &parkTask{parked: make(chan struct{}), done: make(chan struct{})}
	pt.remain.Store(3)
	pt.g.Store(s.Go(pt))
	<-pt.parked
	for i := 0; i < 3; i++ {
		time.Sleep(time.Millisecond)
		pt.wake()
	}
	select {
	case <-pt.done:
	case <-time.After(10 * time.Second):
		t.Fatal("parked task never finished")
	}
	if parks := s.Snapshot().Parks; parks == 0 {
		t.Fatal("no parks recorded")
	}
}

// TestUnparkStorm hammers Unpark from many goroutines against a task
// that parks between wakes — the lost-wakeup race under load. The task
// finishes only if every final wake is delivered.
func TestUnparkStorm(t *testing.T) {
	s := New(4)
	defer s.Stop()
	const rounds = 200
	pt := &parkTask{parked: make(chan struct{}), done: make(chan struct{})}
	pt.remain.Store(rounds)
	pt.g.Store(s.Go(pt))
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds/8; i++ {
				pt.wake()
			}
		}()
	}
	wg.Wait()
	select {
	case <-pt.done:
	case <-time.After(10 * time.Second):
		t.Fatal("task lost a wakeup")
	}
}

// spinTask runs until told to stop, yielding each quantum — used to
// occupy harts so stealing has something to balance.
type spinTask struct {
	stop atomic.Bool
	done chan struct{}
}

func (t *spinTask) Step() Status {
	if t.stop.Load() {
		close(t.done)
		return Done
	}
	return Yield
}

func TestWorkStealingBalancesLoad(t *testing.T) {
	// Steals happen in the submission transient, when a waking hart
	// finds its own queue empty while siblings already hold tasks.
	// Whether any hart wakes inside that window is scheduling luck on
	// a GOMAXPROCS=1 box (CI under -race), so the property is checked
	// over several independent rounds rather than one 50 ms shot.
	for attempt := 0; attempt < 5; attempt++ {
		if spinRoundSteals(t) > 0 {
			return
		}
	}
	t.Fatal("no steals recorded in 5 rounds of 32 spinning tasks on 4 harts")
}

// spinRoundSteals runs one round of 32 spinning tasks on a fresh 4-hart
// scheduler and reports the steals observed.
func spinRoundSteals(t *testing.T) uint64 {
	t.Helper()
	s := New(4)
	defer s.Stop()
	var tasks []*spinTask
	for i := 0; i < 32; i++ {
		st := &spinTask{done: make(chan struct{})}
		tasks = append(tasks, st)
		s.Go(st)
	}
	time.Sleep(50 * time.Millisecond)
	for _, st := range tasks {
		st.stop.Store(true)
	}
	for _, st := range tasks {
		<-st.done
	}
	return s.Snapshot().Steals
}

// slowTask occupies a hart with long quanta and records preemption
// requests.
type slowTask struct {
	stop     atomic.Bool
	done     chan struct{}
	preempts atomic.Int64
}

func (t *slowTask) Step() Status {
	if t.stop.Load() {
		close(t.done)
		return Done
	}
	time.Sleep(2 * time.Millisecond)
	return Yield
}

func (t *slowTask) RequestPreempt() { t.preempts.Add(1) }

func TestEnqueuePreemptsSaturatedHarts(t *testing.T) {
	s := New(1)
	defer s.Stop()
	running := &slowTask{done: make(chan struct{})}
	s.Go(running)

	// With the only hart saturated, enqueues must ask the running task
	// to yield early.
	deadline := time.Now().Add(5 * time.Second)
	for running.preempts.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no preemption requested on a saturated pool")
		}
		s.Go(&countTask{n: 0, done: make(chan struct{})})
		time.Sleep(time.Millisecond)
	}
	running.stop.Store(true)
	<-running.done
}

// selfWakeTask unparks its own G from inside its first Step and then
// returns Park, so the wake always lands before the park commits.
type selfWakeTask struct {
	g     *G
	steps int
}

func (t *selfWakeTask) Step() Status {
	t.steps++
	if t.steps > 1 {
		return Done
	}
	t.g.Unpark()
	return Park
}

func TestUnparkBeforeParkCommitIsAbsorbed(t *testing.T) {
	// Deterministic: the Unpark runs while the task is still running, so
	// only the latch re-check after the park commit can see it.
	s := New(1)
	defer s.Stop()
	st := &selfWakeTask{}
	sg := s.Prepare(st)
	st.g = sg
	s.Start(sg)
	deadline := time.Now().Add(10 * time.Second)
	for !sg.Done() {
		if time.Now().After(deadline) {
			t.Fatal("a wake that landed before the park commit was lost")
		}
		time.Sleep(time.Millisecond)
	}
	if parks := s.Snapshot().Parks; parks != 0 {
		t.Fatalf("parks = %d, want 0: the latched wake should cancel the park", parks)
	}

	// Racy: a task whose waiter fires immediately from another goroutine
	// (wake-before-park) must keep running, not deadlock.
	pt := &parkTask{parked: make(chan struct{}), done: make(chan struct{})}
	pt.remain.Store(1)
	g := s.Go(pt)
	pt.g.Store(g)
	// Fire the wake the instant the task decides to park.
	go func() {
		<-pt.parked
		pt.wake()
	}()
	select {
	case <-pt.done:
	case <-time.After(10 * time.Second):
		t.Fatal("immediate wake was lost")
	}
}

// TestIdleHook checks the idle-time background hook: it runs only when
// harts have nothing else to do, is single-flight across harts, and lets
// the pool quiesce once it reports no more work.
func TestIdleHook(t *testing.T) {
	s := New(4)
	defer s.Stop()

	var calls, inFlight, maxFlight atomic.Int64
	const budget = 50
	s.SetIdle(func() bool {
		if n := inFlight.Add(1); n > maxFlight.Load() {
			maxFlight.Store(n)
		}
		time.Sleep(100 * time.Microsecond) // widen the overlap window
		inFlight.Add(-1)
		return calls.Add(1) <= budget
	})

	// Foreground work must still finish promptly with the hook installed.
	done := make(chan struct{})
	s.Go(&countTask{n: 10, done: done})
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("foreground task starved by idle hook")
	}

	deadline := time.Now().Add(10 * time.Second)
	for calls.Load() <= budget {
		if time.Now().After(deadline) {
			t.Fatalf("idle hook ran %d times, want > %d", calls.Load(), budget)
		}
		time.Sleep(time.Millisecond)
	}
	if mf := maxFlight.Load(); mf != 1 {
		t.Fatalf("idle hook ran %d-way concurrent, want single-flight", mf)
	}

	// After the hook goes dry the pool must quiesce: call count stops
	// growing (each hart sleeps after one false return).
	time.Sleep(50 * time.Millisecond)
	settled := calls.Load()
	time.Sleep(100 * time.Millisecond)
	if grew := calls.Load() - settled; grew > int64(s.NumHarts()) {
		t.Fatalf("idle hook still called %d times after going dry", grew)
	}

	// Removing the hook is safe while harts are live.
	s.SetIdle(nil)
	done2 := make(chan struct{})
	s.Go(&countTask{n: 5, done: done2})
	select {
	case <-done2:
	case <-time.After(10 * time.Second):
		t.Fatal("task after SetIdle(nil) never finished")
	}
}
