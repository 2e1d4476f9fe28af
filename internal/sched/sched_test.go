package sched

import (
	"runtime"
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

// barrierTask blocks inside Step until every task sharing its barrier
// is inside Step at once, or the deadline passes.
type barrierTask struct {
	arrived *sync.WaitGroup
	all     chan struct{}
	ok      *atomic.Int64
}

func (t *barrierTask) Step() Status {
	t.arrived.Done()
	select {
	case <-t.all:
		t.ok.Add(1)
	case <-time.After(5 * time.Second):
	}
	return Done
}

// TestAllHartsServeOneQueue submits as many blocking tasks as there are
// harts: they can all be inside Step together only if every hart takes
// work from the queue they were submitted to.
func TestAllHartsServeOneQueue(t *testing.T) {
	const harts = 4
	s := New(harts)
	defer s.Stop()
	var arrived sync.WaitGroup
	arrived.Add(harts)
	all := make(chan struct{})
	var ok atomic.Int64
	gs := make([]*G, harts)
	for i := range gs {
		gs[i] = s.Go(&barrierTask{arrived: &arrived, all: all, ok: &ok})
	}
	go func() { arrived.Wait(); close(all) }()
	deadline := time.Now().Add(10 * time.Second)
	for _, g := range gs {
		for !g.Done() {
			if time.Now().After(deadline) {
				t.Fatal("a task never finished")
			}
			time.Sleep(time.Millisecond)
		}
	}
	if n := ok.Load(); n != harts {
		t.Fatalf("%d of %d tasks met inside Step: some hart never reached queued work", n, harts)
	}
}

// payload is a finished task's state: a finalizer reports when nothing
// reaches it any more.
type payload struct {
	buf  []byte
	done chan struct{}
}

func (p *payload) Step() Status {
	close(p.done)
	return Done
}

// TestFinishedTaskNotPinnedByRunQueue checks that the run queue drops
// its reference to a task once the task is taken off it: a finished
// task (for a SIP, its Proc) must not stay live until the queue's
// backing array is next reallocated.
func TestFinishedTaskNotPinnedByRunQueue(t *testing.T) {
	s := New(1)
	defer s.Stop()
	finalized := make(chan struct{})
	done := make(chan struct{})
	func() {
		p := &payload{buf: make([]byte, 1<<20), done: done}
		runtime.SetFinalizer(p, func(*payload) { close(finalized) })
		s.Go(p)
	}()
	<-done
	for i := 0; i < 20; i++ {
		runtime.GC()
		select {
		case <-finalized:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("a finished task is still reachable after 20 GC rounds")
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
	sg := new(G)
	s.Init(sg, st)
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

// TestRunQueueRefillAllocatesNothing: once the run queue's backing
// array has grown, draining it and filling it again reuses the array —
// including the yield pattern, where a hart pushes the task it just
// popped. A queue that slid its slice forward on every pop came back
// from a drain with capacity 0, and the next push reallocated.
func TestRunQueueRefillAllocatesNothing(t *testing.T) {
	s := &Scheduler{}
	gs := make([]*G, 8)
	for i := range gs {
		gs[i] = &G{}
	}
	cycle := func() {
		for _, g := range gs {
			s.push(g)
		}
		for i := 0; i < 3*len(gs); i++ {
			s.push(s.pop()) // a yield: the popped task goes to the tail
		}
		for s.queued() > 0 {
			s.pop()
		}
	}
	cycle()
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Fatalf("a warm drain/refill cycle allocates %v times, want 0", n)
	}
	for i, g := range s.q[:cap(s.q)] {
		if g != nil {
			t.Fatalf("drained queue still references a task in slot %d", i)
		}
	}
}

// TestRunQueueIsFIFO: pops come out in push order across the head
// reset and the compaction.
func TestRunQueueIsFIFO(t *testing.T) {
	s := &Scheduler{}
	var next, want int
	gs := make([]*G, 64)
	for i := range gs {
		gs[i] = &G{}
	}
	idx := make(map[*G]int, len(gs))
	for i, g := range gs {
		idx[g] = i
	}
	for round := 0; round < 200; round++ {
		for k := round%5 + 1; k > 0 && s.queued() < len(gs); k-- {
			s.push(gs[next%len(gs)])
			next++
		}
		for k := round%3 + 1; k > 0 && s.queued() > 0; k-- {
			if got := idx[s.pop()]; got != want%len(gs) {
				t.Fatalf("round %d: popped task %d, want %d", round, got, want%len(gs))
			}
			want++
		}
	}
}

// armTask arms the idle hook in its only Step, then finishes.
type armTask struct {
	armed *atomic.Bool
	done  chan struct{}
}

func (t *armTask) Step() Status {
	t.armed.Store(true)
	close(t.done)
	return Done
}

// TestIdleHookYieldsToReadiedGoroutine: on one P, the goroutine a task
// readied as it finished runs after at most one idle-hook call, not
// after the hook runs dry. The hook spins 100 µs per call for 30 calls
// (3 ms, under Go's 10 ms forced preemption), so only the hart giving
// up the processor between calls lets the waiter in early. Not
// parallel: it changes GOMAXPROCS.
func TestIdleHookYieldsToReadiedGoroutine(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	s := New(1)
	defer s.Stop()

	const budget = 30
	var armed atomic.Bool
	var calls atomic.Int64
	s.SetIdle(func() bool {
		if !armed.Load() || calls.Load() >= budget {
			return false
		}
		for t0 := time.Now(); time.Since(t0) < 100*time.Microsecond; {
		}
		calls.Add(1)
		return true
	})

	done := make(chan struct{})
	s.Go(&armTask{armed: &armed, done: done})
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("task never finished")
	}
	if n := calls.Load(); n > 1 {
		t.Fatalf("waiter ran after %d idle-hook calls, want <= 1", n)
	}
}
