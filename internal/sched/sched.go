// Package sched implements the M:N scheduler that multiplexes many SIPs
// over a bounded pool of harts.
//
// The paper's threading model gives each SIP one SGX thread (TCS) for its
// whole lifetime, which caps concurrency at the TCS budget and lets any
// blocked SIP hold a hardware thread hostage. This package decouples the
// two: a Scheduler runs a fixed pool of harts (one goroutine per
// configured TCS) over one FIFO run queue, and SIPs become resumable
// Tasks that are stepped one scheduling quantum at a time. A blocking
// operation does not block the hart — the task registers a waiter with
// the resource it needs, returns Park, and the hart moves on to the next
// runnable task; the resource's wakeup calls Unpark, which requeues the
// task.
//
// # One queue, one lock
//
// The run queue, the count of sleeping harts, the stop flag and the
// latched Kick are all guarded by Scheduler.mu, which is also the lock
// of the harts' condition variable. A hart waits on the condition only
// after it has seen, under mu, an empty queue, no stop and no latched
// Kick; every push appends and signals under the same lock. So a push
// is either seen by that check or its signal lands after the Wait: no
// wake is missed, with no second lock to reason about. When no hart is
// asleep, enqueue asks the task running on one hart — picked by a
// rotating index — to yield early, so queued work is not stuck behind
// CPU-bound quanta.
//
// # Park/unpark protocol
//
// The lost-wakeup race (a wake arriving between the moment a task decides
// to park and the moment the hart commits the park) is closed with a
// latched wake flag, exactly like gopark/goready in the Go runtime:
//
//  1. The task, holding the resource's lock, registers a waiter callback
//     and returns Park. The callback's only job is to call G.Unpark.
//  2. The hart commits the park: it publishes state Parked, then checks
//     the wake latch. If a wake already landed, it atomically takes the
//     task back (Parked→Queued) and keeps running it.
//  3. Unpark sets the latch first, then tries the same Parked→Queued
//     transition. Exactly one side wins the CAS, so the task is requeued
//     exactly once.
//
// Because every parked operation is retried from scratch when the task
// next runs (and re-parks if still not ready), spurious wakeups are
// harmless; the protocol only has to guarantee at-least-once delivery of
// the *last* wake.
package sched

import (
	"sync"
	"sync/atomic"
	"time"
)

// Status is what a Task's Step reports back to its hart.
type Status uint8

const (
	// Yield: the quantum ended (cycle slice exhausted or preempted);
	// requeue the task.
	Yield Status = iota
	// Park: the task registered a waiter with a blocked resource;
	// hold it off the run queue until Unpark.
	Park
	// Done: the task finished; drop it.
	Done
)

// Task is a resumable coroutine the scheduler can run: each Step call
// executes one scheduling quantum and reports how it ended. Step is never
// called concurrently for one task.
type Task interface {
	Step() Status
}

// Preempter is implemented by tasks that can be asked to yield early —
// the scheduler requests preemption of running tasks when runnable work
// queues up and no hart is idle.
type Preempter interface {
	RequestPreempt()
}

// G states. A task is in exactly one of them; transitions are documented
// at each site.
const (
	gQueued  int32 = iota // on the run queue
	gRunning              // being stepped by a hart
	gParked               // off the queue, waiting for Unpark
	gDone                 // finished
)

// G is the scheduler's handle for one task (the goroutine-analog).
type G struct {
	s    *Scheduler
	task Task

	state atomic.Int32
	// wake latches an Unpark that raced with parking; see the package
	// comment for the protocol.
	wake atomic.Bool
}

// Unpark makes a parked task runnable again. It is safe to call from any
// goroutine, any number of times, in any task state: wakes to a running
// or queued task are latched and absorbed by the next park attempt, and
// wakes to a finished task are ignored.
func (g *G) Unpark() {
	g.wake.Store(true)
	if g.state.CompareAndSwap(gParked, gQueued) {
		g.wake.Store(false)
		g.s.stats.Unparks.Add(1)
		g.s.enqueue(g)
	}
}

// Done reports whether the task has finished.
func (g *G) Done() bool { return g.state.Load() == gDone }

// Stats counts scheduler events. All fields are cumulative and safe for
// concurrent use; BusyNS accumulates hart time spent inside Task.Step.
type Stats struct {
	Tasks       atomic.Uint64 // tasks ever submitted
	Slices      atomic.Uint64 // Step calls
	Yields      atomic.Uint64 // quanta ending in Yield
	Parks       atomic.Uint64 // committed parks
	Unparks     atomic.Uint64 // parked tasks made runnable
	PreemptReqs atomic.Uint64 // preemption requests issued by enqueue
	Preempts    atomic.Uint64 // preemptions delivered (bumped by the task layer)
	BusyNS      atomic.Int64  // total hart time inside Step
}

// Snapshot is a plain-value copy of Stats plus derived figures. Steals
// is always 0: there is one run queue and nothing to steal from. The
// field stays because the benchmark harness reads it.
type Snapshot struct {
	Tasks, Slices, Yields, Parks, Unparks, Steals uint64
	PreemptReqs, Preempts                         uint64
	BusyNS, CapacityNS                            int64
}

// Utilization returns the fraction of hart-time spent running tasks.
func (s Snapshot) Utilization() float64 {
	if s.CapacityNS <= 0 {
		return 0
	}
	u := float64(s.BusyNS) / float64(s.CapacityNS)
	if u > 1 {
		u = 1
	}
	return u
}

// Sub returns the event delta s - o (capacity and busy time included).
func (s Snapshot) Sub(o Snapshot) Snapshot {
	return Snapshot{
		Tasks: s.Tasks - o.Tasks, Slices: s.Slices - o.Slices,
		Yields: s.Yields - o.Yields, Parks: s.Parks - o.Parks,
		Unparks: s.Unparks - o.Unparks, PreemptReqs: s.PreemptReqs - o.PreemptReqs,
		Preempts: s.Preempts - o.Preempts, BusyNS: s.BusyNS - o.BusyNS,
		CapacityNS: s.CapacityNS - o.CapacityNS,
	}
}

// hart is one worker of the pool: a goroutine taking tasks off the
// scheduler's run queue. running is the task currently inside Step,
// exposed so enqueue can request its preemption when work piles up.
type hart struct {
	s       *Scheduler
	running atomic.Pointer[G]
}

// Scheduler runs tasks over a fixed pool of harts.
type Scheduler struct {
	harts []*hart

	// mu guards the run queue and the sleep/wake handshake (see the
	// package comment); cond is the harts' condition on it.
	mu      sync.Mutex
	cond    sync.Cond
	q       []*G // FIFO run queue: harts pop the head, pushes append
	idle    int  // harts waiting on cond
	stopped bool
	// kicked is a latched Kick: background work appeared while the pool
	// was asleep, so the next hart through sleep should give the idle
	// hook a turn instead of blocking.
	kicked bool

	// idleFn is the background-work hook (see SetIdle); idleActive makes
	// it single-flight so concurrent idle harts don't pile onto it.
	idleFn     atomic.Pointer[func() bool]
	idleActive atomic.Bool

	// victim rotates the hart whose running task enqueue asks to yield.
	victim atomic.Uint32
	wg     sync.WaitGroup
	stats  Stats

	start    time.Time
	stopTime atomic.Int64 // unixnano at Stop, 0 while running
}

// New creates and starts a scheduler with n harts (n < 1 is clamped
// to 1).
func New(n int) *Scheduler {
	if n < 1 {
		n = 1
	}
	s := &Scheduler{start: time.Now()}
	s.cond.L = &s.mu
	for i := 0; i < n; i++ {
		s.harts = append(s.harts, &hart{s: s})
	}
	for _, h := range s.harts {
		s.wg.Add(1)
		go h.loop()
	}
	register(s)
	return s
}

// NumHarts returns the pool size.
func (s *Scheduler) NumHarts() int { return len(s.harts) }

// Runnable returns the number of tasks currently sitting on the run
// queue (excluding the ones inside Step right now). Admission control
// reads it: the accept path sheds load when it climbs past a threshold.
func (s *Scheduler) Runnable() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.q)
}

// Stats returns the live counters (for the task layer to bump Preempts
// and for stats consumers).
func (s *Scheduler) Stats() *Stats { return &s.stats }

// Go submits a task and returns its handle. The task starts in state
// Queued at the back of the run queue.
func (s *Scheduler) Go(t Task) *G {
	g := s.Prepare(t)
	s.Start(g)
	return g
}

// Prepare creates a handle without scheduling the task — so the task can
// stash its own handle (for self-unparks) before it can possibly run.
// Follow with Start.
func (s *Scheduler) Prepare(t Task) *G { return &G{s: s, task: t} }

// Start schedules a Prepared task.
func (s *Scheduler) Start(g *G) {
	s.stats.Tasks.Add(1)
	s.enqueue(g)
}

// Stop shuts the hart pool down. Tasks still queued or parked are
// abandoned; callers must only Stop once all tasks have finished (the
// LibOS contract: Shutdown happens after processes exit).
func (s *Scheduler) Stop() {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return
	}
	s.stopped = true
	s.cond.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()
	s.stopTime.Store(time.Now().UnixNano())
	unregister(s)
}

// Snapshot returns a consistent-enough copy of the counters plus the
// hart-time capacity accumulated so far.
func (s *Scheduler) Snapshot() Snapshot {
	end := time.Now().UnixNano()
	if t := s.stopTime.Load(); t != 0 {
		end = t
	}
	cap := (end - s.start.UnixNano()) * int64(len(s.harts))
	return Snapshot{
		Tasks: s.stats.Tasks.Load(), Slices: s.stats.Slices.Load(),
		Yields: s.stats.Yields.Load(), Parks: s.stats.Parks.Load(),
		Unparks: s.stats.Unparks.Load(), PreemptReqs: s.stats.PreemptReqs.Load(),
		Preempts: s.stats.Preempts.Load(), BusyNS: s.stats.BusyNS.Load(),
		CapacityNS: cap,
	}
}

// SetIdle registers fn as the scheduler's idle-time background hook. A
// hart that finds the run queue empty calls fn before committing to
// sleep; fn returns true when it did some work — the hart then re-checks
// the queue instead of sleeping, so background work never delays a
// freshly enqueued task by more than one fn call. Calls are
// single-flight across harts: at most one hart is ever inside fn, the
// rest sleep as usual. When fn returns false the calling hart sleeps
// too, so a hook that latches "nothing left to do" (like the BlockStore
// scrubber's clean-pass latch) lets the pool quiesce completely. Passing
// nil removes the hook.
func (s *Scheduler) SetIdle(fn func() bool) {
	if fn == nil {
		s.idleFn.Store(nil)
		return
	}
	s.idleFn.Store(&fn)
}

// Kick wakes one sleeping hart so the idle hook gets a turn. Harts give
// the hook a shot on their own whenever they run out of tasks, but a
// fully quiesced pool only wakes for enqueued work — a mutation made
// off-hart (a host-thread VFS write, an explicit Sync) would otherwise
// never rouse the scrubber. The kick is latched, so it is not lost when
// every hart is busy: the next hart to go idle consumes it.
func (s *Scheduler) Kick() {
	s.mu.Lock()
	s.kicked = true
	s.cond.Signal()
	s.mu.Unlock()
}

// runIdle gives the registered idle hook one shot (single-flight) and
// reports whether it did work.
func (s *Scheduler) runIdle() bool {
	fnp := s.idleFn.Load()
	if fnp == nil {
		return false
	}
	if !s.idleActive.CompareAndSwap(false, true) {
		return false
	}
	worked := (*fnp)()
	s.idleActive.Store(false)
	return worked
}

// enqueue appends g (state must already be Queued) to the run queue and
// wakes a sleeping hart — or, when none is asleep, asks the task running
// on one hart to yield early so queued work is not stuck behind a
// CPU-bound quantum.
func (s *Scheduler) enqueue(g *G) {
	s.mu.Lock()
	s.q = append(s.q, g)
	idle := s.idle > 0
	if idle {
		s.cond.Signal()
	}
	s.mu.Unlock()
	if idle {
		return
	}
	h := s.harts[s.victim.Add(1)%uint32(len(s.harts))]
	if cur := h.running.Load(); cur != nil {
		if p, ok := cur.task.(Preempter); ok {
			s.stats.PreemptReqs.Add(1)
			p.RequestPreempt()
		}
	}
}

// loop is a hart: it takes the head of the run queue and runs it until
// the scheduler stops, giving the idle hook a turn and then sleeping
// whenever the queue is empty.
func (h *hart) loop() {
	s := h.s
	defer s.wg.Done()
	s.mu.Lock()
	defer s.mu.Unlock()
	for !s.stopped {
		if len(s.q) == 0 {
			s.mu.Unlock()
			worked := s.runIdle()
			s.mu.Lock()
			if !worked {
				s.sleep()
			}
			continue
		}
		g := s.q[0]
		s.q[0] = nil // a finished task must not stay reachable from here
		s.q = s.q[1:]
		s.mu.Unlock()
		yielded := h.run(g)
		s.mu.Lock()
		if yielded {
			s.q = append(s.q, g)
			// This hart takes the head next; wake another for the rest.
			if len(s.q) > 1 && s.idle > 0 {
				s.cond.Signal()
			}
		}
	}
}

// sleep waits on cond, mu held, until the queue is non-empty, the
// scheduler stopped or a Kick is latched (which it consumes, so loop
// offers the idle hook a turn).
func (s *Scheduler) sleep() {
	for len(s.q) == 0 && !s.stopped {
		if s.kicked {
			s.kicked = false
			return
		}
		s.idle++
		s.cond.Wait()
		s.idle--
	}
}

// run steps g until it yields, parks for real, or finishes, and reports
// whether it yielded (the caller requeues it). A park whose wake already
// landed is absorbed here and the task keeps running — the
// futex-wake-before-park fast path.
func (h *hart) run(g *G) bool {
	s := h.s
	for {
		g.state.Store(gRunning)
		h.running.Store(g)
		t0 := time.Now()
		st := g.task.Step()
		s.stats.BusyNS.Add(int64(time.Since(t0)))
		s.stats.Slices.Add(1)
		h.running.Store(nil)

		switch st {
		case Done:
			g.state.Store(gDone)
			return false
		case Yield:
			s.stats.Yields.Add(1)
			g.state.Store(gQueued)
			return true
		case Park:
			// Commit the park, then re-check the latch: an Unpark that
			// fired while the task was deciding to park must not be
			// lost. Exactly one of this CAS and Unpark's CAS wins.
			g.state.Store(gParked)
			if g.wake.Load() && g.state.CompareAndSwap(gParked, gQueued) {
				g.wake.Store(false)
				continue // wake raced the park: keep running
			}
			s.stats.Parks.Add(1)
			return false
		}
	}
}

// --- Global aggregation (for occlum-bench -schedstats) -------------------

// Live schedulers are enumerated for GlobalSnapshot; a stopped
// scheduler folds its final snapshot into the retired accumulator and
// leaves the registry, so long-lived processes that boot many kernels
// (the bench binary, the test suite) retain no dead Scheduler objects.
var (
	regMu    sync.Mutex
	registry []*Scheduler
	retired  Snapshot
)

func register(s *Scheduler) {
	regMu.Lock()
	registry = append(registry, s)
	regMu.Unlock()
}

func unregister(s *Scheduler) {
	final := s.Snapshot() // capacity frozen: stopTime is set
	regMu.Lock()
	defer regMu.Unlock()
	for i, r := range registry {
		if r == s {
			registry = append(registry[:i], registry[i+1:]...)
			break
		}
	}
	retired.accumulate(final)
}

func (t *Snapshot) accumulate(s Snapshot) {
	t.Tasks += s.Tasks
	t.Slices += s.Slices
	t.Yields += s.Yields
	t.Parks += s.Parks
	t.Unparks += s.Unparks
	t.PreemptReqs += s.PreemptReqs
	t.Preempts += s.Preempts
	t.BusyNS += s.BusyNS
	t.CapacityNS += s.CapacityNS
}

// GlobalSnapshot sums the snapshots of every scheduler created by this
// process, live or stopped — the sched analog of vm.GlobalCacheStats,
// so benchmark drivers can report totals without owning the kernels.
func GlobalSnapshot() Snapshot {
	regMu.Lock()
	defer regMu.Unlock()
	total := retired
	for _, s := range registry {
		total.accumulate(s.Snapshot())
	}
	return total
}
