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
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/timers"
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
		atomic.AddUint64(&g.s.stats.Unparks, 1)
		g.s.enqueue(g)
	}
}

// Done reports whether the task has finished.
func (g *G) Done() bool { return g.state.Load() == gDone }

// Snapshot is the scheduler counters, declared once: each Scheduler
// holds a live value of it, written only through sync/atomic, and
// (*Scheduler).Snapshot returns a copy with CapacityNS filled in. All
// are cumulative. Steals is always 0: there is one run queue and nothing
// to steal from; the field stays because the benchmark harness reads
// it.
type Snapshot struct {
	Tasks       uint64 // tasks ever submitted
	Slices      uint64 // Step calls
	Yields      uint64 // quanta ending in Yield
	Parks       uint64 // committed parks
	Unparks     uint64 // parked tasks made runnable
	Steals      uint64 // always 0
	PreemptReqs uint64 // preemption requests issued by enqueue
	Preempts    uint64 // preemptions delivered (counted by the task layer)
	BusyNS      int64  // total hart time inside Step
	CapacityNS  int64  // hart time the pool has existed for (not counted live)
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
func (s Snapshot) Sub(o Snapshot) Snapshot { return metrics.Sub(s, o) }

// hart is one worker of the pool: a goroutine taking tasks off the
// scheduler's run queue. running is the task currently inside Step,
// exposed so enqueue can request its preemption when work piles up.
type hart struct {
	s       *Scheduler
	running atomic.Pointer[G]
}

// Scheduler runs tasks over a fixed pool of harts.
type Scheduler struct {
	// stats comes first, so its words are 64-bit aligned for sync/atomic
	// on 32-bit platforms too.
	stats Snapshot
	harts []*hart

	// mu guards the run queue and the sleep/wake handshake (see the
	// package comment); cond is the harts' condition on it.
	mu   sync.Mutex
	cond sync.Cond
	// q[head:] is the FIFO run queue: harts pop at head, pushes
	// append. The backing array is reused: head returns to 0 when the
	// queue empties, and pop compacts once head passes half the length.
	q       []*G
	head    int
	idle    int // harts waiting on cond
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

	// clock times the capacity; start and stopTime are its readings at
	// New and at Stop (nil while running). A slice's busy time is host
	// CPU, so it is on the real clock.
	clock    timers.Clock
	start    time.Time
	stopTime atomic.Pointer[time.Time]
}

// New creates and starts a scheduler with n harts (n < 1 is clamped
// to 1) on the real clock.
func New(n int) *Scheduler { return NewWithClock(n, timers.Wall{}) }

// NewWithClock is New on clock: a LibOS hands its host's.
func NewWithClock(n int, clock timers.Clock) *Scheduler {
	if n < 1 {
		n = 1
	}
	s := &Scheduler{clock: clock, start: clock.Now()}
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
	return s.queued()
}

// queued, push and pop are the run queue's operations; mu is held.
func (s *Scheduler) queued() int { return len(s.q) - s.head }

func (s *Scheduler) push(g *G) { s.q = append(s.q, g) }

func (s *Scheduler) pop() *G {
	g := s.q[s.head]
	s.q[s.head] = nil // a finished task must not stay reachable from here
	s.head++
	switch {
	case s.head == len(s.q):
		s.q, s.head = s.q[:0], 0
	case s.head > len(s.q)/2:
		n := copy(s.q, s.q[s.head:])
		clear(s.q[n:])
		s.q, s.head = s.q[:n], 0
	}
	return g
}

// CountPreempt counts a preemption the task layer delivered.
func (s *Scheduler) CountPreempt() { atomic.AddUint64(&s.stats.Preempts, 1) }

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
	atomic.AddUint64(&s.stats.Tasks, 1)
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
	now := s.clock.Now()
	s.stopTime.Store(&now)
	unregister(s)
}

// Snapshot returns a consistent-enough copy of the counters plus the
// hart-time capacity accumulated so far.
func (s *Scheduler) Snapshot() Snapshot {
	end := s.clock.Now()
	if t := s.stopTime.Load(); t != nil {
		end = *t
	}
	snap := metrics.Load(&s.stats)
	snap.CapacityNS = int64(end.Sub(s.start)) * int64(len(s.harts))
	return snap
}

// SetIdle registers fn as the scheduler's idle-time background hook. A
// hart that finds the run queue empty calls fn before committing to
// sleep; fn returns true when it did some work — the hart then gives up
// the processor and re-checks the queue instead of sleeping, so
// background work never delays a freshly enqueued task, or a goroutine
// readied off the hart (a host thread woken by a SIP's exit), by more
// than one fn call. Calls are
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
	s.push(g)
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
			atomic.AddUint64(&s.stats.PreemptReqs, 1)
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
		if s.queued() == 0 {
			s.mu.Unlock()
			worked := s.runIdle()
			if worked {
				// Background work runs at idle priority: after one hook
				// call, any goroutine that became runnable gets the
				// processor before the next. Twice, because once in 61
				// schedules the runtime takes the global run queue
				// first, where Gosched has just put this hart.
				runtime.Gosched()
				runtime.Gosched()
			}
			s.mu.Lock()
			if !worked {
				s.sleep()
			}
			continue
		}
		g := s.pop()
		s.mu.Unlock()
		yielded := h.run(g)
		s.mu.Lock()
		if yielded {
			s.push(g)
			// This hart takes the head next; wake another for the rest.
			if s.queued() > 1 && s.idle > 0 {
				s.cond.Signal()
			}
		}
	}
}

// sleep waits on cond, mu held, until the queue is non-empty, the
// scheduler stopped or a Kick is latched (which it consumes, so loop
// offers the idle hook a turn).
func (s *Scheduler) sleep() {
	for s.queued() == 0 && !s.stopped {
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
		t0 := timers.Wall{}.Now() // busy time is the host's CPU
		st := g.task.Step()
		atomic.AddInt64(&s.stats.BusyNS, int64(timers.Wall{}.Since(t0)))
		atomic.AddUint64(&s.stats.Slices, 1)
		h.running.Store(nil)

		switch st {
		case Done:
			g.state.Store(gDone)
			return false
		case Yield:
			atomic.AddUint64(&s.stats.Yields, 1)
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
			atomic.AddUint64(&s.stats.Parks, 1)
			return false
		}
	}
}

// --- Global aggregation (for occlum-bench -stats) ------------------------

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
	retired = metrics.Add(retired, final)
}

// GlobalSnapshot sums the snapshots of every scheduler created by this
// process, live or stopped — the sched analog of vm.GlobalCacheStats,
// so benchmark drivers can report totals without owning the kernels.
func GlobalSnapshot() Snapshot {
	regMu.Lock()
	defer regMu.Unlock()
	total := retired
	for _, s := range registry {
		total = metrics.Add(total, s.Snapshot())
	}
	return total
}
