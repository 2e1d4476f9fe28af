// Package timers is time for the LibOS: the Clock, real (Wall) or
// virtual (a manual Queue, moved only by Advance), and the deadline queue
// behind poll/epoll timeouts and idle-connection deadlines: a min-heap
// ordered by (deadline tick, arm sequence), so same-tick timers fire in
// arm order. A deadline is d from the queue's time — its clock's Now
// minus its start — rounded up to a Tick, so a timer never fires early.
// A driven queue keeps one clock timer, for the heap's minimum, however
// many deadlines are pending.
//
// Callbacks run outside the queue lock, so one may Reset its own timer
// (the idle reaper's lazy re-arm) or arm others. Once an advance has
// collected a timer, Cancel returns false and the callback still runs;
// callbacks must tolerate that race (the parking protocol's latched
// wakes do).
package timers

import (
	"container/heap"
	"sync"
	"sync/atomic"
	"time"
)

const (
	// Tick is the queue's resolution. 1 ms matches poll(2)'s millisecond
	// timeout ABI, so no guest deadline loses precision.
	Tick = time.Millisecond
	// maxDelay caps a delay (about 146 years) so now + d cannot overflow.
	maxDelay = time.Duration(1 << 62)
)

// Clock is a source of time and timers. Timer runs fn once, d from now,
// on a goroutine of the clock's choosing, unless cancel runs first.
type Clock interface {
	Now() time.Time
	Timer(d time.Duration, fn func()) (cancel func())
}

// Wall is the real clock, the one reader of the host's wall clock.
type Wall struct{}

func (Wall) Now() time.Time { return time.Now() }

// Since is the monotonic time since t, a Wall reading: what a piece of
// work cost the host, whatever clock the instance it serves runs on.
func (Wall) Since(t time.Time) time.Duration { return time.Since(t) }

func (Wall) Timer(d time.Duration, fn func()) func() {
	t := time.AfterFunc(d, fn)
	return func() { t.Stop() }
}

// Timer is one armed deadline. Obtain timers from Queue.Arm.
type Timer struct {
	q    *Queue
	fn   func()
	when uint64 // deadline tick
	seq  uint64 // arm order: the tie-break between equal deadlines
	idx  int    // index in q.h; -1 when not queued
}

// Queue is a deadline heap. A driven queue (clock != nil) reads its
// clock and advances itself from a single clock timer; a manual one is
// a virtual clock that advances only through Advance.
type Queue struct {
	mu       sync.Mutex
	h        timerHeap
	seq      uint64
	clock    Clock
	start    time.Time    // the clock's reading at New
	advanced atomic.Int64 // a manual queue's time: the sum of Advance calls
	stopped  bool

	// Driven mode: alarmStop cancels the live clock timer (nil if none),
	// which targets tick alarmFor; alarmGen tells its callback from
	// those of timers it replaced.
	alarmGen  uint64
	alarmFor  uint64
	alarmStop func()
}

// New returns a queue driven by clock, whose Timer is called under the
// queue lock, so it must schedule fn and return without running it; a
// nil clock yields a manual queue.
func New(clock Clock) *Queue {
	q := &Queue{clock: clock}
	if clock != nil {
		q.start = clock.Now()
	}
	return q
}

// Now implements Clock for a manual queue, the virtual clock: its
// Advance total after the Unix epoch.
func (q *Queue) Now() time.Time { return time.Unix(0, q.advanced.Load()) }

// Elapsed is the queue's time: its clock's reading minus its start, a
// difference a step of the wall time cannot move, or a manual queue's
// Advance total.
func (q *Queue) Elapsed() time.Duration {
	if q.clock == nil {
		return time.Duration(q.advanced.Load())
	}
	return q.clock.Now().Sub(q.start)
}

// Timer implements Clock with one timer on the queue.
func (q *Queue) Timer(d time.Duration, fn func()) func() {
	t := q.Arm(d, fn)
	return func() { t.Cancel() }
}

// Arm schedules fn to run once, at the first tick at least d (and at
// least one tick) after now. fn runs outside the queue lock on the
// advancing goroutine: the clock timer's for a driven queue, the
// Advance caller's for a manual one.
func (q *Queue) Arm(d time.Duration, fn func()) *Timer {
	t := &Timer{q: q, fn: fn, idx: -1}
	q.mu.Lock()
	q.push(t, d)
	q.mu.Unlock()
	return t
}

// Cancel dequeues the timer and reports whether it prevented the
// callback from running. Once an advance has collected the timer — even
// if the callback has not started yet — Cancel returns false.
func (t *Timer) Cancel() bool {
	q := t.q
	q.mu.Lock()
	defer q.mu.Unlock()
	if t.idx < 0 {
		return false
	}
	heap.Remove(&q.h, t.idx)
	return true
}

// Reset re-arms the timer for d from now. It is safe inside the timer's
// own callback (the lazy re-arm); from outside, while the timer might be
// firing, it risks one extra run, so external users Cancel first.
func (t *Timer) Reset(d time.Duration) {
	q := t.q
	q.mu.Lock()
	q.push(t, d)
	q.mu.Unlock()
}

// Advance moves a manual queue's time forward by d, firing every due
// callback synchronously on the calling goroutine. A driven queue's
// time is its clock's: advance the clock instead.
func (q *Queue) Advance(d time.Duration) {
	q.mu.Lock()
	q.advanced.Add(int64(d))
	due := q.popDue()
	q.mu.Unlock()
	run(due)
}

// Stop cancels a driven queue's clock timer and inhibits future ones;
// queued timers then fire only through Advance.
func (q *Queue) Stop() {
	q.mu.Lock()
	q.stopped = true
	q.stopAlarm()
	q.mu.Unlock()
}

// stopAlarm cancels the live clock timer, if any. Lock held.
func (q *Queue) stopAlarm() {
	if q.alarmStop != nil {
		q.alarmStop()
		q.alarmStop = nil
	}
}

// push (re)queues t for d from now with a fresh arm sequence. Lock held.
func (q *Queue) push(t *Timer, d time.Duration) {
	end := q.Elapsed() + min(max(d, Tick), maxDelay)
	t.when = uint64((end + Tick - 1) / Tick)
	t.seq = q.seq
	q.seq++
	if t.idx < 0 {
		heap.Push(&q.h, t)
	} else {
		heap.Fix(&q.h, t.idx)
	}
	q.schedule()
}

// popDue dequeues every timer due by now, in (deadline, arm sequence)
// order. Lock held; callers run the result after unlocking.
func (q *Queue) popDue() []*Timer {
	now := uint64(q.Elapsed() / Tick)
	var due []*Timer
	for len(q.h) > 0 && q.h[0].when <= now {
		due = append(due, heap.Pop(&q.h).(*Timer))
	}
	return due
}

func run(due []*Timer) {
	for _, t := range due {
		t.fn()
	}
}

// schedule keeps a driven queue's one clock timer aimed at the heap's
// minimum. A live alarm due no later than that is left alone: firing
// early, it finds nothing due and re-arms. Lock held.
func (q *Queue) schedule() {
	if q.clock == nil || q.stopped {
		return
	}
	if q.alarmStop != nil && (len(q.h) == 0 || q.alarmFor > q.h[0].when) {
		q.stopAlarm()
	}
	if len(q.h) == 0 || q.alarmStop != nil {
		return // nothing to wait for, or the live alarm is soon enough
	}
	q.alarmGen++
	gen := q.alarmGen
	q.alarmFor = q.h[0].when
	d := max(time.Duration(q.alarmFor)*Tick-q.Elapsed(), 0)
	q.alarmStop = q.clock.Timer(d, func() { q.onAlarm(gen) })
}

// onAlarm is the clock timer's callback: fire what is due, re-arm.
func (q *Queue) onAlarm(gen uint64) {
	q.mu.Lock()
	var due []*Timer
	if !q.stopped {
		if gen == q.alarmGen {
			q.alarmStop = nil
		}
		due = q.popDue()
		q.schedule()
	}
	q.mu.Unlock()
	run(due)
}

// timerHeap implements heap.Interface, keeping each Timer's idx current.
type timerHeap []*Timer

func (h timerHeap) Len() int { return len(h) }

func (h timerHeap) Less(i, j int) bool {
	a, b := h[i], h[j]
	return a.when < b.when || a.when == b.when && a.seq < b.seq
}

func (h timerHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx, h[j].idx = i, j
}

func (h *timerHeap) Push(x any) {
	t := x.(*Timer)
	t.idx = len(*h)
	*h = append(*h, t)
}

func (h *timerHeap) Pop() any {
	n := len(*h) - 1
	t := (*h)[n]
	(*h)[n], *h = nil, (*h)[:n]
	t.idx = -1
	return t
}
