// Package timers is the deadline queue behind the LibOS's poll/epoll
// timeouts and idle-connection deadlines: a min-heap ordered by
// (deadline tick, arm sequence), so same-tick timers fire in arm order.
// A deadline is d from the queue's current time — the host clock, or the
// total of Advance calls for a manual queue — rounded up to a Tick, so a
// timer never fires early. A driven queue keeps one host alarm, for the
// heap's minimum, however many deadlines are pending.
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
	"time"
)

const (
	// Tick is the queue's resolution. 1 ms matches poll(2)'s millisecond
	// timeout ABI, so no guest deadline loses precision.
	Tick = time.Millisecond
	// maxDelay caps a delay (about 146 years) so now + d cannot overflow.
	maxDelay = time.Duration(1 << 62)
)

// Timer is one armed deadline. Obtain timers from Queue.Arm.
type Timer struct {
	q    *Queue
	fn   func()
	when uint64 // deadline tick
	seq  uint64 // arm order: the tie-break between equal deadlines
	idx  int    // index in q.h; -1 when not queued
}

// Queue is a deadline heap. A driven queue (alarm != nil) advances
// itself from a single host alarm; a manual one advances only through
// Advance, which tests use for deterministic time.
type Queue struct {
	mu       sync.Mutex
	h        timerHeap
	seq      uint64
	advanced time.Duration // sum of Advance calls
	stopped  bool

	// Driven mode: alarm runs fn on the host clock after d. alarmStop
	// cancels the live alarm (nil if none), which targets tick alarmFor;
	// alarmGen tells its callback from those of alarms it replaced.
	alarm     func(d time.Duration, fn func()) (cancel func())
	start     time.Time
	alarmGen  uint64
	alarmFor  uint64
	alarmStop func()
}

// New returns a queue driven by alarm, which is called under the queue
// lock, so it must schedule fn and return without running it; a nil
// alarm yields a manual queue.
func New(alarm func(d time.Duration, fn func()) (cancel func())) *Queue {
	return &Queue{alarm: alarm, start: time.Now()}
}

// Arm schedules fn to run once, at the first tick at least d (and at
// least one tick) after now. fn runs outside the queue lock on the
// advancing goroutine: the alarm's for a driven queue, the Advance
// caller's for a manual one.
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

// Advance moves the queue's clock forward by d, firing every due
// callback synchronously on the calling goroutine.
func (q *Queue) Advance(d time.Duration) {
	q.mu.Lock()
	q.advanced += d
	due := q.popDue()
	q.mu.Unlock()
	run(due)
}

// Stop cancels the host alarm and inhibits future ones; queued timers
// then fire only through Advance.
func (q *Queue) Stop() {
	q.mu.Lock()
	q.stopped = true
	q.stopAlarm()
	q.mu.Unlock()
}

// stopAlarm cancels the live host alarm, if any. Lock held.
func (q *Queue) stopAlarm() {
	if q.alarmStop != nil {
		q.alarmStop()
		q.alarmStop = nil
	}
}

// now is the queue's current time. Lock held.
func (q *Queue) now() time.Duration {
	if q.alarm == nil {
		return q.advanced
	}
	return time.Since(q.start) + q.advanced
}

// push (re)queues t for d from now with a fresh arm sequence. Lock held.
func (q *Queue) push(t *Timer, d time.Duration) {
	end := q.now() + min(max(d, Tick), maxDelay)
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
	now := uint64(q.now() / Tick)
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

// schedule keeps a driven queue's one host alarm aimed at the heap's
// minimum. A live alarm due no later than that is left alone: firing
// early, it finds nothing due and re-arms. Lock held.
func (q *Queue) schedule() {
	if q.alarm == nil || q.stopped {
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
	d := max(time.Duration(q.alarmFor)*Tick-q.now(), 0)
	q.alarmStop = q.alarm(d, func() { q.onAlarm(gen) })
}

// onAlarm is the host alarm's callback: fire what is due, re-arm.
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
