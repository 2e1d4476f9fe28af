// Package timerwheel implements the hierarchical timing wheel behind
// the LibOS's poll/epoll timeouts and idle-connection deadlines.
//
// The seed-era design armed one host time.AfterFunc per blocking park:
// at c100k that is 100k host timer goroutines whose only job is to
// (usually) be cancelled a few milliseconds later. The wheel inverts
// the cost: Arm and Cancel are O(1) pointer splices under one mutex,
// and a single host alarm per wheel — re-armed to the earliest pending
// deadline — is the only real timer the host ever sees. The LibOS runs
// one wheel, so it holds at most one host timer no matter how many
// connections are parked.
//
// Geometry: 4 levels × 64 slots at a 1ms tick. Level 0 resolves single
// ticks; each higher level is 64× coarser, so the horizon is 64^4
// ticks (~4.6 hours at 1ms). Timers land in the coarsest level that
// still resolves their delta and cascade down lazily when the level
// below wraps; a timer beyond the horizon is clamped to it. Slots are
// intrusive doubly-linked lists, so Cancel unlinks without scanning,
// and per-level occupancy bitmaps let the next-event computation run
// in a handful of word operations instead of a slot walk.
//
// Callbacks fire outside the wheel lock, so a callback may re-arm its
// own timer with Reset — the idle-reaper's lazy re-arm pattern — or
// arm new timers freely. Cancel reports whether it prevented the fire;
// once a tick has collected a timer, Cancel returns false and the
// callback will still run, so callbacks must be idempotent against a
// racing cancel (the parking protocol's latched wakes already are).
package timerwheel

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

const (
	numLevels  = 4
	slotBits   = 6
	slotsPer   = 1 << slotBits // 64
	slotMask   = slotsPer - 1
	horizonLog = slotBits * numLevels
	horizon    = 1 << horizonLog // ticks covered by all levels
)

// Stats counts wheel activity since creation. Fires counts callbacks
// run; Cascades counts timers re-filed from a coarse level to a finer
// one as the wheel turned.
type Stats struct {
	Arms, Fires, Cancels, Cascades uint64
}

// Timer is one armed deadline. The zero value is not usable; obtain
// timers from Wheel.Arm.
type Timer struct {
	w          *Wheel
	fn         func()
	deadline   uint64 // absolute tick
	next, prev *Timer
	level      int8
	slot       int8
	linked     bool
}

type level struct {
	occ   uint64 // bit i set ⇔ slots[i] non-empty
	slots [slotsPer]*Timer
}

// Wheel is a hierarchical timing wheel. Driven wheels (alarm != nil)
// advance themselves from a single host alarm; manual wheels advance
// only via Advance, which tests use for deterministic tick control.
type Wheel struct {
	mu      sync.Mutex
	tick    time.Duration
	cur     uint64 // all ticks ≤ cur have been processed
	levels  [numLevels]level
	armed   int
	stopped bool

	// Driven mode: alarm schedules fn on the host clock after d and
	// returns a cancel. At most one alarm is outstanding per wheel.
	alarm      func(d time.Duration, fn func()) (cancel func())
	startT     time.Time // real-time anchor for tick arithmetic
	alarmGen   uint64
	alarmLive  bool
	alarmFor   uint64 // tick the live alarm targets
	alarmStop  func()
	manualTime time.Duration // manual mode: virtual elapsed time

	arms, fires, cancels, cascades atomic.Uint64
}

// New returns a wheel with the given tick. If alarm is non-nil the
// wheel is driven: it keeps exactly one host alarm outstanding, armed
// to the next tick at which anything fires or cascades. A nil alarm
// yields a manual wheel advanced only by Advance.
func New(tick time.Duration, alarm func(d time.Duration, fn func()) (cancel func())) *Wheel {
	if tick <= 0 {
		panic("timerwheel: tick must be positive")
	}
	return &Wheel{tick: tick, alarm: alarm, startT: time.Now()}
}

// Arm schedules fn to run once, about d after now (rounded up to a
// tick, min one tick, clamped to the wheel horizon). fn runs outside
// the wheel lock on the advancing goroutine — the alarm goroutine for
// driven wheels, the Advance caller for manual ones.
func (w *Wheel) Arm(d time.Duration, fn func()) *Timer {
	t := &Timer{w: w, fn: fn}
	w.mu.Lock()
	t.deadline = w.cur + w.ticksFor(d)
	w.insert(t)
	w.armed++
	w.arms.Add(1)
	w.schedule()
	w.mu.Unlock()
	return t
}

// Cancel unlinks the timer and reports whether it prevented the
// callback from running. Once a tick has collected the timer — even
// if the callback has not started yet — Cancel returns false.
func (t *Timer) Cancel() bool {
	w := t.w
	w.mu.Lock()
	hit := t.linked
	if hit {
		w.unlink(t)
		w.armed--
		w.cancels.Add(1)
	}
	w.mu.Unlock()
	return hit
}

// Reset re-arms the timer for d from now with its original callback.
// Safe to call from inside the callback itself (the lazy re-arm
// pattern); calling it from outside while the timer might be firing
// risks one extra callback run, so external users Cancel first.
func (t *Timer) Reset(d time.Duration) {
	w := t.w
	w.mu.Lock()
	if t.linked {
		w.unlink(t)
		w.armed--
	}
	t.deadline = w.cur + w.ticksFor(d)
	w.insert(t)
	w.armed++
	w.arms.Add(1)
	w.schedule()
	w.mu.Unlock()
}

// Advance moves a manual wheel's clock forward by d, firing every due
// callback synchronously on the calling goroutine.
func (w *Wheel) Advance(d time.Duration) {
	w.mu.Lock()
	w.manualTime += d
	fired := w.advanceLocked(uint64(w.manualTime / w.tick))
	w.mu.Unlock()
	w.fire(fired)
}

// Stop cancels the host alarm and inhibits future alarms. Armed timers
// stay linked but will not fire (a manual Advance still works, which
// shutdown tests use to flush).
func (w *Wheel) Stop() {
	w.mu.Lock()
	w.stopped = true
	stop := w.alarmStop
	w.alarmStop, w.alarmLive = nil, false
	w.mu.Unlock()
	if stop != nil {
		stop()
	}
}

// Armed returns the number of currently armed timers.
func (w *Wheel) Armed() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.armed
}

// Stats returns activity counters since creation.
func (w *Wheel) Stats() Stats {
	return Stats{
		Arms:     w.arms.Load(),
		Fires:    w.fires.Load(),
		Cancels:  w.cancels.Load(),
		Cascades: w.cascades.Load(),
	}
}

// ticksFor converts a duration to a tick delta: rounded up, min 1,
// clamped below the horizon. Lock held.
func (w *Wheel) ticksFor(d time.Duration) uint64 {
	if d <= 0 {
		return 1
	}
	t := uint64((d + w.tick - 1) / w.tick)
	if t == 0 {
		t = 1
	}
	if t >= horizon {
		t = horizon - 1
	}
	return t
}

// insert links t into the coarsest level that resolves its delta from
// cur. Lock held.
func (w *Wheel) insert(t *Timer) {
	delta := t.deadline - w.cur
	if delta >= horizon {
		delta = horizon - 1
		t.deadline = w.cur + delta
	}
	var l int
	for l = 0; l < numLevels-1 && delta >= 1<<(slotBits*(l+1)); l++ {
	}
	idx := (t.deadline >> (slotBits * l)) & slotMask
	lv := &w.levels[l]
	t.next = lv.slots[idx]
	t.prev = nil
	if t.next != nil {
		t.next.prev = t
	}
	lv.slots[idx] = t
	lv.occ |= 1 << idx
	t.level, t.slot = int8(l), int8(idx)
	t.linked = true
}

// unlink removes t from its slot. Lock held.
func (w *Wheel) unlink(t *Timer) {
	lv := &w.levels[t.level]
	if t.prev != nil {
		t.prev.next = t.next
	} else {
		lv.slots[t.slot] = t.next
		if t.next == nil {
			lv.occ &^= 1 << uint(t.slot)
		}
	}
	if t.next != nil {
		t.next.prev = t.prev
	}
	t.next, t.prev, t.linked = nil, nil, false
}

// takeSlot detaches and returns a slot's whole list. Lock held.
func (w *Wheel) takeSlot(l, idx int) *Timer {
	lv := &w.levels[l]
	head := lv.slots[idx]
	lv.slots[idx] = nil
	lv.occ &^= 1 << uint(idx)
	return head
}

// advanceLocked turns the wheel up to target, collecting expired
// timers. Lock held; callers run fire() on the result after unlocking.
func (w *Wheel) advanceLocked(target uint64) []*Timer {
	var fired []*Timer
	for w.cur < target {
		if w.empty() {
			w.cur = target
			break
		}
		w.cur++
		idx0 := int(w.cur & slotMask)
		if idx0 == 0 {
			w.cascade(1)
		}
		for t := w.takeSlot(0, idx0); t != nil; {
			next := t.next
			t.next, t.prev, t.linked = nil, nil, false
			w.armed--
			fired = append(fired, t)
			t = next
		}
	}
	return fired
}

// cascade re-files level l's current slot into finer levels; called
// when level l-1 wraps, recursing upward when this level wraps too.
// Timers whose deadline is the current tick land in level 0's current
// slot and are collected by the same tick that triggered the cascade.
func (w *Wheel) cascade(l int) {
	if l >= numLevels {
		return
	}
	idx := int((w.cur >> (slotBits * l)) & slotMask)
	if idx == 0 {
		w.cascade(l + 1)
	}
	for t := w.takeSlot(l, idx); t != nil; {
		next := t.next
		t.next, t.prev = nil, nil
		w.insert(t)
		w.cascades.Add(1)
		t = next
	}
}

func (w *Wheel) empty() bool {
	for l := range w.levels {
		if w.levels[l].occ != 0 {
			return false
		}
	}
	return true
}

// fire runs collected callbacks outside the lock and rolls the
// driven-mode alarm forward.
func (w *Wheel) fire(fired []*Timer) {
	for _, t := range fired {
		w.fires.Add(1)
		t.fn()
	}
}

// nextEventTick returns the earliest tick at which any slot fires or
// cascades, using the occupancy bitmaps. Lock held.
func (w *Wheel) nextEventTick() (uint64, bool) {
	best := uint64(0)
	found := false
	for l := 0; l < numLevels; l++ {
		occ := w.levels[l].occ
		if occ == 0 {
			continue
		}
		shift := uint(slotBits * l)
		curIdx := (w.cur >> shift) & slotMask
		// Distance 1..64 to the next occupied slot, wrapping.
		rot := bits.RotateLeft64(occ, -int(curIdx+1))
		d := uint64(bits.TrailingZeros64(rot)) + 1
		ev := ((w.cur >> shift) + d) << shift
		if !found || ev < best {
			best, found = ev, true
		}
	}
	return best, found
}

// schedule (driven mode) keeps exactly one host alarm outstanding,
// targeting the next event tick. Lock held.
func (w *Wheel) schedule() {
	if w.alarm == nil || w.stopped {
		return
	}
	next, ok := w.nextEventTick()
	if !ok {
		if w.alarmStop != nil {
			w.alarmStop()
			w.alarmStop, w.alarmLive = nil, false
		}
		return
	}
	if w.alarmLive && w.alarmFor <= next {
		return // the live alarm already fires soon enough
	}
	if w.alarmStop != nil {
		w.alarmStop()
	}
	w.alarmGen++
	gen := w.alarmGen
	w.alarmLive, w.alarmFor = true, next
	d := time.Until(w.startT.Add(time.Duration(next) * w.tick))
	if d < 0 {
		d = 0
	}
	w.alarmStop = w.alarm(d, func() { w.onAlarm(gen) })
}

// onAlarm is the single host-alarm callback: advance to real time,
// fire, re-arm.
func (w *Wheel) onAlarm(gen uint64) {
	w.mu.Lock()
	if gen == w.alarmGen {
		w.alarmLive = false
		w.alarmStop = nil
	}
	target := uint64(time.Since(w.startT) / w.tick)
	fired := w.advanceLocked(target)
	w.schedule()
	w.mu.Unlock()
	w.fire(fired)
}
