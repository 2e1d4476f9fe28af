package timers

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// manual returns a test queue advanced only by Advance.
func manual() *Queue { return New(nil) }

// queued is the number of timers in q's heap.
func queued(q *Queue) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.h)
}

// driven returns a queue driven by a manual parent queue: the parent is
// its virtual clock, and the timers queued on the parent are the driven
// queue's live clock timers.
func driven() (q, clock *Queue) {
	clock = manual()
	return New(clock), clock
}

func TestFiresInOrder(t *testing.T) {
	q := manual()
	var mu sync.Mutex
	var got []int
	for _, d := range []int{5, 2, 9, 2, 70, 4097} {
		q.Arm(time.Duration(d)*time.Millisecond, func() {
			mu.Lock()
			got = append(got, d)
			mu.Unlock()
		})
	}
	q.Advance(5 * time.Second)
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 6 {
		t.Fatalf("fired %d of 6: %v", len(got), got)
	}
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			t.Fatalf("out of order: %v", got)
		}
	}
	if n := queued(q); n != 0 {
		t.Fatalf("queued = %d", n)
	}
}

// TestDeadlineBoundary checks that a timer fires on its deadline tick —
// not a tick early, not a tick late — both when armed on a tick and
// when armed half a tick past one, where "d from now" ends mid-tick and
// rounds up to the next.
func TestDeadlineBoundary(t *testing.T) {
	for _, off := range []time.Duration{0, Tick / 2} {
		for _, ticks := range []int{1, 2, 63, 64, 65, 4096, 4097} {
			q := manual()
			q.Advance(off)
			var fired atomic.Int32
			d := time.Duration(ticks) * Tick
			q.Arm(d, func() { fired.Add(1) })
			early := d - Tick // the last tick boundary before off+d
			if off != 0 {
				early = d - off
			}
			q.Advance(early)
			if fired.Load() != 0 {
				t.Fatalf("off %v, deadline %d ticks: fired after %v", off, ticks, early)
			}
			q.Advance(Tick)
			if fired.Load() != 1 {
				t.Fatalf("off %v, deadline %d ticks: did not fire on its tick", off, ticks)
			}
		}
	}
}

// TestCancelRacesAdvance races Cancel against Advance calls that are
// collecting the same timers. Run under -race this checks the lock
// discipline; the invariant checked here is exactly-once: every timer
// either fires once or reports a successful cancel, never both, never
// neither.
func TestCancelRacesAdvance(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		q := manual()
		const n = 256
		fired := make([]atomic.Int32, n)
		timers := make([]*Timer, n)
		for i := 0; i < n; i++ {
			timers[i] = q.Arm(time.Duration(64+i)*time.Millisecond, func() { fired[i].Add(1) })
		}
		var cancelled [n]bool
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			for k := 0; k < 40; k++ {
				q.Advance(10 * time.Millisecond)
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < n; i += 2 {
				cancelled[i] = timers[i].Cancel()
			}
		}()
		wg.Wait()
		q.Advance(time.Second)
		for i := 0; i < n; i++ {
			f := fired[i].Load()
			want := int32(1)
			if cancelled[i] {
				want = 0
			}
			if f != want {
				t.Fatalf("timer %d: fired=%d cancelled=%v", i, f, cancelled[i])
			}
		}
	}
}

// TestTiesFireInArmOrder arms eight timers for the same tick: they fire
// in the order they were armed.
func TestTiesFireInArmOrder(t *testing.T) {
	q := manual()
	var got []int
	for i := 0; i < 8; i++ {
		q.Arm(3*Tick, func() { got = append(got, i) })
	}
	q.Advance(3 * Tick)
	for i, v := range got {
		if v != i {
			t.Fatalf("fire order %v, want 0…7", got)
		}
	}
	if len(got) != 8 {
		t.Fatalf("fired %d of 8", len(got))
	}
}

// TestBeyondOldHorizon arms a deadline past 2^24 ticks (about 4.66 h):
// it fires at its own tick, not at any clamp.
func TestBeyondOldHorizon(t *testing.T) {
	q := manual()
	var fired atomic.Int32
	q.Arm(5*time.Hour, func() { fired.Add(1) })
	q.Advance(5*time.Hour - Tick)
	if fired.Load() != 0 {
		t.Fatal("5 h deadline fired at 5 h − 1 ms")
	}
	q.Advance(Tick)
	if fired.Load() != 1 {
		t.Fatal("5 h deadline did not fire at 5 h")
	}
}

// TestArmAfterIdleGap is the regression test for deadlines measured
// from a stale clock: on a driven queue, let a timer fire, leave the
// queue idle for 300 ms, then arm 200 ms. The timer must not fire at
// 199 ms and must fire at 200 ms.
func TestArmAfterIdleGap(t *testing.T) {
	q, clock := driven()
	defer q.Stop()
	var first, second atomic.Int32
	q.Arm(20*time.Millisecond, func() { first.Add(1) })
	clock.Advance(20 * time.Millisecond)
	if first.Load() != 1 {
		t.Fatal("20 ms timer did not fire at 20 ms")
	}
	clock.Advance(300 * time.Millisecond)
	q.Arm(200*time.Millisecond, func() { second.Add(1) })
	clock.Advance(199 * time.Millisecond)
	if second.Load() != 0 {
		t.Fatal("200 ms timer armed after an idle gap fired at 199 ms")
	}
	clock.Advance(Tick)
	if second.Load() != 1 {
		t.Fatal("200 ms timer armed after an idle gap did not fire at 200 ms")
	}
}

// TestMassExpiry parks 10k idle-connection deadlines on the same tick
// and expires them all in one Advance — the reaper's burst case.
func TestMassExpiry(t *testing.T) {
	q := manual()
	const n = 10000
	var fired atomic.Int32
	for i := 0; i < n; i++ {
		q.Arm(500*time.Millisecond, func() { fired.Add(1) })
	}
	q.Advance(499 * time.Millisecond)
	if fired.Load() != 0 {
		t.Fatalf("early fires: %d", fired.Load())
	}
	q.Advance(time.Millisecond)
	if fired.Load() != n {
		t.Fatalf("fired %d of %d in the deadline tick", fired.Load(), n)
	}
	if n := queued(q); n != 0 {
		t.Fatalf("queued = %d", n)
	}
}

// TestRearmFromCallback re-arms a timer from inside its own callback —
// the idle reaper's lazy re-arm — and checks the chain keeps firing on
// schedule.
func TestRearmFromCallback(t *testing.T) {
	q := manual()
	var fires atomic.Int32
	var tm *Timer
	tm = q.Arm(10*time.Millisecond, func() {
		if fires.Add(1) < 5 {
			tm.Reset(10 * time.Millisecond)
		}
	})
	for i := 0; i < 5; i++ {
		q.Advance(10 * time.Millisecond)
	}
	if fires.Load() != 5 {
		t.Fatalf("fires = %d, want 5", fires.Load())
	}
	if n := queued(q); n != 0 {
		t.Fatalf("queued = %d after chain ended", n)
	}
	// Arming new timers from a callback also works.
	var child atomic.Bool
	q.Arm(time.Millisecond, func() {
		q.Arm(time.Millisecond, func() { child.Store(true) })
	})
	q.Advance(time.Millisecond)
	q.Advance(time.Millisecond)
	if !child.Load() {
		t.Fatal("callback-armed child did not fire")
	}
}

func TestCancelSemantics(t *testing.T) {
	q := manual()
	var fired atomic.Int32
	tm := q.Arm(5*time.Millisecond, func() { fired.Add(1) })
	if !tm.Cancel() {
		t.Fatal("first cancel should win")
	}
	if tm.Cancel() {
		t.Fatal("second cancel should lose")
	}
	q.Advance(time.Second)
	if fired.Load() != 0 {
		t.Fatalf("cancelled timer fired %d times", fired.Load())
	}
	if n := queued(q); n != 0 {
		t.Fatalf("queued = %d", n)
	}
}

// TestDriven steps a driven queue through its virtual clock one tick at
// a time and checks both that every timer fires on its deadline tick
// and that at most one clock timer is ever queued on the parent. The
// deadlines are armed latest first, so each of the first 20 arms
// replaces the clock timer.
func TestDriven(t *testing.T) {
	q, clock := driven()
	defer q.Stop()
	const n = 64
	due := func(i int) int { return 20 - i%20 }
	var fired [n]atomic.Int32
	for i := 0; i < n; i++ {
		q.Arm(time.Duration(due(i))*Tick, func() { fired[i].Add(1) })
		if live := queued(clock); live != 1 {
			t.Fatalf("after arm %d: %d clock timers queued, want 1", i, live)
		}
	}
	for tick := 1; tick <= 20; tick++ {
		clock.Advance(Tick)
		for i := range fired {
			want := int32(0)
			if due(i) <= tick {
				want = 1
			}
			if got := fired[i].Load(); got != want {
				t.Fatalf("tick %d: timer %d (due at %d) fired %d times", tick, i, due(i), got)
			}
		}
		if live := queued(clock); live > 1 {
			t.Fatalf("tick %d: %d clock timers queued", tick, live)
		}
	}
	if live := queued(clock); live != 0 {
		t.Fatalf("%d clock timers queued with nothing pending", live)
	}
}

// TestOneLiveAlarm counts a driven queue's clock timers as the timers
// queued on its parent, which is never advanced. Ten timers armed 10 h …
// 1 h each replace the alarm, so each must cancel the one before; after
// they are cancelled and one more is armed, Stop must leave none live.
func TestOneLiveAlarm(t *testing.T) {
	q, clock := driven()
	var armed []*Timer
	for h := 10; h >= 1; h-- {
		armed = append(armed, q.Arm(time.Duration(h)*time.Hour, func() {}))
		if live := queued(clock); live != 1 {
			t.Fatalf("after arming %d h: %d clock timers live, want 1", h, live)
		}
	}
	for _, tm := range armed {
		tm.Cancel()
	}
	q.Arm(30*time.Minute, func() {})
	q.Stop()
	if live := queued(clock); live != 0 {
		t.Fatalf("%d clock timers live after Stop, want 0", live)
	}
}

// TestDifferential drives the queue and a sorted-deadline model with a
// random arm/cancel/advance stream and compares fire sets.
func TestDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 30; trial++ {
		q := manual()
		var mu sync.Mutex
		firedSet := map[int]bool{}
		type mt struct {
			id       int
			deadline uint64
			tm       *Timer
		}
		var live []*mt
		nextID := 0
		now := uint64(0)
		wantFired := map[int]bool{}
		for op := 0; op < 300; op++ {
			switch rng.Intn(5) {
			case 0, 1: // arm
				d := 1 + rng.Intn(9000)
				id := nextID
				nextID++
				m := &mt{id: id, deadline: now + uint64(d)}
				m.tm = q.Arm(time.Duration(d)*time.Millisecond, func() {
					mu.Lock()
					firedSet[id] = true
					mu.Unlock()
				})
				live = append(live, m)
			case 2: // cancel a random live timer
				if len(live) == 0 {
					continue
				}
				i := rng.Intn(len(live))
				m := live[i]
				if m.tm.Cancel() {
					live = append(live[:i], live[i+1:]...)
				}
			default: // advance
				d := uint64(1 + rng.Intn(200))
				now += d
				q.Advance(time.Duration(d) * time.Millisecond)
				rest := live[:0]
				for _, m := range live {
					if m.deadline <= now {
						wantFired[m.id] = true
					} else {
						rest = append(rest, m)
					}
				}
				live = rest
			}
		}
		q.Advance(20 * time.Second)
		for _, m := range live {
			wantFired[m.id] = true
		}
		mu.Lock()
		if len(firedSet) != len(wantFired) {
			t.Fatalf("trial %d: fired %d, want %d", trial, len(firedSet), len(wantFired))
		}
		for id := range wantFired {
			if !firedSet[id] {
				t.Fatalf("trial %d: timer %d never fired", trial, id)
			}
		}
		mu.Unlock()
	}
}
