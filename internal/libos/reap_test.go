package libos

import (
	"sync"
	"testing"
	"time"

	"repro/internal/timers"
)

// TestReapRearmRacesClose closes sockets while their idle-reap deadlines
// fire. Every connection is touched a tick before its deadline on the
// queue's clock, so each fire finds it active and re-arms for the rest
// of the hour; the close must still leave no timer armed. The race it
// guards: a fire that checks reapStop, then re-arms after a concurrent
// close's cancel already found the timer collected, pins the closed
// description's timer until the next timeout. On a manual queue that
// nobody advances again, such a timer stays queued, so Cancel finding
// it is the leak, and the counters miss a fire or cancel for it.
func TestReapRearmRacesClose(t *testing.T) {
	const rounds, conns = 300, 64
	start := NetStats()
	base := start
	leaked := 0
	for r := 0; r < rounds; r++ {
		q := timers.New(nil)
		files := make([]*OpenFile, conns)
		for i := range files {
			files[i] = &OpenFile{refs: 1, kind: kindSock}
			files[i].armIdleReap(q, time.Hour)
		}
		q.Advance(time.Hour - timers.Tick)
		for _, of := range files {
			of.touch(q)
		}
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			q.Advance(timers.Tick)
		}()
		go func() {
			defer wg.Done()
			for _, of := range files {
				of.unref()
			}
		}()
		wg.Wait()
		d := NetStats().Sub(base)
		if d.TimerArms != d.TimerFires+d.TimerCancels {
			t.Errorf("round %d: arms %d != fires %d + cancels %d",
				r, d.TimerArms, d.TimerFires, d.TimerCancels)
		}
		for _, of := range files {
			if of.reap.Cancel() {
				leaked++
			}
		}
		if leaked > 0 {
			t.Fatalf("round %d: %d closed sockets left a reap timer armed", r, leaked)
		}
		base = NetStats()
	}
	if d := NetStats().Sub(start); d.Reaps != 0 {
		t.Fatalf("%d active connections were reaped", d.Reaps)
	}
}

// TestReapMeasuresIdleOnTheQueueClock: the reaper measures idleness on
// the clock its deadline fires on. A connection touched at T is still
// open at T + timeout − Tick and is reaped by T + timeout + Tick, on a
// virtual clock that the host's wall time never enters.
func TestReapMeasuresIdleOnTheQueueClock(t *testing.T) {
	const timeout = time.Second
	q := timers.New(nil)
	of := &OpenFile{refs: 1, kind: kindSock}
	of.armIdleReap(q, timeout)
	reaps0 := NetStats().Reaps
	q.Advance(300 * time.Millisecond)
	of.touch(q) // T = 300 ms
	q.Advance(timeout - timers.Tick)
	if n := NetStats().Reaps - reaps0; n != 0 {
		t.Fatalf("touched at T, reaped by T + timeout − Tick (%d reaps)", n)
	}
	q.Advance(2 * timers.Tick)
	if n := NetStats().Reaps - reaps0; n != 1 {
		t.Fatalf("touched at T, %d reaps by T + timeout + Tick, want 1", n)
	}
	of.unref()
}
