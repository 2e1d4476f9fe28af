package workloads

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/hostos"
	"repro/internal/libos"
)

// SlowlorisSpec configures RunSlowloris.
type SlowlorisSpec struct {
	// Attackers is the number of slow connections: each dials, sends
	// only PartialBytes of a request, then stalls — never completing the
	// request, never reading, just occupying server-side state. This is
	// the slowloris shape: the damage is held resources, not bandwidth.
	Attackers int
	// PartialBytes of "GET / HTTP/1.0\r\n\r\n" each attacker sends
	// before stalling (0 = connect and say nothing).
	PartialBytes int
	// Hold bounds how long the generator waits for the server to reap
	// the stalled connections before closing the survivors itself.
	Hold time.Duration
	// Legit is the number of well-behaved clients running alongside the
	// attack; each performs LegitRounds requests and measures latency.
	// Legit clients tolerate shed/reaped connections by redialing —
	// the point is that service stays available and bounded, not that
	// no individual connection is ever refused under pressure.
	Legit, LegitRounds int
}

// SlowlorisResult reports the attack outcome.
type SlowlorisResult struct {
	// Connected counts attacker connections that completed a dial
	// (shedding may close them again immediately).
	Connected int
	// ServerClosed counts attacker connections the server terminated —
	// by the idle reaper or by accept-shedding — within Hold.
	ServerClosed int
	// AttackerBufPeak is the largest total of host-side buffered bytes
	// across all live attacker connections observed while they were
	// held: the per-connection memory the attack managed to pin.
	AttackerBufPeak int
	// LegitRequests/LegitFailed/LegitRetries count the well-behaved
	// side: a retry is a redial after a shed/reaped connection, a
	// failure is a request that never completed within its attempts.
	LegitRequests, LegitFailed, LegitRetries int
	// LegitP50/LegitP99 are per-request latency percentiles over the
	// successful legit requests (dial retries excluded: they measure
	// admission, not service).
	LegitP50, LegitP99 time.Duration
	// Net is the libos network-counter delta over the whole run: Reaps
	// and Sheds are the backpressure counters the attack is expected to
	// drive.
	Net libos.NetSnapshot
}

// RunSlowloris drives a slowloris-style attack against an HTTPD on
// port while measuring collateral damage to legitimate clients. The
// server is expected to defend itself with the libos backpressure
// knobs (IdleTimeout reaping the stalled connections, ShedThreshold
// refusing connections under run-queue saturation); the result carries
// the counter deltas so callers can assert the defenses actually
// engaged.
func RunSlowloris(k Kernel, port uint16, spec SlowlorisSpec) SlowlorisResult {
	net0 := libos.NetStats()
	var (
		res       SlowlorisResult
		mu        sync.Mutex // guards res counters and lats
		lats      []time.Duration
		wg        sync.WaitGroup
		stopPeak  atomic.Bool
		attackers = make([]*hostos.Conn, spec.Attackers)
		amu       sync.Mutex // guards attackers slice slots
	)
	partial := []byte(getRequest[:min(spec.PartialBytes, len(getRequest))])

	// Attackers: dial (with retry — shed connections die after accept,
	// so the dial itself usually succeeds), send the partial request,
	// then block in Read. The server closing the connection — reap or
	// shed — surfaces as the Read returning, which is how ServerClosed
	// is counted without polling.
	var serverClosed atomic.Int64
	var connected atomic.Int64
	for i := 0; i < spec.Attackers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			conn, err := dialRetry(k, port, 10000)
			if err != nil {
				return
			}
			connected.Add(1)
			amu.Lock()
			attackers[i] = conn
			amu.Unlock()
			if len(partial) > 0 {
				if _, err := conn.Write(partial); err != nil {
					serverClosed.Add(1)
					return
				}
			}
			// Stall. The only way out is the server hanging up.
			buf := make([]byte, 64)
			for {
				if _, err := conn.Read(buf); err != nil {
					serverClosed.Add(1)
					amu.Lock()
					attackers[i] = nil
					amu.Unlock()
					return
				}
			}
		}(i)
	}

	// Peak sampler: the held memory is what slowloris is about, so
	// sample the total buffered bytes across live attacker connections
	// while the attack runs.
	var peakWG sync.WaitGroup
	peakWG.Add(1)
	go func() {
		defer peakWG.Done()
		for !stopPeak.Load() {
			k.Host().Sleep(5 * time.Millisecond)
			total := 0
			amu.Lock()
			for _, c := range attackers {
				if c != nil {
					total += c.BufAlloc()
				}
			}
			amu.Unlock()
			mu.Lock()
			if total > res.AttackerBufPeak {
				res.AttackerBufPeak = total
			}
			mu.Unlock()
		}
	}()

	// Legit clients, concurrent with the attack.
	var legitWG sync.WaitGroup
	var failed, retries atomic.Int64
	for i := 0; i < spec.Legit; i++ {
		legitWG.Add(1)
		go func() {
			defer legitWG.Done()
			var conn *hostos.Conn
			buf := make([]byte, 4096)
			myLats := make([]time.Duration, 0, spec.LegitRounds)
			for r := 0; r < spec.LegitRounds; r++ {
				ok := false
				for attempt := 0; attempt < 8 && !ok; attempt++ {
					if attempt > 0 {
						retries.Add(1)
					}
					if conn == nil {
						var err error
						conn, err = dialRetry(k, port, 10000)
						if err != nil {
							continue
						}
					}
					t0 := k.Host().Now()
					if getPage(conn, buf) < ResponseSize {
						conn.Close()
						conn = nil
						continue
					}
					myLats = append(myLats, k.Host().Now().Sub(t0))
					ok = true
				}
				if !ok {
					failed.Add(1)
				}
			}
			if conn != nil {
				conn.Close()
			}
			mu.Lock()
			lats = append(lats, myLats...)
			mu.Unlock()
		}()
	}
	legitWG.Wait()

	// Give the reaper until Hold to clear the stalled connections, then
	// cut down the survivors ourselves so the attacker goroutines exit.
	deadline := k.Host().Now().Add(spec.Hold)
	for k.Host().Now().Before(deadline) &&
		int(serverClosed.Load()) < int(connected.Load()) {
		k.Host().Sleep(5 * time.Millisecond)
	}
	stopPeak.Store(true)
	peakWG.Wait()
	res.ServerClosed = int(serverClosed.Load())
	amu.Lock()
	for i, c := range attackers {
		if c != nil {
			c.Close()
			attackers[i] = nil
		}
	}
	amu.Unlock()
	wg.Wait()

	res.Connected = int(connected.Load())
	res.LegitRequests = spec.Legit * spec.LegitRounds
	res.LegitFailed = int(failed.Load())
	res.LegitRetries = int(retries.Load())
	res.LegitP50, res.LegitP99 = percentiles(lats)
	res.Net = libos.NetStats().Sub(net0)
	return res
}
