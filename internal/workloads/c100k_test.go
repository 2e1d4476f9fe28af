package workloads

import (
	"os"
	"sync"
	"testing"
	"time"

	"repro/internal/asm"
	"repro/internal/hostos"
	"repro/internal/libos"
	"repro/internal/ulib"
)

// TestC100KHeldOpen is the c100k timer-consolidation acceptance test:
// N connections held open on a 4-hart pool, every one carrying a live
// idle-reap deadline, while the host-timer population stays at one —
// the whole point of the LibOS's deadline queue. Before it, every armed
// deadline was its own host timer; at 100k held-open connections that
// is 100k host timers, with the queue it is 1.
//
// CI runs the quick scale (2000 connections, still ~500x more deadlines
// than allowed host timers). Set OCCLUM_C100K=1 for the full 100k run
// recorded in EXPERIMENTS.md.
func TestC100KHeldOpen(t *testing.T) {
	const (
		port    = 8105
		workers = 8
		harts   = 4
	)
	conns := 2000
	if os.Getenv("OCCLUM_C100K") != "" {
		conns = 100000
	}
	spec := DefaultSpec()
	spec.Domains = workers + 2
	spec.Harts = harts
	// Long enough that nothing is reaped mid-test; the point is that
	// every accepted connection HOLDS an armed deadline.
	spec.IdleTimeout = 10 * time.Minute
	k, err := NewOcclumKernel(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer k.Sys.OS.Shutdown()

	master, err := InstallEventHTTPD(k, port, workers)
	if err != nil {
		t.Fatal(err)
	}
	p, err := k.Spawn(master, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	net0 := libos.NetStats()

	// Connect storm: every connection dials, completes one request (so
	// it is accepted, epoll-registered and reap-armed), then is held.
	cs := make([]*hostos.Conn, conns)
	var wg sync.WaitGroup
	var connectFailed, requestFailed int
	var mu sync.Mutex
	for i := range cs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			conn, err := dialRetry(k, port, 60000)
			if err != nil {
				mu.Lock()
				connectFailed++
				mu.Unlock()
				return
			}
			if getPage(conn, make([]byte, 4096)) < ResponseSize {
				mu.Lock()
				requestFailed++
				mu.Unlock()
				conn.Close()
				return
			}
			cs[i] = conn
		}(i)
	}
	wg.Wait()
	if connectFailed != 0 || requestFailed != 0 {
		t.Fatalf("connect storm: %d dials and %d warmup requests failed", connectFailed, requestFailed)
	}

	// The acceptance assertion: conns live deadlines, ≤1 host timer.
	// Idle reaping for every connection plus any poll/epoll timeouts all
	// multiplex onto the queue's single alarm.
	net := libos.NetStats().Sub(net0)
	if net.TimerArms < uint64(conns) {
		t.Fatalf("timer arms = %d, want ≥ %d (one idle deadline per held connection)",
			net.TimerArms, conns)
	}
	active := k.Host().ActiveTimers()
	if active > 1 {
		t.Fatalf("host timers = %d with %d connections held, want ≤ 1 (one queue per LibOS)",
			active, conns)
	}
	t.Logf("c100k: %d conns held, %d deadlines armed, %d host timers (%d harts)",
		conns, net.TimerArms, active, harts)

	for _, c := range cs {
		if c != nil {
			c.Close()
		}
	}
	StopHTTPD(k, port, workers)
	if status := p.Wait(); status != 0 {
		t.Fatalf("master status = %d", status)
	}
}

// TestSlowlorisReap: stalled connections (partial request, then
// silence) are collected by the idle reaper while
// legitimate clients keep getting served with bounded tail latency and
// bounded per-connection memory. CI runs this under -race.
func TestSlowlorisReap(t *testing.T) {
	const (
		port    = 8106
		workers = 8
		harts   = 4
	)
	spec := DefaultSpec()
	spec.Domains = workers + 2
	spec.Harts = harts
	spec.IdleTimeout = 150 * time.Millisecond
	k, err := NewOcclumKernel(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer k.Sys.OS.Shutdown()

	master, err := InstallEventHTTPD(k, port, workers)
	if err != nil {
		t.Fatal(err)
	}
	p, err := k.Spawn(master, nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	res := RunSlowloris(k, port, SlowlorisSpec{
		Attackers:    200,
		PartialBytes: 8,
		Hold:         30 * time.Second,
		Legit:        8,
		LegitRounds:  15,
	})
	StopHTTPD(k, port, workers)
	if status := p.Wait(); status != 0 {
		t.Fatalf("master status = %d", status)
	}

	if res.Net.Reaps == 0 {
		t.Fatal("idle reaper never fired: stalled connections were not collected")
	}
	if res.ServerClosed < res.Connected {
		t.Fatalf("server closed %d of %d stalled connections within hold",
			res.ServerClosed, res.Connected)
	}
	if res.LegitFailed != 0 {
		t.Fatalf("legit clients failed %d/%d requests under attack",
			res.LegitFailed, res.LegitRequests)
	}
	if res.LegitP99 > 10*time.Second {
		t.Fatalf("legit p99 = %v under attack, want bounded", res.LegitP99)
	}
	// Each stalled connection sent 8 bytes: the attack must not pin
	// stream-capacity-sized buffers. 32 KiB per connection is an order
	// of magnitude under the 256 KiB per-direction cap.
	if bound := res.Connected * 32 << 10; res.AttackerBufPeak > bound {
		t.Fatalf("attackers pinned %d buffered bytes, want ≤ %d", res.AttackerBufPeak, bound)
	}
	t.Logf("slowloris reap: %d/%d stalled conns server-closed (reaps=%d), legit p50=%v p99=%v (retries=%d), attacker buf peak=%dB",
		res.ServerClosed, res.Connected, res.Net.Reaps, res.LegitP50, res.LegitP99, res.LegitRetries, res.AttackerBufPeak)
}

// TestSlowlorisShed: a connect storm arriving while the run queues are
// saturated with CPU-bound SIPs is shed at the accept boundary
// (accept-and-close) instead of piling accepted-but-unserviceable
// connections onto the event loops — and once the saturation clears,
// admission resumes and service is intact.
//
// The threshold has to clear the accept wake herd: every dial wakes all
// parked workers, so up to workers-1 SIPs sit queued at any accept even
// on an idle server. Threshold 12 > 7 admits under that baseline;
// 24 preempting spinners on 2 harts push the queue well past it. CI
// runs this under -race.
func TestSlowlorisShed(t *testing.T) {
	const (
		port     = 8107
		workers  = 8
		harts    = 2
		spinners = 24
		shedAt   = 12
	)
	spec := DefaultSpec()
	spec.Domains = workers + 2 + spinners
	spec.Harts = harts
	spec.ShedThreshold = shedAt
	k, err := NewOcclumKernel(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer k.Sys.OS.Shutdown()

	master, err := InstallEventHTTPD(k, port, workers)
	if err != nil {
		t.Fatal(err)
	}
	spin := asm.NewBuilder()
	spin.Entry("_start")
	ulib.Prologue(spin)
	spin.Label("forever")
	spin.Jmp("forever")
	spinProg, err := spin.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if err := k.InstallProgram("/bin/spin", spinProg); err != nil {
		t.Fatal(err)
	}
	p, err := k.Spawn(master, nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Unsaturated baseline: the wake herd alone must not trip the
	// threshold — connections are admitted and served.
	if res := RunHTTPBench(k, port, 2, 8); res.Failed != 0 {
		t.Fatalf("unsaturated baseline: %d/%d requests failed", res.Failed, res.Requests)
	}

	// Saturate: CPU-bound SIPs outnumbering harts 12x keep the run
	// queues far above the threshold (preemption requeues them
	// constantly).
	spinProcs := make([]Proc, spinners)
	for i := range spinProcs {
		sp, err := k.Spawn("/bin/spin", nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		spinProcs[i] = sp
	}
	time.Sleep(50 * time.Millisecond)

	res := RunSlowloris(k, port, SlowlorisSpec{
		Attackers: 300,
		Hold:      10 * time.Second,
	})
	if res.Net.Sheds == 0 {
		t.Fatal("no connections shed under run-queue saturation")
	}

	// Clear the saturation; admission must resume.
	for _, sp := range spinProcs {
		if err := k.Sys.OS.Kill(sp.PID(), libos.SIGTERM); err != nil {
			t.Fatal(err)
		}
	}
	for _, sp := range spinProcs {
		if status := sp.Wait(); status != 128+libos.SIGTERM {
			t.Fatalf("spinner status = %d, want %d", status, 128+libos.SIGTERM)
		}
	}
	after := RunHTTPBench(k, port, 4, 24)
	if after.Failed != 0 {
		t.Fatalf("post-shed service: %d/%d requests failed", after.Failed, after.Requests)
	}

	StopHTTPD(k, port, workers)
	if status := p.Wait(); status != 0 {
		t.Fatalf("master status = %d", status)
	}
	t.Logf("slowloris shed: sheds=%d over %d storm conns while saturated; service restored at %.0f req/s",
		res.Net.Sheds, res.Connected, after.Throughput())
}
