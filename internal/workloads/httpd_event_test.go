package workloads

import (
	"testing"
	"time"

	"repro/internal/hostos"
	"repro/internal/libos"
	"repro/internal/timers"
)

// TestEventHTTPDServes: the epoll-based server answers the same protocol
// as the thread-per-connection one and stops cleanly via the propagating
// quit chain.
func TestEventHTTPDServes(t *testing.T) {
	const (
		port     = 8085
		workers  = 2
		requests = 32
	)
	k, err := NewOcclumKernel(DefaultSpec())
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
	res := RunHTTPBench(k, port, 4, requests)
	StopHTTPD(k, port, workers)
	if status := p.Wait(); status != 0 {
		t.Fatalf("master status = %d", status)
	}
	if res.Failed != 0 {
		t.Fatalf("failed requests: %d/%d", res.Failed, res.Requests)
	}
	if res.Bytes != int64(requests*ResponseSize) {
		t.Fatalf("bytes = %d, want %d", res.Bytes, requests*ResponseSize)
	}
	t.Logf("event httpd: %.0f req/s", res.Throughput())
}

// TestC10KSmoke is the CI acceptance smoke for readiness-driven I/O:
// 1000 concurrent connections against 8 event-loop workers on a 4-hart
// pool. The thread-per-connection server cannot exceed the hart count in
// concurrent service; the epoll server must hold every connection open
// at once and serve them all, with the blocking waits parking instead of
// pinning harts (asserted through the sched and netstat counters).
// CI runs this under -race.
func TestC10KSmoke(t *testing.T) {
	const (
		port    = 8095
		workers = 8
		harts   = 4
		conns   = 1000
		rounds  = 1
	)
	spec := DefaultSpec()
	spec.Domains = workers + 2
	spec.Harts = harts
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
	res := RunC10K(k, port, conns, rounds)
	StopHTTPD(k, port, workers)
	if status := p.Wait(); status != 0 {
		t.Fatalf("master status = %d", status)
	}
	if res.Failed != 0 {
		t.Fatalf("failed requests: %d/%d", res.Failed, res.Requests)
	}
	if res.Bytes != int64(res.Requests*ResponseSize) {
		t.Fatalf("bytes = %d, want %d", res.Bytes, res.Requests*ResponseSize)
	}

	snap := k.Sys.OS.Sched().Snapshot()
	if snap.Parks == 0 {
		t.Fatal("no parks recorded: blocking network waits are holding harts")
	}
	net := libos.NetStats().Sub(net0)
	if net.EpWaitParks == 0 {
		t.Fatal("epoll_wait never parked: the event loop is spinning on a hart")
	}
	if net.EAgains == 0 {
		t.Fatal("no EAGAINs: the nonblocking accept drain never ran dry")
	}
	t.Logf("c10k smoke: %d conns / %d harts: %.0f req/s, p50=%v p99=%v, parks=%d epwait-parks=%d accept-eagains=%d",
		conns, harts, res.Throughput(), res.P50, res.P99, snap.Parks, net.EpWaitParks, net.EAgains)
}

// hostKernel is a Kernel that is only a host: enough for the dialer.
type hostKernel struct {
	Kernel
	h *hostos.Host
}

func (k hostKernel) Host() *hostos.Host { return k.h }

// armedClock is a virtual clock that reports each timer armed on it.
type armedClock struct {
	*timers.Queue
	armed chan struct{}
}

func (c armedClock) Timer(d time.Duration, fn func()) func() {
	cancel := c.Queue.Timer(d, fn)
	c.armed <- struct{}{}
	return cancel
}

// TestDialRetryWaitsOnTheHostClock: the load generators' dialer paces
// its retries on the host's clock and counts them, so on a virtual clock
// a dial to a port nobody listens on gives up after exactly its
// attempts, each 1 ms of host time after the last.
func TestDialRetryWaitsOnTheHostClock(t *testing.T) {
	c := armedClock{timers.New(nil), make(chan struct{})}
	k := hostKernel{h: hostos.NewWithClock(c)}
	const attempts = 3
	errc := make(chan error, 1)
	go func() {
		_, err := dialRetry(k, 9, attempts)
		errc <- err
	}()
	for i := range attempts {
		select {
		case <-c.armed:
		case err := <-errc:
			t.Fatalf("dialRetry returned %v after %d waits, want %d", err, i, attempts)
		case <-time.After(5 * time.Second):
			t.Fatalf("no wait on the host clock after %d waits", i)
		}
		c.Advance(time.Millisecond)
	}
	if err := <-errc; err == nil {
		t.Fatal("dial to a closed port succeeded")
	}
	if got := c.Now().Sub(time.Unix(0, 0)); got != attempts*time.Millisecond {
		t.Fatalf("gave up at %v of host time, want %v", got, attempts*time.Millisecond)
	}
}
