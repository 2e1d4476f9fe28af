package workloads

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/hostos"
)

// testKernels builds all three systems with test-sized parameters.
func testKernels(t *testing.T) []Kernel {
	t.Helper()
	ks, err := AllKernels(DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	return ks
}

func TestFishPipelineAllSystems(t *testing.T) {
	const inputSize = 8 << 10
	var want []byte
	for _, k := range testKernels(t) {
		k := k
		t.Run(k.Name(), func(t *testing.T) {
			driver, err := InstallFish(k, inputSize)
			if err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			status, err := RunToCompletion(k, driver, nil, &out)
			if err != nil {
				t.Fatal(err)
			}
			if status != 0 {
				t.Fatalf("driver exit status = %d", status)
			}
			// The wc sink outputs the byte count that survived
			// od|grep|sort — 8 bytes.
			if out.Len() != 8 {
				t.Fatalf("pipeline output = %d bytes, want 8", out.Len())
			}
			count := binary.LittleEndian.Uint64(out.Bytes())
			if count == 0 || count > inputSize {
				t.Fatalf("wc count = %d", count)
			}
			if want == nil {
				want = append([]byte(nil), out.Bytes()...)
			} else if !bytes.Equal(want, out.Bytes()) {
				t.Fatalf("systems disagree: %x vs %x", want, out.Bytes())
			}
		})
	}
}

func TestGCCPipelineAllSystems(t *testing.T) {
	// Small stages for the test: the bench uses realistic sizes.
	stages := []GCCStage{
		{Path: "/bin/cpp", Work: 1, Pad: 4 << 10},
		{Path: "/bin/cc1", Work: 3, Pad: 64 << 10},
		{Path: "/bin/as", Work: 1, Pad: 4 << 10},
		{Path: "/bin/ld", Work: 1, Pad: 8 << 10},
	}
	var want []byte
	for _, k := range testKernels(t) {
		k := k
		t.Run(k.Name(), func(t *testing.T) {
			driver, err := InstallGCC(k, "hello", 2048, stages)
			if err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			status, err := RunToCompletion(k, driver, nil, &out)
			if err != nil {
				t.Fatal(err)
			}
			if status != 0 {
				t.Fatalf("driver exit status = %d", status)
			}
			if out.Len() != 2048 {
				t.Fatalf("compiled output = %d bytes, want 2048", out.Len())
			}
			if want == nil {
				want = append([]byte(nil), out.Bytes()...)
			} else if !bytes.Equal(want, out.Bytes()) {
				t.Fatal("systems produced different compilation output")
			}
		})
	}
}

func TestHTTPDAllSystems(t *testing.T) {
	const (
		port     = 8080
		workers  = 2
		requests = 16
	)
	for _, k := range testKernels(t) {
		k := k
		t.Run(k.Name(), func(t *testing.T) {
			master, err := InstallHTTPD(k, port, workers)
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
			t.Logf("%s: %.0f req/s", k.Name(), res.Throughput())
		})
	}
}

// TestHTTPDListenBacklog: the master listens with the default backlog
// (bind's port, left in R2, is no backlog request). With both workers
// held on idle connections, BacklogDefault more dials queue and the
// next is refused, on every kernel.
func TestHTTPDListenBacklog(t *testing.T) {
	const (
		port    = 8081
		workers = 2
	)
	for _, k := range testKernels(t) {
		t.Run(k.Name(), func(t *testing.T) {
			master, err := InstallHTTPD(k, port, workers)
			if err != nil {
				t.Fatal(err)
			}
			p, err := k.Spawn(master, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			// Each worker accepts one connection and blocks reading it;
			// a dial refused before the workers took theirs is retried.
			var held []*hostos.Conn
			for i := 0; i < workers+hostos.BacklogDefault; i++ {
				conn, err := dialRetry(k, port, 10000)
				if err != nil {
					t.Fatalf("dial %d: %v", i, err)
				}
				held = append(held, conn)
			}
			if conn, err := k.Host().Dial(port); err == nil {
				conn.Close()
				t.Errorf("dial %d past the held workers was queued, want refused by a backlog of %d",
					hostos.BacklogDefault+1, hostos.BacklogDefault)
			}
			// Closed, the held connections are served and drained, and a
			// quit per worker stops the server.
			for _, conn := range held {
				conn.Close()
			}
			for i := 0; i < workers; i++ {
				conn, err := dialRetry(k, port, 10000)
				if err != nil {
					t.Fatalf("quit %d: %v", i, err)
				}
				_, _ = conn.Write([]byte(QuitRequest))
				conn.Close()
			}
			if status := p.Wait(); status != 0 {
				t.Fatalf("master status = %d", status)
			}
		})
	}
}

// TestHTTPDOversubscribed is the CI smoke for the M:N scheduler: the
// webserver workload with 4x more SIPs than harts (16 workers + master
// on a 4-hart pool). Every worker parked in accept must cost no hart,
// or the run deadlocks; the whole test runs under -race in CI.
func TestHTTPDOversubscribed(t *testing.T) {
	const (
		port     = 8090
		workers  = 16
		harts    = 4
		requests = 64
	)
	spec := DefaultSpec()
	spec.Domains = workers + 2 // master + margin
	spec.Harts = harts
	k, err := NewOcclumKernel(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer k.Sys.OS.Shutdown()
	if got := k.Sys.OS.Sched().NumHarts(); got != harts {
		t.Fatalf("hart pool = %d, want %d", got, harts)
	}

	master, err := InstallHTTPD(k, port, workers)
	if err != nil {
		t.Fatal(err)
	}
	p, err := k.Spawn(master, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	res := RunHTTPBench(k, port, 8, requests)
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
	snap := k.Sys.OS.Sched().Snapshot()
	if snap.Parks == 0 {
		t.Fatal("no parks: workers blocked in accept are holding harts")
	}
	t.Logf("%d SIPs / %d harts: %.0f req/s, %d parks",
		workers+1, harts, res.Throughput(), snap.Parks)
}
