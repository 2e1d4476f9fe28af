package workloads

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/asm"
	"repro/internal/hostos"
	"repro/internal/isa"
	"repro/internal/libos"
	"repro/internal/ulib"
)

// PageSize10K is the HTML page size served by the lighttpd workload
// (10 KB pages, as in §9.1).
const PageSize10K = 10 * 1024

// QuitRequest is the in-band shutdown request understood by HTTPD
// workers: a request whose first byte is 'Q' makes the accepting worker
// exit instead of serving the page. StopHTTPD sends one per worker.
const QuitRequest = "QUIT\r\n\r\n"

// ResponseHeader is the status line + headers every worker sends before
// the page body. Since the zero-copy rework the workers gather header
// and body with a single writev instead of staging them into one
// buffer (or paying one syscall per part).
const ResponseHeader = "HTTP/1.0 200 OK\r\nContent-Length: 10240\r\n\r\n"

// ResponseSize is the full response length clients read per request.
const ResponseSize = len(ResponseHeader) + PageSize10K

// BuildHTTPWorker builds a lighttpd worker: it accepts connections on
// the inherited listening socket (fd 62) and serves the 10 KB page until
// explicitly stopped — by a QuitRequest or by the listener closing.
// Workers no longer exit after a request quota, so one server instance
// survives any number of benchmark rounds.
func BuildHTTPWorker() (*asm.Program, error) {
	page := make([]byte, PageSize10K)
	copy(page, "<html>occlum</html>")
	b := asm.NewBuilder()
	b.String("hdr", ResponseHeader)
	b.Bytes("page", page)
	b.Zero("iov", 32)
	return buildAcceptLoop(b, func() {
		// The response iovec never changes: {header, page}. Fill it once.
		ulib.IovSetSym(b, "iov", 0, "hdr", int64(len(ResponseHeader)))
		ulib.IovSetSym(b, "iov", 1, "page", PageSize10K)
	}, func() {
		// writev(cfd, {header, page}): one gather syscall per response.
		ulib.Writev(b, isa.R6, "iov", 2)
	})
}

// buildAcceptLoop finishes a thread-per-connection worker over b, which
// holds the worker's own data: after setup it accepts a connection on
// the inherited listener into R6, reads the request, answers it with
// respond and closes it, until a QuitRequest or a failed accept (the
// listener is gone). setup may jump to "done" to exit at once.
func buildAcceptLoop(b *asm.Builder, setup, respond func()) (*asm.Program, error) {
	b.Zero("req", 128)
	b.Entry("_start")
	ulib.Prologue(b)
	setup()
	b.Label("serve")
	// cfd = accept(ListenFD); a failed accept means the listener is
	// gone — stop serving.
	ulib.Accept(b, ListenFD)
	b.MovRR(isa.R6, isa.R0)
	b.CmpI(isa.R6, 0)
	b.Jl("done")
	// read(cfd, req, 128)
	b.MovRR(isa.R1, isa.R6)
	b.LeaData(isa.R2, "req")
	b.MovRI(isa.R3, 128)
	ulib.Syscall(b, libos.SysRead)
	// A 'Q' request is the stop order.
	b.LeaData(isa.R8, "req")
	b.LoadB(isa.R7, isa.Mem(isa.R8, 0))
	b.CmpI(isa.R7, int32(QuitRequest[0]))
	b.Je("quit")
	respond()
	ulib.Close(b, isa.R6)
	b.Jmp("serve")
	b.Label("quit")
	b.Nop()
	ulib.Close(b, isa.R6)
	b.Label("done")
	b.Nop()
	ulib.Exit(b, 0)
	return b.Finish()
}

// buildHTTPMaster builds the lighttpd master: it binds the listening
// socket with the default backlog, spawns the worker processes (which
// inherit the socket, as the paper's configuration does), and waits for
// them. A nonblocking master makes the listener's open file description
// nonblocking first, for the event-driven workers: they inherit the
// description, so one fcntl covers the whole accept herd.
func buildHTTPMaster(port uint16, workerPath string, workers int, nonblocking bool) (*asm.Program, error) {
	b := asm.NewBuilder()
	b.String("wpath", workerPath)
	b.Entry("_start")
	ulib.Prologue(b)
	// sfd = socket(); bind; listen; dup2(sfd, ListenFD); close(sfd)
	ulib.Socket(b)
	b.MovRR(isa.R6, isa.R0)
	ulib.Bind(b, isa.R6, int64(port))
	ulib.ListenSock(b, isa.R6)
	b.MovRR(isa.R1, isa.R6)
	b.MovRI(isa.R2, ListenFD)
	ulib.Syscall(b, libos.SysDup2)
	ulib.Close(b, isa.R6)
	if nonblocking {
		ulib.Fcntl(b, ListenFD, libos.FSetFl, libos.ONonblock)
	}
	for i := 0; i < workers; i++ {
		ulib.SpawnPath(b, "wpath", int64(len(workerPath)), "", 0)
		b.Push(isa.R0)
	}
	for i := 0; i < workers; i++ {
		b.Pop(isa.R6)
		ulib.Wait4(b, isa.R6)
	}
	ulib.Exit(b, 0)
	return b.Finish()
}

// EventMaxEvents is the epoll_wait batch size of the event-driven
// worker.
const EventMaxEvents = 64

// BuildEventHTTPWorker builds the event-driven lighttpd worker: one
// epoll loop multiplexing the shared nonblocking listener and every
// accepted connection, so a single SIP serves an unbounded number of
// concurrent clients — the C10K configuration. Contrast with
// BuildHTTPWorker, which dedicates its SIP to one connection at a time.
//
// The loop: epoll_wait on {listener, conns...}; listener readiness
// drains the backlog through nonblocking accepts (losing the accept race
// to a sibling worker just yields EAGAIN) and registers each connection
// for EPOLLIN; connection readiness reads the request and answers with
// the 10 KB page. Sends use the blocking (parking) path — a slow client
// parks this worker without holding a hart, it does not spin.
//
// A QUIT request stops the worker. Before exiting it dials one QUIT back
// into its own port, so the stop order propagates worker-to-worker no
// matter which worker's accept loop swallowed the original quit
// connections — without this, one worker could drain several quits into
// its epoll set, exit after reading the first, and strand its siblings.
func BuildEventHTTPWorker(port uint16) (*asm.Program, error) {
	page := make([]byte, PageSize10K)
	copy(page, "<html>occlum</html>")
	b := asm.NewBuilder()
	b.String("hdr", ResponseHeader)
	b.Bytes("page", page)
	b.Zero("iov", 32)
	b.Zero("req", 128)
	b.Zero("evbuf", EventMaxEvents*16)
	b.String("quitmsg", QuitRequest)
	b.Entry("_start")
	ulib.Prologue(b)
	// The response iovec never changes: {header, page}. Fill it here —
	// IovSetSym clobbers R8/R9, which the event loop owns below.
	ulib.IovSetSym(b, "iov", 0, "hdr", int64(len(ResponseHeader)))
	ulib.IovSetSym(b, "iov", 1, "page", PageSize10K)
	// R10 = epoll_create(); watch the inherited listener.
	ulib.EpCreate(b)
	b.MovRR(isa.R10, isa.R0)
	ulib.EpCtlI(b, isa.R10, libos.EpCtlAdd, ListenFD, libos.PollIn)

	b.Label("waitloop")
	// R9 = epoll_wait(epfd, evbuf, max, -1): parks until something is
	// readable.
	ulib.EpWait(b, isa.R10, "evbuf", EventMaxEvents, -1)
	b.MovRR(isa.R9, isa.R0)
	b.CmpI(isa.R9, 0)
	b.Jle("waitloop")
	b.LeaData(isa.R11, "evbuf")

	b.Label("event")
	b.CmpI(isa.R9, 0)
	b.Jle("waitloop")
	b.Load(isa.R6, isa.Mem(isa.R11, 0)) // entry.fd
	b.AddI(isa.R11, 16)
	b.SubI(isa.R9, 1)
	b.CmpI(isa.R6, ListenFD)
	b.Je("acceptloop")

	// Connection readable: read the request.
	ulib.RecvSym(b, isa.R6, "req", 128)
	b.CmpI(isa.R0, 0)
	b.Jl("event") // spurious EAGAIN: stays registered
	b.Je("drop")  // EOF: client went away
	b.LeaData(isa.R8, "req")
	b.LoadB(isa.R7, isa.Mem(isa.R8, 0))
	b.CmpI(isa.R7, int32(QuitRequest[0]))
	b.Je("quit")
	// Serve header + page with one gather writev. The connection is
	// blocking, so the kernel's partial-progress protocol (cursys.prog)
	// parks and resumes against a full 256 KB receive buffer until every
	// byte is queued; a short return therefore means the client vanished
	// mid-response. The connection then stays registered — persistent
	// connections are what makes C10K a concurrency benchmark rather
	// than a dial storm; the client closes when done and the EOF path
	// below cleans up.
	ulib.Writev(b, isa.R6, "iov", 2)
	b.CmpI(isa.R0, int32(ResponseSize))
	b.Jne("drop") // EPIPE or short count: client closed early
	b.Jmp("event")

	b.Label("drop")
	ulib.EpCtl(b, isa.R10, libos.EpCtlDel, isa.R6, 0)
	ulib.Close(b, isa.R6)
	b.Jmp("event")

	// Listener readable: drain the backlog (nonblocking), registering
	// every new connection.
	b.Label("acceptloop")
	ulib.Accept(b, ListenFD)
	b.CmpI(isa.R0, 0)
	b.Jl("event") // EAGAIN: backlog drained (or lost to a sibling)
	b.MovRR(isa.R7, isa.R0)
	ulib.EpCtl(b, isa.R10, libos.EpCtlAdd, isa.R7, libos.PollIn)
	b.Jmp("acceptloop")

	// Stop order: close the quit connection, propagate one quit to the
	// siblings, exit.
	b.Label("quit")
	ulib.EpCtl(b, isa.R10, libos.EpCtlDel, isa.R6, 0)
	ulib.Close(b, isa.R6)
	ulib.Socket(b)
	b.MovRR(isa.R6, isa.R0)
	ulib.Connect(b, isa.R6, int64(port))
	b.CmpI(isa.R0, 0)
	b.Jl("noprop") // listener already gone: everyone is stopping
	ulib.SendSym(b, isa.R6, "quitmsg", int64(len(QuitRequest)))
	b.Label("noprop")
	ulib.Close(b, isa.R6)
	ulib.Exit(b, 0)
	return b.Finish()
}

// BuildFileHTTPWorker builds a static-file worker: it serves the file
// at path (size bytes) by sending the header with writev and pumping
// the body straight from the filesystem with sendfile. When the file
// lives in the integrity-verified image layer the body bytes ride
// borrowed page-cache blocks — no byte of the payload ever transits
// guest memory. Occlum-only: sendfile is not part of the baselines'
// syscall surface.
func BuildFileHTTPWorker(path string, size int) (*asm.Program, error) {
	hdr := fmt.Sprintf("HTTP/1.0 200 OK\r\nContent-Length: %d\r\n\r\n", size)
	b := asm.NewBuilder()
	b.String("path", path)
	b.String("hdr", hdr)
	b.Zero("iov", 16)
	return buildAcceptLoop(b, func() {
		// The file is opened once; sendfile's pread-style offset
		// argument means no seek is ever needed between requests.
		ulib.OpenPath(b, "path", int64(len(path)), libos.ORdOnly)
		b.MovRR(isa.R10, isa.R0)
		b.CmpI(isa.R10, 0)
		b.Jl("done")
		ulib.IovSetSym(b, "iov", 0, "hdr", int64(len(hdr)))
	}, func() {
		// Header by gather write, body straight from the page cache.
		ulib.Writev(b, isa.R6, "iov", 1)
		ulib.Sendfile(b, isa.R6, isa.R10, 0, int64(size))
	})
}

// InstallFileHTTPD installs the static-file server (shared master +
// sendfile workers) serving the file at filePath, returning the master
// path.
func InstallFileHTTPD(k Kernel, port uint16, workers int, filePath string, size int) (string, error) {
	w, err := BuildFileHTTPWorker(filePath, size)
	return installHTTPD(k, "fhttpd", w, err, port, workers, false)
}

// HTTPBenchResult reports a load-generation run.
type HTTPBenchResult struct {
	Requests   int
	Elapsed    time.Duration
	Failed     int
	Bytes      int64
	Concurrent int
}

// Throughput returns requests per second.
func (r HTTPBenchResult) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Requests-r.Failed) / r.Elapsed.Seconds()
}

// InstallHTTPD installs master and worker binaries, returning the master
// path. The server runs until StopHTTPD; there is no request quota.
func InstallHTTPD(k Kernel, port uint16, workers int) (string, error) {
	w, err := BuildHTTPWorker()
	return installHTTPD(k, "httpd", w, err, port, workers, false)
}

// InstallEventHTTPD installs the event-driven (epoll) master and worker
// binaries, returning the master path. Used by examples/webserver and
// the C10K benchmark; the thread-per-connection InstallHTTPD remains the
// portable baseline that runs on all three kernels.
func InstallEventHTTPD(k Kernel, port uint16, workers int) (string, error) {
	w, err := BuildEventHTTPWorker(port)
	return installHTTPD(k, "ehttpd", w, err, port, workers, true)
}

// installHTTPD installs worker, the program its builder returned with
// buildErr, as /bin/<name>-worker and a master over it as /bin/<name>,
// returning the master's path.
func installHTTPD(k Kernel, name string, worker *asm.Program, buildErr error, port uint16, workers int, nonblocking bool) (string, error) {
	if buildErr != nil {
		return "", buildErr
	}
	master, wpath := "/bin/"+name, "/bin/"+name+"-worker"
	if err := k.InstallProgram(wpath, worker); err != nil {
		return "", err
	}
	m, err := buildHTTPMaster(port, wpath, workers, nonblocking)
	if err != nil {
		return "", err
	}
	if err := k.InstallProgram(master, m); err != nil {
		return "", err
	}
	return master, nil
}

// StopHTTPD shuts a running HTTPD down in-band: it sends one QuitRequest
// per worker. Each live worker consumes exactly one (it exits right
// after), the master reaps them and exits, and the listener closes with
// the last fd reference. Works identically on all three kernels — no
// signal support required.
func StopHTTPD(k Kernel, port uint16, workers int) {
	for i := 0; i < workers; i++ {
		conn, err := k.Host().Dial(port)
		if err != nil {
			return // listener already gone: server is down
		}
		// Write and close without waiting for a reply; the bytes stay
		// readable in the stream buffer after close, so the worker
		// still sees the request.
		_, _ = conn.Write([]byte(QuitRequest))
		conn.Close()
	}
}

// RunHTTPBench is the ApacheBench analog: it drives exactly totalRequests
// requests at the given concurrency against the server on the kernel's
// host loopback, returning the measured throughput.
func RunHTTPBench(k Kernel, port uint16, concurrency, totalRequests int) HTTPBenchResult {
	var (
		wg      sync.WaitGroup
		failed  atomic.Int64
		nbytes  atomic.Int64
		pending atomic.Int64
	)
	pending.Store(int64(totalRequests))
	start := k.Host().Now()
	for c := 0; c < concurrency; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 4096)
			for pending.Add(-1) >= 0 {
				conn, err := dialRetry(k, port, 200)
				if err != nil {
					failed.Add(1)
					continue
				}
				n := getPage(conn, buf)
				nbytes.Add(int64(n))
				if n < ResponseSize {
					failed.Add(1)
				}
				conn.Close()
			}
		}()
	}
	wg.Wait()
	return HTTPBenchResult{
		Requests:   totalRequests,
		Elapsed:    k.Host().Now().Sub(start),
		Failed:     int(failed.Load()),
		Bytes:      nbytes.Load(),
		Concurrent: concurrency,
	}
}

// C10KResult reports a concurrent-connection scaling run.
type C10KResult struct {
	// Conns is the number of simultaneously open connections; every one
	// is connected before the first request is sent.
	Conns int
	// Requests/Failed count request rounds across all connections.
	Requests, Failed int
	// Elapsed covers the request phase only (connect storm excluded).
	Elapsed time.Duration
	// Bytes is the total payload received.
	Bytes int64
	// P50/P99 are request latency percentiles (send → full response).
	P50, P99 time.Duration
	// Churns counts deliberate close+redial cycles (RunC10KChurn only):
	// each one pushes a connection back through accept, epoll
	// registration and idle-reap arming while the rest keep serving.
	Churns int
}

// Throughput returns successful requests per second.
func (r C10KResult) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Requests-r.Failed) / r.Elapsed.Seconds()
}

// RunC10K drives the C10K scaling experiment: open conns connections
// concurrently (all connected and held open before any request flows —
// the seed's thread-per-connection server cannot get past the hart
// count here, the event-driven one must not care), then run rounds
// request rounds per connection over the persistent connections,
// closing only at the end. Latency percentiles are measured per
// request.
func RunC10K(k Kernel, port uint16, conns, rounds int) C10KResult {
	return runC10K(k, port, conns, rounds, 0)
}

// RunC10KChurn is RunC10K with connection churn: before every
// churnStride'th round, a connection closes and redials, so each round
// retires roughly conns/churnStride connections and accepts as many new
// ones while the rest keep serving. Churn is what separates "holds N
// open connections" from "survives N connections' lifecycle" — it keeps
// the accept path, epoll registration/removal and idle-reap arm/cancel
// hot during the timed phase, and reports the steady connections' tail
// latency while they are.
func RunC10KChurn(k Kernel, port uint16, conns, rounds, churnStride int) C10KResult {
	return runC10K(k, port, conns, rounds, churnStride)
}

func runC10K(k Kernel, port uint16, conns, rounds, churnStride int) C10KResult {
	var (
		wg     sync.WaitGroup
		failed atomic.Int64
		nbytes atomic.Int64
		churns atomic.Int64
	)
	cs := make([]*hostos.Conn, conns)
	latMu := sync.Mutex{}
	lats := make([]time.Duration, 0, conns*rounds)

	// Phase 1: the connect storm. The listen backlog is 128, as real
	// servers configure, so dials retry while the acceptors drain. One
	// untimed warmup request per connection then guarantees every
	// connection is accepted and registered with a worker's epoll set
	// before the clock starts — the timed phase measures steady-state
	// serving at N concurrent connections, not the accept ramp.
	for i := range cs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			conn, err := dialRetry(k, port, 30000)
			if err != nil {
				return
			}
			if getPage(conn, make([]byte, 4096)) < ResponseSize {
				conn.Close()
				return
			}
			cs[i] = conn
		}(i)
	}
	wg.Wait()

	// Phase 2: request rounds over the held-open connections. In-flight
	// requests are capped at 1024 — C10K is ten thousand OPEN
	// connections (all registered in the server's interest lists, all
	// capable of becoming active), not ten thousand requests in flight;
	// the bounded active set is what the original problem statement
	// calls "mostly-idle connections", and it keeps the load generator
	// itself from becoming the bottleneck being measured.
	sem := make(chan struct{}, 1024)
	start := k.Host().Now()
	for i := range cs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			conn := cs[i]
			buf := make([]byte, 4096)
			myLats := make([]time.Duration, 0, rounds)
			round := func() {
				if conn == nil {
					var err error
					conn, err = dialRetry(k, port, 30000)
					if err != nil {
						failed.Add(1)
						return
					}
				}
				t0 := k.Host().Now()
				n := getPage(conn, buf)
				nbytes.Add(int64(n))
				if n < ResponseSize {
					failed.Add(1)
					conn.Close()
					conn = nil
					return
				}
				myLats = append(myLats, k.Host().Now().Sub(t0))
			}
			for r := 0; r < rounds; r++ {
				// Staggered by connection index so every round churns a
				// slice of the population rather than round k churning
				// everyone at once.
				if churnStride > 0 && (i+r)%churnStride == 0 && conn != nil {
					conn.Close()
					conn = nil
					churns.Add(1)
				}
				sem <- struct{}{}
				round()
				<-sem
			}
			if conn != nil {
				conn.Close()
			}
			latMu.Lock()
			lats = append(lats, myLats...)
			latMu.Unlock()
		}(i)
	}
	wg.Wait()
	elapsed := k.Host().Now().Sub(start)

	p50, p99 := percentiles(lats)
	return C10KResult{
		Conns:    conns,
		Requests: conns * rounds,
		Failed:   int(failed.Load()),
		Elapsed:  elapsed,
		Bytes:    nbytes.Load(),
		P50:      p50,
		P99:      p99,
		Churns:   int(churns.Load()),
	}
}

// dialRetry dials until the backlog has room, at most attempts+1
// times, 1 ms of the host's time apart.
func dialRetry(k Kernel, port uint16, attempts int) (*hostos.Conn, error) {
	for i := 0; ; i++ {
		conn, err := k.Host().Dial(port)
		if err == nil || i >= attempts {
			return conn, err
		}
		k.Host().Sleep(time.Millisecond)
	}
}

// getRequest is the request every load generator sends.
const getRequest = "GET / HTTP/1.0\r\n\r\n"

// getPage sends one GET on conn and reads the reply through buf,
// returning the bytes read: ResponseSize when the exchange completed,
// fewer when the write or a read failed.
func getPage(conn *hostos.Conn, buf []byte) int {
	if _, err := conn.Write([]byte(getRequest)); err != nil {
		return 0
	}
	got := 0
	for got < ResponseSize {
		n, err := conn.Read(buf)
		got += n
		if err != nil {
			break
		}
	}
	return got
}

// percentiles sorts lats and returns their 50th and 99th percentiles,
// or zeros when there are none.
func percentiles(lats []time.Duration) (p50, p99 time.Duration) {
	if len(lats) == 0 {
		return 0, 0
	}
	slices.Sort(lats)
	at := func(p float64) time.Duration { return lats[int(p*float64(len(lats)-1))] }
	return at(0.50), at(0.99)
}
