package hostos

import (
	"bytes"
	"io"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"
	"weak"
)

func pair(t *testing.T, h *Host, port uint16) (client, server *Conn) {
	t.Helper()
	l, err := h.Listen(port)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan *Conn, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			done <- nil
			return
		}
		done <- c
	}()
	client, err = h.Dial(port)
	if err != nil {
		t.Fatal(err)
	}
	server = <-done
	if server == nil {
		t.Fatal("accept failed")
	}
	l.Close()
	return client, server
}

// TestHalfCloseWriteDrain is the shutdown(WR) regression test: after the
// writer half-closes, the reader drains every buffered byte before
// seeing EOF, and the reverse direction keeps working — the classic TCP
// half-close the seed's single close flag could not express (closing one
// end killed the peer's in-flight data with ErrClosedPipe).
func TestHalfCloseWriteDrain(t *testing.T) {
	client, server := pair(t, New(), 70)

	msg := bytes.Repeat([]byte("abcdefgh"), 512)
	if _, err := server.Write(msg); err != nil {
		t.Fatal(err)
	}
	server.CloseWrite()

	// The reader must drain all 4 KB and then get a clean EOF.
	got, err := io.ReadAll(connReader{client})
	if err != nil {
		t.Fatalf("drain after CloseWrite: %v", err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("drained %d bytes, want %d", len(got), len(msg))
	}

	// The reverse direction is untouched: the client can still talk and
	// the server can still listen.
	if _, err := client.Write([]byte("still here")); err != nil {
		t.Fatalf("write after peer CloseWrite: %v", err)
	}
	buf := make([]byte, 16)
	n, err := server.Read(buf)
	if err != nil || string(buf[:n]) != "still here" {
		t.Fatalf("server read after CloseWrite = %q, %v", buf[:n], err)
	}
	client.Close()
	server.Close()
}

// TestCloseLetsPeerDrain: a full Close on one end still lets the peer
// read everything written before the close.
func TestCloseLetsPeerDrain(t *testing.T) {
	client, server := pair(t, New(), 71)
	if _, err := server.Write([]byte("parting gift")); err != nil {
		t.Fatal(err)
	}
	server.Close()
	got, err := io.ReadAll(connReader{client})
	if err != nil || string(got) != "parting gift" {
		t.Fatalf("drain after Close = %q, %v", got, err)
	}
	client.Close()
}

// TestCloseReadBreaksPeerWrite: shutdown(RD) makes the peer's writes
// fail with ErrClosedPipe — including a write already parked on a full
// buffer, which must be woken with the error rather than sleep forever.
func TestCloseReadBreaksPeerWrite(t *testing.T) {
	client, server := pair(t, New(), 72)

	errCh := make(chan error, 1)
	go func() {
		// Larger than the 256 KB stream cap: blocks mid-write.
		_, err := server.Write(make([]byte, streamCap+4096))
		errCh <- err
	}()
	// Wait until the writer has actually filled the buffer and parked.
	for client.Readiness()&ReadyIn == 0 {
		time.Sleep(time.Millisecond)
	}
	client.CloseRead()
	select {
	case err := <-errCh:
		if err != io.ErrClosedPipe {
			t.Fatalf("parked write after CloseRead: err = %v, want ErrClosedPipe", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("parked write never woke after CloseRead")
	}
	// Fresh writes fail immediately too.
	if _, err := server.Write([]byte("x")); err != io.ErrClosedPipe {
		t.Fatalf("write after peer CloseRead: err = %v", err)
	}
	client.Close()
	server.Close()
}

// TestConnReadiness walks the level-triggered readiness state machine.
func TestConnReadiness(t *testing.T) {
	client, server := pair(t, New(), 73)

	if r := client.Readiness(); r != ReadyOut {
		t.Fatalf("fresh conn readiness = %b, want ReadyOut", r)
	}
	server.Write([]byte("ping"))
	if r := client.Readiness(); r&ReadyIn == 0 {
		t.Fatalf("readiness after peer write = %b, want ReadyIn set", r)
	}
	buf := make([]byte, 2)
	client.Read(buf) // partial read: data remains
	if r := client.Readiness(); r&ReadyIn == 0 {
		t.Fatalf("readiness after partial read = %b, want ReadyIn still set (level-triggered)", r)
	}
	client.Read(buf) // drain
	if r := client.Readiness(); r&ReadyIn != 0 {
		t.Fatalf("readiness after drain = %b, want ReadyIn clear", r)
	}
	server.CloseWrite()
	if r := client.Readiness(); r&(ReadyIn|ReadyHup) != ReadyIn|ReadyHup {
		t.Fatalf("readiness after peer CloseWrite = %b, want ReadyIn|ReadyHup", r)
	}
	server.CloseRead()
	if r := client.Readiness(); r&ReadyErr == 0 {
		t.Fatalf("readiness after peer CloseRead = %b, want ReadyErr", r)
	}
	client.Close()
}

// TestSubscribeNotify: persistent subscriptions fire on every
// empty→nonempty readability edge (not on writes into an already
// non-empty buffer — edges, not levels) until cancelled.
func TestSubscribeNotify(t *testing.T) {
	client, server := pair(t, New(), 74)
	var mu sync.Mutex
	fired := 0
	cancel := client.Subscribe(func() {
		mu.Lock()
		fired++
		mu.Unlock()
	})
	count := func() int { mu.Lock(); defer mu.Unlock(); return fired }

	server.Write([]byte("a"))
	after1 := count()
	if after1 == 0 {
		t.Fatal("subscription did not fire on empty→nonempty edge")
	}
	server.Write([]byte("b")) // buffer already non-empty: no new edge
	if count() != after1 {
		t.Fatal("subscription fired without a readiness edge")
	}
	buf := make([]byte, 8)
	client.Read(buf) // drain both bytes
	server.Write([]byte("c"))
	after2 := count()
	if after2 <= after1 {
		t.Fatal("subscription consumed by first wake (must be persistent)")
	}
	cancel()
	client.Read(buf)
	server.Write([]byte("d"))
	if count() != after2 {
		t.Fatal("cancelled subscription still firing")
	}
	client.Close()
	server.Close()
}

// TestListenerReadiness: a pending connection makes the listener
// readable and fires its subscriptions.
func TestListenerReadiness(t *testing.T) {
	h := New()
	l, err := h.Listen(75)
	if err != nil {
		t.Fatal(err)
	}
	if r := l.Readiness(); r != 0 {
		t.Fatalf("idle listener readiness = %b, want 0", r)
	}
	notified := make(chan struct{}, 8)
	cancel := l.Subscribe(func() {
		select {
		case notified <- struct{}{}:
		default:
		}
	})
	defer cancel()
	c, err := h.Dial(75)
	if err != nil {
		t.Fatal(err)
	}
	if r := l.Readiness(); r&ReadyIn == 0 {
		t.Fatalf("listener with pending accept: readiness = %b, want ReadyIn", r)
	}
	select {
	case <-notified:
	case <-time.After(5 * time.Second):
		t.Fatal("listener subscription never fired on arrival")
	}
	if conn, ok, _ := l.TryAccept(nil); !ok {
		t.Fatal("TryAccept found nothing despite ReadyIn")
	} else {
		conn.Close()
	}
	c.Close()
	l.Close()
	if r := l.Readiness(); r&(ReadyIn|ReadyHup) != ReadyIn|ReadyHup {
		t.Fatalf("closed listener readiness = %b, want ReadyIn|ReadyHup", r)
	}
}

// pollRead emulates a poll(timeout)+read loop over the readiness API:
// subscribe, probe with a nonblocking TryRead, and wait for either an
// edge or the timeout before retrying. Exercises the same
// subscribe-then-scan ordering the LibOS poll handler uses.
func pollRead(c *Conn, p []byte, timeout time.Duration) (int, bool) {
	for {
		ch := make(chan struct{}, 1)
		cancel := c.Subscribe(func() {
			select {
			case ch <- struct{}{}:
			default:
			}
		})
		n, eof, wouldBlock := c.TryRead(p, nil)
		if !wouldBlock {
			cancel()
			return n, eof
		}
		select {
		case <-ch:
		case <-time.After(timeout):
		}
		cancel()
	}
}

// TestRandomNetStress is the randomized interleaving stress: N clients
// across M echo servers, mixing blocking reads, poll-style reads with
// random timeouts, random chunk sizes, random yields, half-closes and
// closes. Every well-behaved client must get its bytes echoed back
// exactly; the deadline catches lost wakeups. CI runs the package under
// -race, which turns this into the readiness layer's data-race probe.
func TestRandomNetStress(t *testing.T) {
	const (
		servers    = 4
		clients    = 24
		maxChunks  = 20
		basePort   = 7600
		abortEvery = 5 // every 5th client closes abruptly mid-stream
	)
	h := New()

	var wg sync.WaitGroup
	for s := 0; s < servers; s++ {
		l, err := h.Listen(uint16(basePort + s))
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		wg.Add(1)
		go func(l *Listener) {
			defer wg.Done()
			for {
				conn, err := l.Accept()
				if err != nil {
					return // listener closed: shutting down
				}
				wg.Add(1)
				go func(c *Conn) {
					defer wg.Done()
					// Echo until EOF, then half-close so the client
					// can drain, and fully close once done.
					buf := make([]byte, 700)
					for {
						n, err := c.Read(buf)
						if n > 0 {
							if _, werr := c.Write(buf[:n]); werr != nil {
								break
							}
						}
						if err != nil {
							break
						}
					}
					c.CloseWrite()
					c.Close()
				}(conn)
			}
		}(l)
	}

	errCh := make(chan error, clients)
	var cwg sync.WaitGroup
	for i := 0; i < clients; i++ {
		cwg.Add(1)
		go func(i int) {
			defer cwg.Done()
			rng := rand.New(rand.NewSource(int64(i)*7919 + 13))
			port := uint16(basePort + rng.Intn(servers))
			conn, err := h.Dial(port)
			if err != nil {
				errCh <- err
				return
			}
			abort := i%abortEvery == abortEvery-1
			var sent, recvd bytes.Buffer
			rbuf := make([]byte, 600)
			chunks := 1 + rng.Intn(maxChunks)
			for c := 0; c < chunks; c++ {
				chunk := make([]byte, 1+rng.Intn(900))
				for j := range chunk {
					chunk[j] = byte(rng.Intn(256))
				}
				if _, err := conn.Write(chunk); err != nil {
					errCh <- err
					return
				}
				sent.Write(chunk)
				if abort && c == chunks/2 {
					conn.Close() // abrupt: no totals asserted
					return
				}
				// Randomly interleave reads: blocking or poll-style
				// with a random (possibly expiring) timeout.
				if rng.Intn(2) == 0 {
					var n int
					var eof bool
					if rng.Intn(2) == 0 {
						n, err = conn.Read(rbuf)
						eof = err == io.EOF
					} else {
						n, eof = pollRead(conn, rbuf, time.Duration(1+rng.Intn(3))*time.Millisecond)
					}
					if eof {
						break
					}
					recvd.Write(rbuf[:n])
				}
			}
			// Half-close our direction, then drain the rest of the echo.
			conn.CloseWrite()
			for recvd.Len() < sent.Len() {
				n, eof := pollRead(conn, rbuf, time.Duration(1+rng.Intn(3))*time.Millisecond)
				recvd.Write(rbuf[:n])
				if eof {
					break
				}
			}
			conn.Close()
			if !bytes.Equal(sent.Bytes(), recvd.Bytes()) {
				t.Errorf("client %d: echo mismatch: sent %d bytes, got %d", i, sent.Len(), recvd.Len())
			}
		}(i)
	}

	done := make(chan struct{})
	go func() { cwg.Wait(); close(done) }()
	select {
	case <-done:
	case err := <-errCh:
		t.Fatal(err)
	case <-time.After(60 * time.Second):
		t.Fatal("stress did not converge: lost wakeup?")
	}
}

// TestSlowReaderBoundedMemory is the per-connection memory-cap
// regression test: a writer racing far ahead of a slow reader is
// backpressured at exactly StreamCap queued bytes per direction — the
// ring is the connection's whole buffer, allocated once — instead of
// ballooning the host heap the way the old append-grown stream slice
// could. Byte integrity across the wrap-around is checked end to end.
func TestSlowReaderBoundedMemory(t *testing.T) {
	client, server := pair(t, New(), 71)

	// With the reader stalled, a flood is accepted up to the cap and
	// not a byte more.
	pattern := func(i int) byte { return byte(i*7 + 3) }
	total := 0
	chunk := make([]byte, 8<<10)
	for {
		for i := range chunk {
			chunk[i] = pattern(total + i)
		}
		n, closed, wouldBlock := client.TryWrite(chunk, nil)
		if closed {
			t.Fatal("connection closed")
		}
		total += n
		if wouldBlock {
			break
		}
	}
	if total != StreamCap() {
		t.Fatalf("stalled reader absorbed %d bytes, cap is %d", total, StreamCap())
	}
	if n, _, _ := client.TryWrite([]byte{1}, nil); n != 0 {
		t.Fatal("write beyond cap accepted")
	}
	if server.Readiness()&ReadyOut == 0 {
		t.Fatal("server direction should be unaffected")
	}

	// The slow reader drains in dribbles while the writer refills; the
	// stream stays at ≤ cap throughout and every byte arrives in order.
	const goal = 4 << 20
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		sent := total
		for sent < goal {
			for i := range chunk {
				chunk[i] = pattern(sent + i)
			}
			n, err := client.Write(chunk[:min(len(chunk), goal-sent)])
			sent += n
			if err != nil {
				t.Errorf("write: %v", err)
				return
			}
		}
		client.CloseWrite()
	}()
	got := 0
	buf := make([]byte, 3001) // odd size: exercises ring wrap alignment
	for {
		n, err := server.Read(buf)
		for i := 0; i < n; i++ {
			if buf[i] != pattern(got+i) {
				t.Fatalf("byte %d corrupted under backpressure", got+i)
			}
		}
		got += n
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if got != goal {
		t.Fatalf("delivered %d of %d bytes", got, goal)
	}
}

// TestListenerBacklog checks that the guest's listen() backlog governs
// how many undialed connections queue: dials up to the limit succeed,
// the next is refused immediately (not silently dropped), and draining
// one slot readmits one dial. Run for a small and a large backlog —
// the storm at both sizes is the regression for the seed's hard-coded
// 128.
func TestListenerBacklog(t *testing.T) {
	for _, bl := range []int{4, 256} {
		h := New()
		l, err := h.Listen(80)
		if err != nil {
			t.Fatal(err)
		}
		l.SetBacklog(bl)
		if got := l.Backlog(); got != bl {
			t.Fatalf("backlog = %d, want %d", got, bl)
		}
		for i := 0; i < bl; i++ {
			if _, err := h.Dial(80); err != nil {
				t.Fatalf("backlog %d: dial %d refused early: %v", bl, i, err)
			}
		}
		if _, err := h.Dial(80); err != ErrConnRefused {
			t.Fatalf("backlog %d: overflow dial err = %v, want ErrConnRefused", bl, err)
		}
		if c, ok, _ := l.TryAccept(nil); !ok || c == nil {
			t.Fatalf("backlog %d: accept from full queue failed", bl)
		}
		if _, err := h.Dial(80); err != nil {
			t.Fatalf("backlog %d: dial after drain refused: %v", bl, err)
		}
		l.Close()
	}
}

// TestSetBacklogClamps checks the host ceiling and floor.
func TestSetBacklogClamps(t *testing.T) {
	h := New()
	l, err := h.Listen(81)
	if err != nil {
		t.Fatal(err)
	}
	if l.Backlog() != BacklogDefault {
		t.Fatalf("default backlog = %d", l.Backlog())
	}
	l.SetBacklog(1 << 20)
	if l.Backlog() != BacklogCap {
		t.Fatalf("clamped backlog = %d, want %d", l.Backlog(), BacklogCap)
	}
	l.SetBacklog(0)
	if l.Backlog() != 1 {
		t.Fatalf("floor backlog = %d, want 1", l.Backlog())
	}
	l.Close()
}

// TestActiveTimers checks the armed-timer accounting: arming counts,
// firing and cancelling uncount, and a cancel racing a fire never
// double-decrements.
func TestActiveTimers(t *testing.T) {
	h := New()
	fired := make(chan struct{})
	cancel := h.Timer(time.Hour, func() { close(fired) })
	if n := h.ActiveTimers(); n != 1 {
		t.Fatalf("armed count = %d", n)
	}
	cancel()
	if n := h.ActiveTimers(); n != 0 {
		t.Fatalf("after cancel count = %d", n)
	}
	cancel() // double cancel must not go negative
	if n := h.ActiveTimers(); n != 0 {
		t.Fatalf("after double cancel count = %d", n)
	}
	h.Timer(time.Millisecond, func() { fired <- struct{}{} })
	<-fired
	if n := h.ActiveTimers(); n != 0 {
		t.Fatalf("after fire count = %d", n)
	}
}

// TestConnBufAlloc checks that an idle connection's buffer footprint is
// near zero, that a drained burst releases its buffer, and that a
// finished direction — read side closed, or write side closed and
// drained — holds no buffer at all, however small.
func TestConnBufAlloc(t *testing.T) {
	h := New()
	client, server := pair(t, h, 82)
	if n := client.BufAlloc() + server.BufAlloc(); n != 0 {
		t.Fatalf("idle conn allocated %d bytes", n)
	}
	big := make([]byte, 200<<10)
	if _, err := client.Write(big); err != nil {
		t.Fatal(err)
	}
	if n := server.BufAlloc(); n < 200<<10 {
		t.Fatalf("burst alloc = %d", n)
	}
	if _, err := io.ReadFull(server, big); err != nil {
		t.Fatal(err)
	}
	if n := server.BufAlloc(); n != 0 {
		t.Fatalf("post-drain alloc = %d, want 0", n)
	}

	// Client → server: written, write-closed, drained.
	client.Write([]byte("request"))
	client.CloseWrite()
	if _, err := io.ReadAll(server); err != nil {
		t.Fatal(err)
	}
	// Server → client: written, never read, read-closed.
	server.Write([]byte("response"))
	client.CloseRead()
	if n := client.BufAlloc() + server.BufAlloc(); n != 0 {
		t.Fatalf("finished conn holds %d bytes", n)
	}
}

// TestAcceptedConnNotPinnedByBacklog: once accepted and closed, a
// connection is garbage; the listener's queue must not keep it
// reachable through the backing array it was dequeued from.
func TestAcceptedConnNotPinnedByBacklog(t *testing.T) {
	accepts := []struct {
		name   string
		accept func(l *Listener) *Conn
	}{
		{"Accept", func(l *Listener) *Conn {
			c, err := l.Accept()
			if err != nil {
				t.Fatal(err)
			}
			return c
		}},
		{"TryAccept", func(l *Listener) *Conn {
			c, ok, _ := l.TryAccept(nil)
			if !ok {
				t.Fatal("TryAccept found no queued conn")
			}
			return c
		}},
	}
	for _, a := range accepts {
		h := New()
		l, err := h.Listen(83)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			if _, err := h.Dial(83); err != nil {
				t.Fatal(err)
			}
		}
		c := a.accept(l)
		wc := weak.Make(c)
		c.Close()
		c = nil
		runtime.GC()
		if wc.Value() != nil {
			l.mu.Lock()
			n, capacity := len(l.backlog), cap(l.backlog)
			l.mu.Unlock()
			t.Fatalf("%s: accepted conn still reachable (backlog len %d cap %d)", a.name, n, capacity)
		}
		l.Close()
	}
}

// TestConnAllocationFloor: with the host's buffer pool warm, a whole
// connection — dial, accept, a 10 KiB response, read it, close both
// ends — allocates its few small structs, not a ring buffer per
// direction (the 10 KiB response alone used to grow a fresh 16 KiB
// ring).
func TestConnAllocationFloor(t *testing.T) {
	h := New()
	l, err := h.Listen(84)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	resp := bytes.Repeat([]byte("0123456789"), 1024)
	got := make([]byte, len(resp))
	cycle := func() {
		client, err := h.Dial(84)
		if err != nil {
			t.Fatal(err)
		}
		server, err := l.Accept()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := server.Write(resp); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(client, got); err != nil {
			t.Fatal(err)
		}
		client.Close()
		server.Close()
	}
	for i := 0; i < 10; i++ {
		cycle()
	}
	const cycles = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < cycles; i++ {
		cycle()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / cycles; per >= 2<<10 {
		t.Fatalf("a warm connection cycle allocates %d bytes, want < 2 KiB", per)
	}
}

// TestAcceptWaitersRefillAllocatesNothing: a wake hands the parked
// accepts' waiter array back as the listener's spare, so registering
// the next round of waiters appends into it instead of growing a fresh
// list after every Dial.
func TestAcceptWaitersRefillAllocatesNothing(t *testing.T) {
	h := New()
	l, err := h.Listen(86)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	woken := 0
	wake := func() { woken++ }
	cycle := func() {
		for i := 0; i < 4; i++ {
			if _, ok, _ := l.TryAccept(wake); ok {
				t.Fatal("accepted from an empty backlog")
			}
		}
		l.mu.Lock()
		w := l.takeWaitersLocked()
		l.mu.Unlock()
		l.runWaiters(w)
	}
	cycle()
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Fatalf("a warm register/wake cycle allocates %v times, want 0", n)
	}
	// A Dial runs the same wake: every waiter once, then none.
	woken = 0
	for i := 0; i < 3; i++ {
		l.TryAccept(wake)
	}
	c, err := h.Dial(86)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if woken != 3 {
		t.Fatalf("a Dial woke %d of 3 parked accepts", woken)
	}
	if len(l.waiters) != 0 || cap(l.waiters) == 0 && cap(l.spare) == 0 {
		t.Fatalf("after the wake: %d waiters left, capacities %d/%d; want none left and an array kept", len(l.waiters), cap(l.waiters), cap(l.spare))
	}
}

// TestListenDialCloseDistinctPorts: eight goroutines each bind, dial,
// accept on and close their own port, round after round. listenMu is
// the only thing ordering their port-table updates: each Listen must
// find its port free, each Dial must reach its own listener with its
// own bytes, each Dial after Close must be refused, and the table ends
// empty. With the lock dropped from Listen, Dial or Close, -race reports
// (or the runtime stops on a concurrent map write).
func TestListenDialCloseDistinctPorts(t *testing.T) {
	const workers, rounds = 8, 200
	h := New()
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			port := uint16(7000 + w)
			buf := make([]byte, 1)
			for r := range rounds {
				l, err := h.Listen(port)
				if err != nil {
					t.Errorf("port %d round %d: Listen: %v", port, r, err)
					return
				}
				c, err := h.Dial(port)
				if err != nil {
					t.Errorf("port %d round %d: Dial: %v", port, r, err)
					return
				}
				s, ok, _ := l.TryAccept(nil)
				if !ok {
					t.Errorf("port %d round %d: nothing to accept after Dial", port, r)
					return
				}
				c.Write([]byte{byte(w)})
				if n, _ := s.Read(buf); n != 1 || buf[0] != byte(w) {
					t.Errorf("port %d round %d: accepted a connection carrying %v, want [%d]", port, r, buf[:n], w)
					return
				}
				c.Close()
				s.Close()
				l.Close()
				if _, err := h.Dial(port); err != ErrConnRefused {
					t.Errorf("port %d round %d: Dial after Close: %v, want ErrConnRefused", port, r, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	h.listenMu.Lock()
	defer h.listenMu.Unlock()
	if len(h.listeners) != 0 {
		t.Errorf("%d ports still bound after every listener closed", len(h.listeners))
	}
}
