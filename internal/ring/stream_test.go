package ring

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// streamCaps are the capacities the one Stream runs at in the tree: a
// LibOS pipe's and a host connection direction's. The battery below is
// the host stream's (half-close, slow reader, randomized stress), which
// pipes inherit by being the same type.
var streamCaps = []int{64 << 10, 256 << 10}

func forEachCap(t *testing.T, f func(t *testing.T, capacity int)) {
	for _, c := range streamCaps {
		c := c
		t.Run(fmt.Sprintf("cap=%dKiB", c>>10), func(t *testing.T) { f(t, c) })
	}
}

// wakeCh returns a one-shot waiter and the channel it signals.
func wakeCh() (func(), <-chan struct{}) {
	ch := make(chan struct{}, 1)
	return func() {
		select {
		case ch <- struct{}{}:
		default:
		}
	}, ch
}

// await blocks on a waiter's channel; a lost wakeup surfaces as a false
// return after the deadline instead of a hung test.
func await(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	case <-time.After(30 * time.Second):
		return false
	}
}

// TestStreamHalfClose: CloseWrite lets the reader drain every buffered
// byte before EOF; CloseRead fails the writer — including one already
// blocked on a full ring, which must be woken with the error. Either way
// the finished stream holds no buffer, pooled or not.
func TestStreamHalfClose(t *testing.T) {
	forEachCap(t, func(t *testing.T, capacity int) {
		for _, p := range []*Pool{nil, new(Pool)} {
			s := p.NewStream(capacity)
			msg := bytes.Repeat([]byte("abcdefgh"), 512)
			if _, err := s.Write(msg); err != nil {
				t.Fatal(err)
			}
			s.CloseWrite()
			if r := s.ReadReady(); r != ReadyIn|ReadyHup {
				t.Fatalf("readiness after CloseWrite = %b", r)
			}
			got, err := io.ReadAll(readerFunc(s.Read))
			if err != nil || !bytes.Equal(got, msg) {
				t.Fatalf("drain after CloseWrite: %d bytes, %v", len(got), err)
			}
			if _, eof, _ := s.TryRead(make([]byte, 1), nil); !eof {
				t.Fatal("drained, write-closed stream is not at EOF")
			}
			if s.Alloc() != 0 {
				t.Fatalf("drained, write-closed stream holds %d bytes", s.Alloc())
			}

			s = p.NewStream(capacity)
			errCh := make(chan error, 1)
			go func() {
				_, err := s.Write(make([]byte, capacity+4096))
				errCh <- err
			}()
			for s.WriteReady()&ReadyOut != 0 { // until the writer filled the ring and blocked
				time.Sleep(time.Millisecond)
			}
			s.CloseRead()
			select {
			case err := <-errCh:
				if err != io.ErrClosedPipe {
					t.Fatalf("blocked write after CloseRead: err = %v, want ErrClosedPipe", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("blocked write never woke after CloseRead")
			}
			if _, err := s.Write([]byte("x")); err != io.ErrClosedPipe {
				t.Fatalf("write after CloseRead: err = %v", err)
			}
			if _, closed, _ := s.TryWrite([]byte("x"), nil); !closed {
				t.Fatal("TryWrite after CloseRead not closed")
			}
			if r := s.WriteReady(); r != ReadyOut|ReadyErr {
				t.Fatalf("write readiness after CloseRead = %b", r)
			}
			if s.Alloc() != 0 {
				t.Fatalf("read-closed stream holds %d bytes", s.Alloc())
			}
		}
	})
}

type readerFunc func([]byte) (int, error)

func (f readerFunc) Read(p []byte) (int, error) { return f(p) }

// TestStreamSlowReaderBoundedMemory: a writer racing far ahead of a
// stalled reader is backpressured at exactly the capacity, the buffer
// never exceeds it while a slow reader dribbles 4 MiB through, and every
// byte arrives in order across the wraparounds.
func TestStreamSlowReaderBoundedMemory(t *testing.T) {
	forEachCap(t, func(t *testing.T, capacity int) {
		s := NewStream(capacity)
		pattern := func(i int) byte { return byte(i*7 + 3) }
		chunk := make([]byte, 8<<10)
		total := 0
		for {
			for i := range chunk {
				chunk[i] = pattern(total + i)
			}
			n, closed, wouldBlock := s.TryWrite(chunk, nil)
			if closed {
				t.Fatal("stream closed")
			}
			total += n
			if wouldBlock {
				break
			}
		}
		if total != capacity || s.Alloc() != capacity {
			t.Fatalf("stalled reader absorbed %d bytes in %d allocated, cap is %d", total, s.Alloc(), capacity)
		}
		if n, _, _ := s.TryWrite([]byte{1}, nil); n != 0 {
			t.Fatal("write beyond cap accepted")
		}

		const goal = 4 << 20
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for sent := total; sent < goal; {
				for i := range chunk {
					chunk[i] = pattern(sent + i)
				}
				n, err := s.Write(chunk[:min(len(chunk), goal-sent)])
				sent += n
				if err != nil {
					t.Errorf("write: %v", err)
					return
				}
			}
			s.CloseWrite()
		}()
		got := 0
		buf := make([]byte, 3001) // odd size: exercises ring wrap alignment
		for {
			n, err := s.Read(buf)
			for i := 0; i < n; i++ {
				if buf[i] != pattern(got+i) {
					t.Fatalf("byte %d corrupted under backpressure", got+i)
				}
			}
			got += n
			if a := s.Alloc(); a > capacity {
				t.Fatalf("buffer grew to %d, cap is %d", a, capacity)
			}
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
	})
}

// pollRead emulates a poll(timeout)+read loop: subscribe, probe with a
// non-blocking TryRead, wait for an edge or the timeout, retry — the
// subscribe-then-scan ordering the LibOS poll handler uses.
func pollRead(s *Stream, p []byte, timeout time.Duration) (int, bool) {
	for {
		wake, ch := wakeCh()
		cancel := s.Subscribe(true, wake)
		n, eof, wouldBlock := s.TryRead(p, nil)
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

// moveParked is Move as a parking caller uses it: retry after the
// registered waiter fires.
func moveParked(dst, src *Stream, max int) (int, MoveStatus, bool) {
	for {
		wake, ch := wakeCh()
		n, st := Move(dst, src, max, wake)
		if st != SrcEmpty && st != DstFull {
			return n, st, true
		}
		if !await(ch) {
			return 0, st, false
		}
	}
}

// TestStreamRandomStress is the randomized interleaving stress at both
// capacities: each client talks to an echo stage over two streams (a
// connection's shape), mixing blocking reads, poll-style reads with
// random timeouts, random chunk sizes, half-closes and abrupt closes;
// the echo stage alternates between read+write and Move, so parked
// two-stream moves race the same edges. All streams share one Pool, so
// buffers outgrown or let go by one stream back the next growth of
// another while both are live. Every well-behaved client must
// get its bytes back exactly; the deadline catches lost wakeups, and
// -race makes this the wake protocol's data-race probe.
func TestStreamRandomStress(t *testing.T) {
	forEachCap(t, func(t *testing.T, capacity int) {
		const (
			clients    = 24
			maxChunks  = 20
			abortEvery = 5
		)
		var wg sync.WaitGroup
		var pool Pool
		for i := 0; i < clients; i++ {
			up, down := pool.NewStream(capacity), pool.NewStream(capacity)
			wg.Add(2)
			go func(i int) { // echo stage: up → down
				defer wg.Done()
				defer down.CloseWrite()
				defer up.CloseRead()
				buf := make([]byte, 700)
				for round := i; ; round++ {
					if round%2 == 0 {
						n, err := up.Read(buf)
						if n > 0 {
							if _, werr := down.Write(buf[:n]); werr != nil {
								return
							}
						}
						if err != nil {
							return
						}
						continue
					}
					_, st, ok := moveParked(down, up, 1+round%900)
					if !ok {
						t.Errorf("echo %d: parked Move never woken (%v)", i, st)
						return
					}
					if st != Moved {
						return
					}
				}
			}(i)
			go func(i int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(i)*7919 + 13))
				abort := i%abortEvery == abortEvery-1
				var sent, recvd bytes.Buffer
				rbuf := make([]byte, 600)
				chunks := 1 + rng.Intn(maxChunks)
				for c := 0; c < chunks; c++ {
					chunk := make([]byte, 1+rng.Intn(900))
					rng.Read(chunk)
					if _, err := up.Write(chunk); err != nil {
						t.Errorf("client %d: write: %v", i, err)
						return
					}
					sent.Write(chunk)
					if abort && c == chunks/2 {
						down.CloseRead() // abrupt: no totals asserted
						up.CloseWrite()
						return
					}
					if rng.Intn(2) == 0 {
						var n int
						var eof bool
						if rng.Intn(2) == 0 {
							var err error
							n, err = down.Read(rbuf)
							eof = err == io.EOF
						} else {
							n, eof = pollRead(down, rbuf, time.Duration(1+rng.Intn(3))*time.Millisecond)
						}
						if eof {
							break
						}
						recvd.Write(rbuf[:n])
					}
				}
				up.CloseWrite()
				for recvd.Len() < sent.Len() {
					n, eof := pollRead(down, rbuf, time.Duration(1+rng.Intn(3))*time.Millisecond)
					recvd.Write(rbuf[:n])
					if eof {
						break
					}
				}
				down.CloseRead()
				if !bytes.Equal(sent.Bytes(), recvd.Bytes()) {
					t.Errorf("client %d: echo mismatch: sent %d bytes, got %d", i, sent.Len(), recvd.Len())
				}
			}(i)
		}
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(60 * time.Second):
			t.Fatal("stress did not converge: lost wakeup?")
		}
	})
}

// --- Move against a two-slice model --------------------------------------

// modelStream is the reference: a slice, two flags, and the tokens of
// the one-shot waiters a correct Stream holds at this point.
type modelStream struct {
	data             []byte
	capacity         int
	rClosed, wClosed bool
	rWait, wWait     []int
}

func (m *modelStream) free() int { return m.capacity - len(m.data) }

func (m *modelStream) readReady() Ready {
	var r Ready
	if len(m.data) > 0 || m.wClosed || m.rClosed {
		r |= ReadyIn
	}
	if m.wClosed {
		r |= ReadyHup
	}
	return r
}

func (m *modelStream) writeReady() Ready {
	var r Ready
	if m.free() > 0 || m.rClosed || m.wClosed {
		r |= ReadyOut
	}
	if m.rClosed {
		r |= ReadyErr
	}
	return r
}

// TestMoveModel drives random interleavings of write, read, move,
// close-read and close-write over 2–3 small streams (capacities of a
// few bytes, so wraparound and the full/empty edges are the common
// case) and checks every result against the model: bytes arrive exactly
// once and in order; a registered one-shot waiter — from TryRead,
// TryWrite or Move — is called exactly when the state it waited on
// changes (empty→nonempty or a close for readers, full→space or a close
// for writers) and never otherwise; persistent watchers see the same
// edges, close-only watchers only closes; and no callback runs under a
// stream lock (each one TryLocks every stream).
func TestMoveModel(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(2)
		ss := make([]*Stream, n)
		ms := make([]*modelStream, n)
		dataFired, closeFired := make([]int, n), make([]int, n)
		var fired []int
		unlocked := func(who string) {
			for i, s := range ss {
				if !s.mu.TryLock() {
					t.Fatalf("seed %d: %s ran under stream %d's lock", seed, who, i)
				}
				s.mu.Unlock()
			}
		}
		for i := range ss {
			i := i
			c := []int{1, 2, 3, 7, 16, 61}[rng.Intn(6)]
			ss[i], ms[i] = NewStream(c), &modelStream{capacity: c}
			ss[i].Subscribe(true, func() { unlocked("watcher"); dataFired[i]++ })
			ss[i].Subscribe(false, func() { unlocked("close watcher"); closeFired[i]++ })
		}
		token := 0
		// waiter returns a fresh one-shot callback (or nil: the
		// O_NONBLOCK probe) and its token.
		waiter := func() (func(), int) {
			if rng.Intn(3) == 0 {
				return nil, -1
			}
			token++
			k := token
			return func() { unlocked("waiter"); fired = append(fired, k) }, k
		}
		var seq byte
		for op := 0; op < 400; op++ {
			type snap struct {
				n      int
				closed bool
			}
			before := make([]snap, n)
			for i, m := range ms {
				before[i] = snap{n: len(m.data)}
			}
			fired = fired[:0]
			for i := range dataFired {
				dataFired[i], closeFired[i] = 0, 0
			}
			i := rng.Intn(n)
			s, m := ss[i], ms[i]
			what := ""
			switch k := rng.Intn(20); {
			case k < 6: // write
				p := make([]byte, rng.Intn(2*m.capacity+1))
				for j := range p {
					seq++
					p[j] = seq
				}
				wait, tok := waiter()
				gn, gclosed, gblock := s.TryWrite(p, wait)
				wn, wclosed, wblock := 0, m.rClosed || m.wClosed, false
				if !wclosed {
					wn = min(len(p), m.free())
					m.data = append(m.data, p[:wn]...)
					if wblock = wn < len(p); wblock && wait != nil {
						m.wWait = append(m.wWait, tok)
					}
				}
				what = fmt.Sprintf("write(%d, %d bytes)", i, len(p))
				if gn != wn || gclosed != wclosed || gblock != wblock {
					t.Fatalf("seed %d op %d %s = (%d, %v, %v), model (%d, %v, %v)", seed, op, what, gn, gclosed, gblock, wn, wclosed, wblock)
				}
			case k < 12: // read
				p := make([]byte, rng.Intn(2*m.capacity+1))
				wait, tok := waiter()
				gn, geof, gblock := s.TryRead(p, wait)
				wn, weof, wblock := 0, false, false
				switch {
				case m.rClosed || (len(m.data) == 0 && m.wClosed):
					weof = true
				case len(m.data) == 0:
					if wblock = true; wait != nil {
						m.rWait = append(m.rWait, tok)
					}
				default:
					wn = min(len(p), len(m.data))
					if !bytes.Equal(p[:gn], m.data[:wn]) {
						t.Fatalf("seed %d op %d read(%d): got %v, model %v", seed, op, i, p[:gn], m.data[:wn])
					}
					m.data = m.data[wn:]
				}
				what = fmt.Sprintf("read(%d, %d bytes)", i, len(p))
				if gn != wn || geof != weof || gblock != wblock {
					t.Fatalf("seed %d op %d %s = (%d, %v, %v), model (%d, %v, %v)", seed, op, what, gn, geof, gblock, wn, weof, wblock)
				}
			case k < 18: // move i ← j
				j := (i + 1 + rng.Intn(n-1)) % n
				src, sm := ss[j], ms[j]
				limit := 1 + rng.Intn(2*m.capacity)
				wait, tok := waiter()
				gn, gst := Move(s, src, limit, wait)
				wn, wst := 0, Moved
				switch {
				case m.rClosed || m.wClosed:
					wst = DstClosed
				case sm.rClosed || (len(sm.data) == 0 && sm.wClosed):
					wst = SrcEOF
				case len(sm.data) == 0:
					if wst = SrcEmpty; wait != nil {
						sm.rWait = append(sm.rWait, tok)
					}
				case m.free() == 0:
					if wst = DstFull; wait != nil {
						m.wWait = append(m.wWait, tok)
					}
				default:
					wn = min(limit, len(sm.data), m.free())
					m.data = append(m.data, sm.data[:wn]...)
					sm.data = sm.data[wn:]
				}
				what = fmt.Sprintf("move(%d←%d, max %d)", i, j, limit)
				if gn != wn || gst != wst {
					t.Fatalf("seed %d op %d %s = (%d, %v), model (%d, %v)", seed, op, what, gn, gst, wn, wst)
				}
			case k == 18:
				what = fmt.Sprintf("closeRead(%d)", i)
				s.CloseRead()
				m.rClosed, m.data = true, nil
				before[i].closed = true
			default:
				what = fmt.Sprintf("closeWrite(%d)", i)
				s.CloseWrite()
				m.wClosed = true
				before[i].closed = true
			}

			var want []int
			for i, m := range ms {
				b := before[i]
				readable := b.closed || (b.n == 0 && len(m.data) > 0)
				writable := b.closed || (b.n == m.capacity && len(m.data) < m.capacity)
				if readable {
					want, m.rWait = append(want, m.rWait...), nil
				}
				if writable {
					want, m.wWait = append(want, m.wWait...), nil
				}
				if (dataFired[i] > 0) != (readable || writable) {
					t.Fatalf("seed %d op %d %s: stream %d watcher fired %d times, edge=%v", seed, op, what, i, dataFired[i], readable || writable)
				}
				if (closeFired[i] > 0) != b.closed {
					t.Fatalf("seed %d op %d %s: stream %d close watcher fired %d times, closed=%v", seed, op, what, i, closeFired[i], b.closed)
				}
				if g, w := ss[i].ReadReady(), m.readReady(); g != w {
					t.Fatalf("seed %d op %d %s: stream %d read readiness %b, model %b", seed, op, what, i, g, w)
				}
				if g, w := ss[i].WriteReady(), m.writeReady(); g != w {
					t.Fatalf("seed %d op %d %s: stream %d write readiness %b, model %b", seed, op, what, i, g, w)
				}
			}
			sort.Ints(want)
			got := append([]int(nil), fired...)
			sort.Ints(got)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("seed %d op %d %s: waiters called %v, model %v", seed, op, what, got, want)
			}
		}
		// Whatever is still queued is exactly the model's remainder.
		for i, s := range ss {
			p := make([]byte, ms[i].capacity)
			gn, _, _ := s.TryRead(p, nil)
			if !bytes.Equal(p[:gn], ms[i].data) {
				t.Fatalf("seed %d: stream %d holds %v at the end, model %v", seed, i, p[:gn], ms[i].data)
			}
		}
	}
}

// TestMoveOpposingSplices: Move takes its two locks in creation order,
// not src-then-dst, so opposing moves cannot deadlock. First the order
// itself, observed directly: with the older stream's lock held from
// outside, both opposing Moves must queue on it holding nothing
// (src-then-dst has B→A sitting on b.mu here). Then the race: two
// goroutines moving A→B and B→A for 10k rounds each, with a rendezvous
// before every round so the pairs really start together, must finish
// and conserve every byte.
func TestMoveOpposingSplices(t *testing.T) {
	a, b := NewStream(64), NewStream(64)
	a.TryWrite(make([]byte, 40), nil)
	b.TryWrite(make([]byte, 40), nil)
	done := make(chan struct{}, 2)

	a.mu.Lock()
	for _, m := range [][2]*Stream{{b, a}, {a, b}} {
		go func(dst, src *Stream) {
			Move(dst, src, 1, nil)
			done <- struct{}{}
		}(m[0], m[1])
	}
	for end := time.Now().Add(50 * time.Millisecond); time.Now().Before(end); runtime.Gosched() {
		if !b.mu.TryLock() {
			a.mu.Unlock()
			t.Fatal("a Move holds the younger stream's lock while it waits for the older's")
		}
		b.mu.Unlock()
	}
	a.mu.Unlock()
	<-done
	<-done

	var round [2]atomic.Int64
	spin := func(me int, dst, src *Stream, max int) {
		for i := int64(1); i <= 10000; i++ {
			round[me].Store(i)
			for round[1-me].Load() < i {
				runtime.Gosched()
			}
			Move(dst, src, max, nil)
		}
		done <- struct{}{}
	}
	go spin(0, b, a, 7)
	go spin(1, a, b, 5)
	for i := 0; i < 2; i++ {
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatal("opposing Moves deadlocked")
		}
	}
	if n := a.rb.Len() + b.rb.Len(); n != 80 {
		t.Fatalf("%d bytes after 20k opposing moves, want 80", n)
	}
}

func TestMoveOntoItselfPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Move(s, s) did not panic")
		}
	}()
	s := NewStream(8)
	Move(s, s, 1, nil)
}
