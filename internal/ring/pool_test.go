package ring

import (
	"bytes"
	"io"
	"sync"
	"testing"
)

// poolEntries returns every buffer on p's free lists, failing the test
// if the lists hold one buffer twice or their sizes disagree with the
// byte count the pool keeps.
func poolEntries(t *testing.T, p *Pool) [][]byte {
	t.Helper()
	p.mu.Lock()
	defer p.mu.Unlock()
	var out [][]byte
	seen := map[*byte]bool{}
	held := 0
	for c, l := range p.free {
		for _, b := range l {
			if poolClass(len(b)) != c {
				t.Fatalf("%d-byte buffer on free list %d", len(b), c)
			}
			if seen[&b[0]] {
				t.Fatalf("%d-byte buffer on the free lists twice", len(b))
			}
			seen[&b[0]] = true
			held += len(b)
			out = append(out, b)
		}
	}
	if held != p.held {
		t.Fatalf("free lists hold %d bytes, pool counts %d", held, p.held)
	}
	if held > poolBudget {
		t.Fatalf("free lists hold %d bytes, budget is %d", held, poolBudget)
	}
	return out
}

// TestPoolStaleBytesUnobservable: a buffer comes back from the pool
// with its last stream's bytes still in it, and none of them can be
// read. A stream filled to its cap with a marker byte in 1 KiB writes
// hands back the marked buffer of every size it grew through; a new
// stream on the same pool must reuse them and still read, peek and
// move only what was written into it.
func TestPoolStaleBytesUnobservable(t *testing.T) {
	const marker = 0xEE
	forEachCap(t, func(t *testing.T, capacity int) {
		var p Pool
		old := p.NewStream(capacity)
		chunk := bytes.Repeat([]byte{marker}, minAlloc)
		for total := 0; total < capacity; total += len(chunk) {
			if _, err := old.Write(chunk); err != nil {
				t.Fatal(err)
			}
		}
		old.CloseRead() // finished with every byte unread
		if old.Alloc() != 0 {
			t.Fatalf("finished stream holds %d bytes", old.Alloc())
		}
		if len(poolEntries(t, &p)) == 0 {
			t.Fatal("nothing came back to the pool")
		}

		s := p.NewStream(capacity)
		if _, err := s.Write([]byte{1}); err != nil {
			t.Fatal(err)
		}
		if s.rb.buf[1] != marker {
			t.Fatal("the new stream's buffer was not recycled")
		}
		if run := s.rb.Peek(capacity); len(run) != 1 || run[0] != 1 {
			t.Fatalf("Peek lent %d bytes, want the 1 written", len(run))
		}
		if n, err := s.Read(make([]byte, 64<<10)); n != 1 || err != nil {
			t.Fatalf("Read = %d, %v; want the 1 byte written", n, err)
		}

		// Grow into a larger recycled buffer through Move and drain
		// every run: no marker byte may surface.
		src := NewStream(capacity)
		want := bytes.Repeat([]byte{7}, 5000)
		if _, err := src.Write(want); err != nil {
			t.Fatal(err)
		}
		if n, st := Move(s, src, len(want), nil); n != len(want) || st != Moved {
			t.Fatalf("Move = %d, %v", n, st)
		}
		s.mu.Lock()
		if bytes.IndexByte(s.rb.buf[len(want):], marker) < 0 {
			t.Fatal("Move did not grow into a recycled buffer")
		}
		var got []byte
		for run := s.rb.Peek(capacity); run != nil; run = s.rb.Peek(capacity) {
			got = append(got, run...)
			s.rb.Consume(len(run))
		}
		s.mu.Unlock()
		if !bytes.Equal(got, want) {
			t.Fatalf("peeked %d bytes, want %d sevens (marker byte surfaced: %v)", len(got), len(want), bytes.IndexByte(got, marker) >= 0)
		}
	})
}

// TestPoolBudget: however many streams finish at once, the free lists
// never hold more than the budget, and every buffer on them is there
// once.
func TestPoolBudget(t *testing.T) {
	var p Pool
	var streams []*Stream
	for i := 0; i < 3*poolBudget/(256<<10); i++ {
		s := p.NewStream(256 << 10)
		s.Write(make([]byte, 256<<10))
		streams = append(streams, s)
	}
	for i := 0; i < 300; i++ {
		s := p.NewStream(64 << 10)
		s.Write(make([]byte, 1+i*97%(64<<10)))
		streams = append(streams, s)
	}
	for _, s := range streams {
		s.CloseRead()
		poolEntries(t, &p)
	}
	if p.held == 0 || p.held > poolBudget {
		t.Fatalf("pool holds %d bytes after %d streams finished, budget %d", p.held, len(streams), poolBudget)
	}
	// Sizes no list keeps are left to the GC.
	for _, size := range []int{minAlloc / 2, 3 * minAlloc, 2 * poolBudget} {
		before := p.held
		p.put(make([]byte, size))
		if p.held != before {
			t.Fatalf("pool kept a %d-byte buffer", size)
		}
	}
}

// TestPoolReturnsOnce: a stream gives its buffer back once, whichever
// way it finishes and whatever closes follow.
func TestPoolReturnsOnce(t *testing.T) {
	cases := []struct {
		name   string
		finish func(t *testing.T, s *Stream)
	}{
		{"CloseRead then CloseWrite", func(t *testing.T, s *Stream) {
			s.CloseRead()
			s.CloseWrite()
		}},
		{"CloseWrite, drain, CloseRead", func(t *testing.T, s *Stream) {
			s.CloseWrite()
			if _, err := io.ReadAll(readerFunc(s.Read)); err != nil {
				t.Fatal(err)
			}
			s.CloseRead()
		}},
		{"Move drains a write-closed source", func(t *testing.T, s *Stream) {
			dst := NewStream(64 << 10) // pool-less: only s's buffer may come back
			s.CloseWrite()
			if n, st := Move(dst, s, 64<<10, nil); n != 3000 || st != Moved {
				t.Fatalf("Move = %d, %v", n, st)
			}
			if _, st := Move(dst, s, 64<<10, nil); st != SrcEOF {
				t.Fatalf("second Move = %v, want SrcEOF", st)
			}
			if s.Alloc() != 0 {
				t.Fatalf("source drained by Move holds %d bytes", s.Alloc())
			}
			s.CloseRead()
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var p Pool
			s := p.NewStream(64 << 10)
			s.Write(make([]byte, 3000))
			tc.finish(t, s)
			if s.Alloc() != 0 {
				t.Fatalf("finished stream holds %d bytes", s.Alloc())
			}
			if got := poolEntries(t, &p); len(got) != 1 || len(got[0]) != 4<<10 {
				t.Fatalf("pool holds %d buffers (%d bytes), want the one 4 KiB buffer", len(got), p.held)
			}
		})
	}
}

// TestPoolConcurrentStreams: eight goroutines open, fill, drain and
// close pooled streams on one pool while a ninth reads the byte count.
// The pool starts holding one buffer per goroutine; each takes one and
// gives it back per stream, so the count never passes the budget, no
// stream sees another's bytes, and at the end the pool holds exactly
// the buffers it started with. Pool.mu is the only thing making get and
// put safe here: without it -race reports, and a buffer popped twice
// shows as a stream reading another's bytes.
func TestPoolConcurrentStreams(t *testing.T) {
	const workers, rounds = 8, 300
	capOf := func(w int) int { return 4 << 10 << (w % 4) } // 4–32 KiB
	var p Pool
	var warm []*Stream
	for w := range workers {
		s := p.NewStream(capOf(w))
		s.Write(make([]byte, capOf(w)))
		warm = append(warm, s)
	}
	for _, s := range warm {
		s.CloseRead()
	}
	start := poolEntries(t, &p)
	if len(start) != workers {
		t.Fatalf("pool holds %d buffers after warm-up, want %d", len(start), workers)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	sampled := make(chan int)
	go func() {
		peak := 0
		for {
			p.mu.Lock()
			peak = max(peak, p.held)
			p.mu.Unlock()
			select {
			case <-stop:
				sampled <- peak
				return
			default:
			}
		}
	}()
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			n := capOf(w)
			got := make([]byte, n)
			for r := range rounds {
				want := bytes.Repeat([]byte{byte(w*rounds + r)}, n)
				s := p.NewStream(n)
				if m, err := s.Write(want); m != n || err != nil {
					t.Errorf("worker %d: Write = %d, %v", w, m, err)
					return
				}
				if m, err := io.ReadFull(readerFunc(s.Read), got); m != n || err != nil {
					t.Errorf("worker %d: Read = %d, %v", w, m, err)
					return
				}
				if !bytes.Equal(got, want) {
					t.Errorf("worker %d round %d: the stream read bytes it was not written (a buffer shared)", w, r)
					return
				}
				s.CloseWrite()
				s.CloseRead()
			}
		}()
	}
	wg.Wait()
	close(stop)
	if peak := <-sampled; peak > poolBudget {
		t.Errorf("pool held %d bytes, budget %d", peak, poolBudget)
	}
	end := poolEntries(t, &p)
	started := make(map[*byte]bool)
	for _, b := range start {
		started[&b[0]] = true
	}
	same := len(end) == len(start)
	for _, b := range end {
		same = same && started[&b[0]]
	}
	if !same {
		t.Errorf("pool holds %d buffers at the end, not the %d it started with", len(end), len(start))
	}
}
