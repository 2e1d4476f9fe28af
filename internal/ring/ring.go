// Package ring provides the bounded byte queue of the zero-copy data
// plane: Ring, the fixed-capacity storage, and Stream (stream.go), the
// one synchronized owner of a Ring — a LibOS pipe is one Stream, a host
// connection is two.
//
// The ring's native API is lending, not copying: Peek borrows the next
// contiguous run of readable bytes and Consume retires them; Reserve
// borrows a contiguous run of free space and Commit publishes it. The
// convenience Read/Write wrappers are built from those four. A borrowed
// run stays valid until the corresponding Consume/Commit — and, for
// Peek runs, until any Reserve/Write/Commit that could grow or recycle
// the space; retire a run before producing into the same ring.
//
// Capacity is a promise, not an allocation. The backing buffer is
// allocated lazily on first Reserve, sized to the next power of two of
// the demand (min one chunk), and doubles as demand grows, never past
// the configured capacity. When the ring drains completely a buffer
// that grew past the keep threshold is released. A server holding 100k
// mostly-idle connections therefore pays for the bytes actually queued,
// not for 2×256 KiB of pre-provisioned stream buffer per connection.
//
// A Ring is not synchronized; its owner (Stream) guards it with its own
// mutex and holds that lock across a whole borrow–use–retire sequence.
package ring

const (
	// minAlloc is the smallest backing buffer a ring allocates (unless
	// its capacity is smaller still).
	minAlloc = 1 << 10
	// shrinkKeep is the largest backing buffer kept across a complete
	// drain; bigger buffers are released so a burst does not pin its
	// high-water mark for the life of an idle connection.
	shrinkKeep = 64 << 10
)

// Ring is a fixed-capacity FIFO byte queue.
type Ring struct {
	buf []byte
	max int // configured capacity; len(buf) grows toward it lazily
	r   int // index of the oldest unread byte
	n   int // bytes currently queued
}

// New returns an empty ring holding at most capacity bytes. No buffer
// is allocated until the first write.
func New(capacity int) *Ring {
	if capacity <= 0 {
		panic("ring: capacity must be positive")
	}
	return &Ring{max: capacity}
}

// Cap returns the configured capacity.
func (g *Ring) Cap() int { return g.max }

// Len returns the number of queued bytes.
func (g *Ring) Len() int { return g.n }

// Free returns the remaining space against the configured capacity.
func (g *Ring) Free() int { return g.max - g.n }

// Alloc returns the size of the backing buffer currently allocated —
// the ring's real memory footprint, which lazy growth keeps at the
// smallest power-of-two chunk covering the high-water mark since the
// last complete drain.
func (g *Ring) Alloc() int { return len(g.buf) }

// grow ensures the backing buffer holds at least need bytes (clamped
// to capacity), linearizing queued bytes into the new buffer.
func (g *Ring) grow(need int) {
	if need > g.max {
		need = g.max
	}
	if need <= len(g.buf) {
		return
	}
	size := minAlloc
	if size > g.max {
		size = g.max
	}
	for size < need {
		size <<= 1
	}
	if size > g.max {
		size = g.max
	}
	nb := make([]byte, size)
	if g.n > 0 {
		first := len(g.buf) - g.r
		if first > g.n {
			first = g.n
		}
		copy(nb, g.buf[g.r:g.r+first])
		copy(nb[first:], g.buf[:g.n-first])
	}
	g.buf, g.r = nb, 0
}

// Peek borrows the next contiguous run of readable bytes, at most max
// long. The run aliases ring storage: it is valid until Consume (or
// any Reserve/Write/Commit that could grow or recycle the space —
// retire it first). A wrapped ring may hold more readable bytes than
// one run; callers drain runs in a loop. Returns nil when empty or
// max <= 0.
func (g *Ring) Peek(max int) []byte {
	if max > g.n {
		max = g.n
	}
	if max <= 0 {
		return nil
	}
	run := len(g.buf) - g.r
	if run > max {
		run = max
	}
	return g.buf[g.r : g.r+run : g.r+run]
}

// Consume retires k bytes previously observed via Peek. k must not
// exceed Len. Draining the ring completely releases a backing buffer
// that grew past the keep threshold.
func (g *Ring) Consume(k int) {
	if k < 0 || k > g.n {
		panic("ring: consume beyond queued bytes")
	}
	g.r += k
	if g.r >= len(g.buf) {
		g.r -= len(g.buf)
	}
	g.n -= k
	if g.n == 0 {
		g.r = 0
		if len(g.buf) > shrinkKeep {
			g.buf = nil
		}
	}
}

// Reserve borrows the next contiguous run of free space, at most max
// long, growing the backing buffer if the configured capacity allows.
// The caller fills a prefix and publishes it with Commit; until then
// readers cannot observe the bytes. Growth reallocates, so any
// outstanding Peek run must be retired before calling Reserve. Like
// Peek, a wrapped ring may have more free space than one run. Returns
// nil when full or max <= 0.
func (g *Ring) Reserve(max int) []byte {
	free := g.max - g.n
	if max > free {
		max = free
	}
	if max <= 0 {
		return nil
	}
	if g.n+max > len(g.buf) {
		g.grow(g.n + max)
	}
	w := g.r + g.n
	if w >= len(g.buf) {
		w -= len(g.buf)
	}
	run := len(g.buf) - w
	if run > max {
		run = max
	}
	return g.buf[w : w+run : w+run]
}

// Commit publishes k bytes written into the span returned by Reserve.
// k must not exceed the free space of the allocated buffer.
func (g *Ring) Commit(k int) {
	if k < 0 || k > len(g.buf)-g.n {
		panic("ring: commit beyond reserved space")
	}
	g.n += k
}

// Read copies queued bytes into p, consuming them, and returns the
// count (0 when empty).
func (g *Ring) Read(p []byte) int {
	total := 0
	for len(p) > 0 {
		run := g.Peek(len(p))
		if run == nil {
			break
		}
		k := copy(p, run)
		g.Consume(k)
		p = p[k:]
		total += k
	}
	return total
}

// Write copies as much of p as fits, and returns the count.
func (g *Ring) Write(p []byte) int {
	total := 0
	for len(p) > 0 {
		run := g.Reserve(len(p))
		if run == nil {
			break
		}
		k := copy(run, p)
		g.Commit(k)
		p = p[k:]
		total += k
	}
	return total
}
