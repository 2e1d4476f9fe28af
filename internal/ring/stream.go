package ring

import (
	"io"
	"sync"
	"sync/atomic"
)

// Ready is a readiness bitmask for a stream endpoint, the truth that
// poll/epoll answers are computed from. Bits are level-triggered: they
// describe current state, not edges, so a consumer that re-scans after
// a partial read sees ReadyIn again as long as data remains.
type Ready uint32

// Readiness bits.
const (
	// ReadyIn: a read would not block (buffered data, or EOF/shutdown
	// pending — EOF is readable, as in poll(2)).
	ReadyIn Ready = 1 << iota
	// ReadyOut: a write of at least one byte would not block (buffer
	// space, or a closed direction where the write fails immediately —
	// failing fast is "ready" in poll terms).
	ReadyOut
	// ReadyHup: the producing end closed; reads drain whatever is
	// buffered and then return EOF.
	ReadyHup
	// ReadyErr: the consuming end closed; writes fail with
	// ErrClosedPipe (EPIPE).
	ReadyErr
)

// WatchSet is the persistent readiness-subscription registry shared by
// streams and listeners: id-keyed callbacks that survive wakes until
// cancelled. The owner guards every method with its own lock; Snapshot
// results are invoked only after that lock is released (callbacks take
// foreign locks — an epoll set's, the scheduler's).
type WatchSet struct {
	m      map[int]func()
	nextID int
}

func (w *WatchSet) Add(fn func()) (id int) {
	if w.m == nil {
		w.m = make(map[int]func())
	}
	id = w.nextID
	w.nextID++
	w.m[id] = fn
	return id
}

func (w *WatchSet) Remove(id int) { delete(w.m, id) }

func (w *WatchSet) Snapshot() []func() {
	if len(w.m) == 0 {
		return nil
	}
	out := make([]func(), 0, len(w.m))
	for _, fn := range w.m {
		out = append(out, fn)
	}
	return out
}

// Stream is the one bounded in-memory byte queue of the data plane: a
// LibOS pipe is one Stream, a host connection is two. It has
// independent read-side and write-side shutdown and serves two waiting
// styles at once: goroutine-per-process callers (the baseline kernels,
// host-side clients) block on the condvar in Read/Write, while SIPs
// under the M:N scheduler use TryRead/TryWrite/Move, registering a
// one-shot wake callback instead of blocking a hart. Persistent
// watchers carry poll/epoll interest.
//
// Wakes are edge-gated — readers are woken by empty→nonempty, writers
// by full→space, everyone by a close — and no callback ever runs under
// a stream lock: each operation collects its wake list under s.mu and
// runs it after the lock drops, because callbacks take foreign locks
// (an epoll shard's, the scheduler's) whose holders query stream
// readiness. The only lock taken while holding a stream's is another
// stream's, by Move, in creation order. A woken waiter retries and
// re-registers if it lost the race, so a stale callback is only a
// spurious unpark.
//
// Storage is a fixed-capacity Ring: the cap is a hard memory bound. A
// slow (or stalled) reader backpressures its writer at exactly Cap
// queued bytes. The ring allocates its buffer lazily and releases it on
// a complete drain past a keep threshold, so 100k idle connections cost
// what they queue, not 2×Cap each.
type Stream struct {
	mu   sync.Mutex
	cond *sync.Cond
	rb   *Ring
	// id is the creation sequence number: Move locks the lower id first.
	id uint64
	// rClosed: the consuming end shut down (shutdown(RD) or close);
	// buffered data is discarded and writers fail with ErrClosedPipe.
	rClosed bool
	// wClosed: the producing end shut down (shutdown(WR) or close);
	// readers drain the buffer and then see EOF.
	wClosed bool
	// rWait/wWait are one-shot wake callbacks from parked readers and
	// writers; every relevant state change drains and invokes the whole
	// list (broadcast; retriers re-register if still blocked).
	rWait []func()
	wWait []func()
	// watch holds persistent readiness subscriptions; closeWatch holds
	// watchers interested only in this stream's shutdown edges (the
	// cross-direction half of a filtered subscription).
	watch      WatchSet
	closeWatch WatchSet
}

// streamSeq numbers streams process-wide; only the order is used.
var streamSeq atomic.Uint64

// NewStream returns an empty stream holding at most capacity bytes.
func NewStream(capacity int) *Stream {
	s := &Stream{rb: New(capacity), id: streamSeq.Add(1)}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// Alloc reports the bytes of ring buffer actually allocated.
func (s *Stream) Alloc() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rb.Alloc()
}

// ReadReady reports the consuming end's poll state (ReadyIn, ReadyHup).
func (s *Stream) ReadReady() Ready {
	s.mu.Lock()
	defer s.mu.Unlock()
	var r Ready
	if s.rb.Len() > 0 || s.wClosed || s.rClosed {
		r |= ReadyIn
	}
	if s.wClosed {
		r |= ReadyHup
	}
	return r
}

// WriteReady reports the producing end's poll state (ReadyOut,
// ReadyErr).
func (s *Stream) WriteReady() Ready {
	s.mu.Lock()
	defer s.mu.Unlock()
	var r Ready
	if s.rb.Free() > 0 || s.rClosed || s.wClosed {
		r |= ReadyOut
	}
	if s.rClosed {
		r |= ReadyErr
	}
	return r
}

// Subscribe registers a persistent callback, until cancelled. With data
// set it fires on every readiness edge (empty→nonempty, full→space, and
// every close); without, only on CloseRead/CloseWrite — shutdown edges
// are never filtered, because poll/epoll report ERR and HUP whatever
// mask was asked for. The callback must not call back into the stream.
func (s *Stream) Subscribe(data bool, fn func()) (cancel func()) {
	w := &s.closeWatch
	if data {
		w = &s.watch
	}
	s.mu.Lock()
	id := w.Add(fn)
	s.mu.Unlock()
	return func() {
		s.mu.Lock()
		w.Remove(id)
		s.mu.Unlock()
	}
}

// wakeReadersLocked drains the one-shot reader waiters; the caller runs
// the returned callbacks (one-shot and persistent) outside s.mu.
func (s *Stream) wakeReadersLocked() []func() {
	s.cond.Broadcast()
	ws := s.rWait
	s.rWait = nil
	return append(ws, s.watch.Snapshot()...)
}

func (s *Stream) wakeWritersLocked() []func() {
	s.cond.Broadcast()
	ws := s.wWait
	s.wWait = nil
	return append(ws, s.watch.Snapshot()...)
}

func runAll(fns []func()) {
	for _, f := range fns {
		f()
	}
}

// Read blocks until data, EOF, or a local shutdown of the read side.
func (s *Stream) Read(p []byte) (int, error) {
	s.mu.Lock()
	for s.rb.Len() == 0 && !s.wClosed && !s.rClosed {
		s.cond.Wait()
	}
	n, eof, _ := s.readLocked(p, nil)
	if eof {
		return 0, io.EOF
	}
	return n, nil
}

// TryRead is the non-blocking read for parking callers: it drains
// buffered data if any, reports eof when the direction is finished,
// and otherwise reports wouldBlock. With a non-nil wait it registers a
// one-shot waiter under the same critical section as the emptiness
// check, so no write can slip between them unseen; a nil wait is the
// pure O_NONBLOCK probe.
func (s *Stream) TryRead(p []byte, wait func()) (n int, eof, wouldBlock bool) {
	s.mu.Lock()
	return s.readLocked(p, wait)
}

// readLocked is the read critical section; it releases s.mu.
func (s *Stream) readLocked(p []byte, wait func()) (n int, eof, wouldBlock bool) {
	var wake []func()
	switch {
	case s.rClosed || (s.rb.Len() == 0 && s.wClosed):
		eof = true
	case s.rb.Len() == 0:
		wouldBlock = true
		if wait != nil {
			s.rWait = append(s.rWait, wait)
		}
	default:
		wasFull := s.rb.Free() == 0
		if n = s.rb.Read(p); wasFull && n > 0 {
			wake = s.wakeWritersLocked()
		}
	}
	s.mu.Unlock()
	runAll(wake)
	return n, eof, wouldBlock
}

// Write blocks while the ring is full, until all of p is queued or the
// stream is shut down (ErrClosedPipe).
func (s *Stream) Write(p []byte) (int, error) {
	total := 0
	for total < len(p) {
		s.mu.Lock()
		for s.rb.Free() == 0 && !s.rClosed && !s.wClosed {
			s.cond.Wait()
		}
		n, closed, _ := s.writeLocked(p[total:], nil)
		total += n
		if closed {
			return total, io.ErrClosedPipe
		}
	}
	return total, nil
}

// TryWrite queues what fits. closed reports a dead direction (EPIPE).
// If anything is left over it registers wait (when non-nil) and reports
// wouldBlock; the parked caller resumes from its recorded progress, so
// no byte is sent twice.
func (s *Stream) TryWrite(p []byte, wait func()) (n int, closed, wouldBlock bool) {
	s.mu.Lock()
	return s.writeLocked(p, wait)
}

// writeLocked is the write critical section; it releases s.mu.
func (s *Stream) writeLocked(p []byte, wait func()) (n int, closed, wouldBlock bool) {
	if s.rClosed || s.wClosed {
		s.mu.Unlock()
		return 0, true, false
	}
	var wake []func()
	wasEmpty := s.rb.Len() == 0
	if n = s.rb.Write(p); n > 0 && wasEmpty {
		wake = s.wakeReadersLocked()
	}
	if wouldBlock = n < len(p); wouldBlock && wait != nil {
		s.wWait = append(s.wWait, wait)
	}
	s.mu.Unlock()
	runAll(wake)
	return n, false, wouldBlock
}

// CloseRead is the consuming end's shutdown: pending data can never be
// delivered, so it is dropped, and both sides are woken (readers to see
// EOF, writers to fail with ErrClosedPipe).
func (s *Stream) CloseRead() {
	s.mu.Lock()
	s.rClosed = true
	s.rb.Consume(s.rb.Len())
	s.closeLocked()
}

// CloseWrite is the producing end's shutdown: buffered data stays
// readable; once drained, readers see EOF.
func (s *Stream) CloseWrite() {
	s.mu.Lock()
	s.wClosed = true
	s.closeLocked()
}

// closeLocked wakes everyone after a shutdown flag flipped, releasing
// s.mu before the callbacks run.
func (s *Stream) closeLocked() {
	wake := append(s.wakeReadersLocked(), s.wakeWritersLocked()...)
	wake = append(wake, s.closeWatch.Snapshot()...)
	s.mu.Unlock()
	runAll(wake)
}

// MoveStatus says how a Move ended.
type MoveStatus uint8

const (
	// Moved: n > 0 bytes went from src to dst.
	Moved MoveStatus = iota
	// SrcEOF: src is drained and will produce no more.
	SrcEOF
	// DstClosed: dst is shut down; a write to it is EPIPE.
	DstClosed
	// SrcEmpty: nothing to move yet; wait (if non-nil) fires when src
	// gains data or is closed.
	SrcEmpty
	// DstFull: no room yet; wait (if non-nil) fires when dst drains or
	// is closed.
	DstFull
)

// Move transfers up to max bytes from src's ring straight into dst's —
// no guest memory, no staging buffer: the splice primitive for every
// pair of stream ends. Both locks are held (lower id first, so two
// opposing Moves cannot deadlock) across the copy and the decision, so
// the outcome is one atomic observation of both streams: bytes moved,
// or the reason none could, with wait registered on the stream whose
// change would let a retry progress. Both wake lists run after both
// locks drop. src and dst must differ.
func Move(dst, src *Stream, max int, wait func()) (n int, st MoveStatus) {
	if dst == src {
		panic("ring: Move from a stream into itself")
	}
	first, second := src, dst
	if second.id < first.id {
		first, second = second, first
	}
	first.mu.Lock()
	second.mu.Lock()
	var wake []func()
	switch {
	case dst.rClosed || dst.wClosed:
		st = DstClosed
	case src.rClosed || (src.rb.Len() == 0 && src.wClosed):
		st = SrcEOF
	case src.rb.Len() == 0:
		st = SrcEmpty
		if wait != nil {
			src.rWait = append(src.rWait, wait)
		}
	case dst.rb.Free() == 0:
		st = DstFull
		if wait != nil {
			dst.wWait = append(dst.wWait, wait)
		}
	default:
		srcWasFull, dstWasEmpty := src.rb.Free() == 0, dst.rb.Len() == 0
		for n < max {
			run := src.rb.Peek(max - n)
			out := dst.rb.Reserve(len(run))
			if out == nil {
				break
			}
			k := copy(out, run)
			dst.rb.Commit(k)
			src.rb.Consume(k)
			n += k
		}
		if srcWasFull {
			wake = src.wakeWritersLocked()
		}
		if dstWasEmpty {
			wake = append(wake, dst.wakeReadersLocked()...)
		}
	}
	second.mu.Unlock()
	first.mu.Unlock()
	runAll(wake)
	return n, st
}
