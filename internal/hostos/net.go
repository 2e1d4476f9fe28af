package hostos

import (
	"sync"

	"repro/internal/ring"
)

// Ready is the readiness bitmask of a connection or listener; the bits
// are the stream's (ring.Ready), level-triggered.
type Ready = ring.Ready

// Readiness bits.
const (
	ReadyIn  = ring.ReadyIn
	ReadyOut = ring.ReadyOut
	ReadyHup = ring.ReadyHup // the peer closed its write direction
	ReadyErr = ring.ReadyErr // the peer closed its read direction
)

// Conn is one end of an in-memory duplex byte stream, the host-delegated
// TCP connection of the paper's networking model (§6: network I/O is
// redirected to the host and is not secret by default): two
// ring.Streams, one per direction, each end reading the one its peer
// writes.
type Conn struct {
	rd *ring.Stream
	wr *ring.Stream
}

// Listener accepts loopback connections on a port.
type Listener struct {
	host *Host
	port uint16

	mu      sync.Mutex
	cond    *sync.Cond
	backlog []*Conn
	// waiters are one-shot wake callbacks registered by parked accepts
	// (the M:N scheduler's non-blocking path). Every arrival and the
	// close wake all of them — the woken tasks retry TryAccept and
	// re-register if they lose the race, so broadcast semantics are
	// correct, if occasionally a thundering herd.
	waiters []func()
	// watch holds persistent readiness subscriptions (epoll interest):
	// unlike waiters, these survive wakes and fire on every arrival and
	// on close, until cancelled.
	watch  ring.WatchSet
	closed bool
	// max bounds queued-but-unaccepted connections, like listen(2)'s
	// backlog: the guest's listen() argument, clamped to BacklogCap.
	max int
}

// Backlog bounds.
const (
	// BacklogDefault applies when the guest never called listen() with
	// an explicit backlog (the seed's old hard-coded limit).
	BacklogDefault = 128
	// BacklogCap is the host's ceiling on any requested backlog, like
	// net.core.somaxconn.
	BacklogCap = 4096
)

// Listen binds a loopback port with the default backlog.
func (h *Host) Listen(port uint16) (*Listener, error) {
	sh := h.listenerShardFor(port)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, taken := sh.m[port]; taken {
		return nil, ErrPortInUse
	}
	l := &Listener{host: h, port: port, max: BacklogDefault}
	l.cond = sync.NewCond(&l.mu)
	sh.m[port] = l
	return l, nil
}

// SetBacklog applies the guest's listen() backlog, clamped to
// [1, BacklogCap]. A dial that finds the queue at the limit fails with
// ErrConnRefused rather than silently waiting — the connector learns
// immediately, which is what the connect-storm tests assert.
func (l *Listener) SetBacklog(n int) {
	if n < 1 {
		n = 1
	}
	if n > BacklogCap {
		n = BacklogCap
	}
	l.mu.Lock()
	l.max = n
	l.mu.Unlock()
}

// Backlog reports the current backlog limit.
func (l *Listener) Backlog() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.max
}

// Dial connects to a listening loopback port.
func (h *Host) Dial(port uint16) (*Conn, error) {
	sh := h.listenerShardFor(port)
	sh.mu.Lock()
	l := sh.m[port]
	sh.mu.Unlock()
	if l == nil {
		return nil, ErrConnRefused
	}
	a, b := connPair()
	l.mu.Lock()
	if l.closed || len(l.backlog) >= l.max {
		l.mu.Unlock()
		return nil, ErrConnRefused
	}
	l.backlog = append(l.backlog, b)
	l.cond.Broadcast()
	waiters := l.waiters
	l.waiters = nil
	watch := l.watch.Snapshot()
	l.mu.Unlock()
	for _, w := range waiters {
		w()
	}
	for _, w := range watch {
		w()
	}
	return a, nil
}

// Accept returns the next queued connection, blocking until one arrives or
// the listener closes.
func (l *Listener) Accept() (*Conn, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for len(l.backlog) == 0 && !l.closed {
		l.cond.Wait()
	}
	if len(l.backlog) == 0 {
		return nil, ErrClosed
	}
	c := l.backlog[0]
	l.backlog = l.backlog[1:]
	return c, nil
}

// TryAccept is the non-blocking accept for parking callers: it returns a
// queued connection if one is ready; otherwise, when the listener is
// still open, it registers wait (called on the next arrival or close)
// and reports ok=false. Registration and the emptiness check happen
// under one lock, so a wake cannot slip between them. A nil wait makes
// the call purely non-blocking (the O_NONBLOCK accept path).
func (l *Listener) TryAccept(wait func()) (c *Conn, ok, closed bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.backlog) > 0 {
		c = l.backlog[0]
		l.backlog = l.backlog[1:]
		return c, true, false
	}
	if l.closed {
		return nil, false, true
	}
	if wait != nil {
		l.waiters = append(l.waiters, wait)
	}
	return nil, false, false
}

// Readiness reports the listener's poll state: ReadyIn when an accept
// would not block (pending connection, or closed — accept fails fast).
func (l *Listener) Readiness() Ready {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.backlog) > 0 {
		return ReadyIn
	}
	if l.closed {
		return ReadyIn | ReadyHup
	}
	return 0
}

// Subscribe registers a persistent readiness callback, fired on every
// connection arrival and on close. The callback must not call back into
// the listener; it is expected to only flip scheduler state (Unpark).
func (l *Listener) Subscribe(fn func()) (cancel func()) {
	l.mu.Lock()
	id := l.watch.Add(fn)
	l.mu.Unlock()
	return func() {
		l.mu.Lock()
		l.watch.Remove(id)
		l.mu.Unlock()
	}
}

// Close unbinds the port and wakes pending Accepts.
func (l *Listener) Close() {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	l.closed = true
	l.cond.Broadcast()
	waiters := l.waiters
	l.waiters = nil
	watch := l.watch.Snapshot()
	l.mu.Unlock()
	sh := l.host.listenerShardFor(l.port)
	sh.mu.Lock()
	delete(sh.m, l.port)
	sh.mu.Unlock()
	for _, w := range waiters {
		w()
	}
	for _, w := range watch {
		w()
	}
}

func connPair() (*Conn, *Conn) {
	s1, s2 := ring.NewStream(streamCap), ring.NewStream(streamCap)
	return &Conn{rd: s1, wr: s2}, &Conn{rd: s2, wr: s1}
}

// streamCap is the per-stream (so per-connection, per-direction) buffer
// cap, like a socket's SO_RCVBUF: the most the ring will ever allocate.
const streamCap = 256 << 10

// StreamCap reports the per-stream buffer cap, the hard bound on bytes
// a connection direction can hold for a slow reader.
func StreamCap() int { return streamCap }

// Streams returns the stream this end reads and the one it writes — the
// LibOS holds a connected socket as exactly these, as it holds a pipe
// end as one of them.
func (c *Conn) Streams() (rd, wr *ring.Stream) { return c.rd, c.wr }

// Read reads from the connection, blocking until data, EOF, or a local
// shutdown of the read direction.
func (c *Conn) Read(p []byte) (int, error) { return c.rd.Read(p) }

// Write writes to the connection, blocking while the peer's receive
// buffer is full.
func (c *Conn) Write(p []byte) (int, error) { return c.wr.Write(p) }

// TryRead is the non-blocking read for parking callers: it drains
// buffered data if any, reports eof when the direction is finished, and
// otherwise registers wait (nil for a pure O_NONBLOCK probe) and reports
// wouldBlock.
func (c *Conn) TryRead(p []byte, wait func()) (n int, eof, wouldBlock bool) {
	return c.rd.TryRead(p, wait)
}

// TryWrite appends as much of p as fits in the peer's receive buffer.
// closed reports a dead direction (EPIPE); wouldBlock reports that not
// all of p fit, with wait registered for the next drain (when non-nil).
func (c *Conn) TryWrite(p []byte, wait func()) (n int, closed, wouldBlock bool) {
	return c.wr.TryWrite(p, wait)
}

// CloseRead shuts down the read direction (shutdown(SHUT_RD)): buffered
// data is discarded, future local reads return EOF, and peer writes fail
// with ErrClosedPipe.
func (c *Conn) CloseRead() { c.rd.CloseRead() }

// CloseWrite shuts down the write direction (shutdown(SHUT_WR)): the
// peer drains whatever is buffered and then reads EOF; the peer's own
// write direction is untouched — the classic TCP half-close.
func (c *Conn) CloseWrite() { c.wr.CloseWrite() }

// Close closes both directions. Data already written remains readable by
// the peer (CloseWrite semantics on the outgoing stream); only the
// incoming stream's undelivered data is dropped.
func (c *Conn) Close() {
	c.rd.CloseRead()
	c.wr.CloseWrite()
}

// BufAlloc reports the bytes of ring buffer actually allocated for
// this end's two directions — the connection's real buffer footprint,
// which lazy rings keep near the high-water mark of queued data rather
// than at 2×StreamCap. Slowloris tests assert this stays bounded.
func (c *Conn) BufAlloc() int { return c.rd.Alloc() + c.wr.Alloc() }

// Readiness reports the connection's poll state.
func (c *Conn) Readiness() Ready { return c.rd.ReadReady() | c.wr.WriteReady() }

// Subscribe registers a persistent callback fired on every readiness
// edge in either direction (empty→nonempty for reads, full→space for
// writes, and every close). The callback must not call back into the
// connection.
func (c *Conn) Subscribe(fn func()) (cancel func()) {
	return c.SubscribeDir(true, true, fn)
}

// SubscribeDir is Subscribe restricted to the read and/or write
// direction — an epoll set interested only in EPOLLIN skips every
// write-side drain edge, which is most of the traffic on a busy server.
// Shutdown edges are never filtered: poll/epoll report ERR and HUP
// regardless of the requested mask, and those conditions live on the
// "other" stream (the peer's shutdown(RD) surfaces as ReadyErr on the
// write stream), so the unsubscribed direction still delivers its
// close edges — just not its data edges.
func (c *Conn) SubscribeDir(read, write bool, fn func()) (cancel func()) {
	cr, cw := c.rd.Subscribe(read, fn), c.wr.Subscribe(write, fn)
	return func() { cr(); cw() }
}
