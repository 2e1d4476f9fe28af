package libos

import (
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fs"
	"repro/internal/hostos"
	"repro/internal/ring"
	"repro/internal/sysdispatch"
	"repro/internal/timers"
)

// fileKind discriminates open file descriptions.
type fileKind uint8

const (
	kindNode     fileKind = iota // VFS node (regular file or device)
	kindPipe                     // one end of a pipe: rd or wr, never both
	kindSock                     // socket: rd and wr once connected, neither before
	kindListener                 // listening socket
	kindEpoll                    // epoll interest set (readiness multiplexer)
)

// OpenFile is an open file description, shared between fds (dup) and
// across spawn (a child inherits its parent's table, sharing offsets —
// the cheap fd inheritance of §6).
type OpenFile struct {
	mu     sync.Mutex
	refs   int
	kind   fileKind
	flags  fs.OpenFlag
	node   fs.Node
	offset int64
	// rd/wr are the byte streams the description reads and writes: a
	// pipe end holds one, a connected socket both (a hostos.Conn's).
	// Written under mu (connect), so read through streams().
	rd, wr *ring.Stream
	lis    *hostos.Listener
	ep     *epollSet
	// nonblock is the O_NONBLOCK status flag (fcntl F_SETFL). Like the
	// rest of the description it is shared across dup and spawn
	// inheritance.
	nonblock atomic.Bool

	// Idle reaping (accepted sockets under Config.IdleTimeout):
	// lastActive is the Elapsed time of the last data-plane I/O on the
	// LibOS's deadline queue, the clock the reap deadline fires on;
	// reap is that deadline, which closes the connection when it idles
	// out, and reapStop latches teardown so a fire racing the close
	// cannot re-arm. reapTimeout is written once before the fd is
	// installed (happens-before via the FD table) and read-only after.
	lastActive  atomic.Int64
	reap        *timers.Timer // guarded by mu
	reapStop    bool          // guarded by mu
	reapTimeout time.Duration
}

func newNodeFile(n fs.Node, flags fs.OpenFlag) *OpenFile {
	of := &OpenFile{refs: 1, kind: kindNode, node: n, flags: flags}
	if flags&fs.OAppend != 0 {
		of.offset = n.Size()
	}
	return of
}

// Ref takes an additional reference on the open file description (exported
// for the baseline kernels, which share this fd layer).
func (of *OpenFile) Ref() { of.ref() }

// Unref drops a reference, closing the underlying object at zero.
func (of *OpenFile) Unref() { of.unref() }

// NewDiscardFile returns a description that discards writes and reads EOF.
func NewDiscardFile() *OpenFile {
	return newNodeFile(&discardNode{}, fs.ORdWr)
}

type discardNode struct{}

func (discardNode) ReadAt([]byte, int64) (int, error)      { return 0, io.EOF }
func (discardNode) WriteAt(p []byte, _ int64) (int, error) { return len(p), nil }
func (discardNode) Size() int64                            { return 0 }
func (discardNode) Close() error                           { return nil }

func (of *OpenFile) ref() {
	of.mu.Lock()
	of.refs++
	of.mu.Unlock()
}

func (of *OpenFile) unref() {
	of.mu.Lock()
	of.refs--
	last := of.refs == 0
	of.mu.Unlock()
	if !last {
		return
	}
	switch of.kind {
	case kindNode:
		_ = of.node.Close()
	case kindPipe, kindSock:
		of.mu.Lock()
		of.reapStop = true
		reap := of.reap
		of.mu.Unlock()
		if reap != nil {
			cancelTimer(reap)
		}
		of.closeStreams()
	case kindListener:
		if of.lis != nil {
			of.lis.Close()
		}
	case kindEpoll:
		of.ep.close()
	}
}

// streams snapshots the description's two streams under of.mu (nil for
// a direction it does not have: a pipe's other end, an unconnected
// socket, anything that is not a stream).
func (of *OpenFile) streams() (rd, wr *ring.Stream) {
	of.mu.Lock()
	defer of.mu.Unlock()
	return of.rd, of.wr
}

// stream returns the stream the description reads, or writes when
// write is set. Without one a data call fails: sysdispatch.ErrNotConn
// on a socket never connected, sysdispatch.ErrBadFD on anything else (a
// pipe's other end, a listener, an epoll set, a node).
func (of *OpenFile) stream(write bool) (*ring.Stream, error) {
	s, wr := of.streams()
	if write {
		s = wr
	}
	switch {
	case s != nil:
		return s, nil
	case of.kind == kindSock:
		return nil, sysdispatch.ErrNotConn
	}
	return nil, sysdispatch.ErrBadFD
}

// closeStreams shuts down the directions the description holds: the
// peer drains what was written and then reads EOF, and writes fail
// EPIPE; undelivered inbound data is dropped.
func (of *OpenFile) closeStreams() {
	rd, wr := of.streams()
	if rd != nil {
		rd.CloseRead()
	}
	if wr != nil {
		wr.CloseWrite()
	}
}

// touch stamps the description as active (data-plane I/O happened) on
// q, the queue its reap deadline is armed on; the idle reaper compares
// this against its deadline before closing. Gated on reapTimeout so
// un-reaped sockets pay nothing.
func (of *OpenFile) touch(q *timers.Queue) {
	if of.reapTimeout > 0 {
		of.lastActive.Store(int64(q.Elapsed()))
	}
}

// armIdleReap starts the idle reaper for an accepted socket: one
// deadline per connection, re-armed lazily. The fired callback does NOT
// close an active connection — it measures the real idle span and
// pushes the deadline out by what remains, so a busy connection costs
// one re-arm per timeout period rather than one per I/O (the
// kernel-timer trick that makes keep-alive scale).
func (of *OpenFile) armIdleReap(q *timers.Queue, d time.Duration) {
	of.reapTimeout = d
	of.touch(q)
	of.mu.Lock()
	of.reap = armTimer(q, d, func() { of.reapCheck(q) })
	of.mu.Unlock()
}

// reapCheck runs when the reap deadline fires (outside the queue lock):
// close the connection if it has truly idled out, otherwise re-arm for
// the remaining window. The reapStop check and the re-arm share one
// of.mu critical section with unref's reapStop store, so a close either
// lands first and this neither re-arms nor reaps, or lands after and
// its cancel finds the re-armed timer queued — a dead description's
// timer is never left armed.
func (of *OpenFile) reapCheck(q *timers.Queue) {
	idle := q.Elapsed() - time.Duration(of.lastActive.Load())
	of.mu.Lock()
	stopped := of.reapStop
	if !stopped && idle < of.reapTimeout {
		resetTimer(of.reap, of.reapTimeout-idle)
	}
	of.mu.Unlock()
	if stopped || idle < of.reapTimeout {
		return
	}
	// Idled out: close both directions. The guest's next read sees
	// EOF/HUP and its write sees EPIPE; parked waiters are woken by the
	// close's readiness broadcast.
	of.closeStreams()
	atomic.AddUint64(&netStats.Reaps, 1)
}

// SetListenBacklog implements sysdispatch.Backlogger: listen(2) plumbs
// the guest's backlog argument through to the host listener (clamped by
// hostos.BacklogCap). A no-op on descriptions that are not listeners
// yet — the guest must bind first, as our listen handler runs after
// bind has converted the socket.
func (of *OpenFile) SetListenBacklog(n int) {
	of.mu.Lock()
	lis := of.lis
	kind := of.kind
	of.mu.Unlock()
	if kind == kindListener && lis != nil {
		lis.SetBacklog(n)
	}
}

// Readiness reports the description's current level-triggered poll
// state, mapped to the user-visible Poll* bits.
func (of *OpenFile) Readiness() uint32 {
	switch of.kind {
	case kindNode:
		// Regular files and devices never block.
		return PollIn | PollOut
	case kindPipe, kindSock:
		rd, wr := of.streams()
		if rd == nil && wr == nil {
			return PollNval // unconnected socket
		}
		var r ring.Ready
		if rd != nil {
			r |= rd.ReadReady()
		}
		if wr != nil {
			r |= wr.WriteReady()
		}
		return mapReady(r)
	case kindListener:
		return mapReady(of.lis.Readiness())
	case kindEpoll:
		// Nested epoll is not supported; report NVAL so a poll over an
		// epoll fd fails fast instead of parking unwakeably.
		return PollNval
	}
	return 0
}

// SubscribeReady registers a persistent callback fired whenever the
// description's readiness may have changed for the requested events,
// returning a cancel function. Streams subscribe per direction: an
// EPOLLIN-only watcher is not woken by the peer draining its send
// buffer (close edges are never filtered). ok=false reports a
// description that cannot be waited on (regular files, which are always
// ready, epoll sets — nesting is not supported — and unconnected
// sockets).
func (of *OpenFile) SubscribeReady(fn func(), events uint32) (cancel func(), ok bool) {
	switch of.kind {
	case kindPipe, kindSock:
		rd, wr := of.streams()
		read := events&(PollIn|PollHup) != 0
		write := events&(PollOut|PollErr) != 0
		if !read && !write {
			read, write = true, true
		}
		cancels := make([]func(), 0, 2)
		if rd != nil {
			cancels = append(cancels, rd.Subscribe(read, fn))
		}
		if wr != nil {
			cancels = append(cancels, wr.Subscribe(write, fn))
		}
		return func() {
			for _, c := range cancels {
				c()
			}
		}, len(cancels) > 0
	case kindListener:
		return of.lis.Subscribe(fn), true
	}
	return nil, false
}

// mapReady translates host-level readiness into the user ABI's bits.
func mapReady(r hostos.Ready) uint32 {
	var out uint32
	if r&hostos.ReadyIn != 0 {
		out |= PollIn
	}
	if r&hostos.ReadyOut != 0 {
		out |= PollOut
	}
	if r&hostos.ReadyHup != 0 {
		out |= PollHup
	}
	if r&hostos.ReadyErr != 0 {
		out |= PollErr
	}
	return out
}

// Read reads from the description, advancing the offset for seekable
// files and blocking for streams.
func (of *OpenFile) Read(p []byte) (int, error) {
	if of.kind == kindNode {
		of.mu.Lock()
		off := of.offset
		of.mu.Unlock()
		n, err := of.node.ReadAt(p, off)
		of.mu.Lock()
		of.offset = off + int64(n)
		of.mu.Unlock()
		if n == 0 && err == nil {
			return 0, io.EOF
		}
		return n, err
	}
	rd, err := of.stream(false)
	if err != nil {
		return 0, err
	}
	return rd.Read(p)
}

// Write writes to the description.
func (of *OpenFile) Write(p []byte) (int, error) {
	if of.kind == kindNode {
		of.mu.Lock()
		off := of.offset
		of.mu.Unlock()
		n, err := of.node.WriteAt(p, off)
		of.mu.Lock()
		of.offset = off + int64(n)
		of.mu.Unlock()
		return n, err
	}
	wr, err := of.stream(true)
	if err != nil {
		return 0, err
	}
	return wr.Write(p)
}

// Seek repositions a seekable description.
func (of *OpenFile) Seek(off int64, whence int) (int64, error) {
	if of.kind != kindNode {
		return 0, sysdispatch.ErrNotSeekable
	}
	of.mu.Lock()
	defer of.mu.Unlock()
	switch whence {
	case SeekSet:
		of.offset = off
	case SeekCur:
		of.offset += off
	case SeekEnd:
		of.offset = of.node.Size() + off
	default:
		return 0, fs.ErrInvalid
	}
	if of.offset < 0 {
		of.offset = 0
	}
	return of.offset, nil
}

// consoleFile opens /dev/console for a SIP's default stdio.
func (o *Occlum) consoleFile() *OpenFile {
	n, err := o.vfs.Open("/dev/console", fs.ORdWr)
	if err != nil {
		n, _ = o.vfs.Open("/dev/null", fs.ORdWr)
	}
	return newNodeFile(n, fs.ORdWr)
}

// NewPipe creates a pipe pair in the LibOS — the SIP-to-SIP IPC channel
// that is a plain in-enclave memory copy, no encryption involved
// (Table 1). Its ring buffer is allocated for it alone; a SIP's pipe2
// draws on its LibOS instance's pool instead (newPipe).
func NewPipe() (r, w *OpenFile) { return newPipe(nil) }

// newPipe is NewPipe with the ring buffer taken from, and given back to,
// bufs. The two ends are one allocation.
func newPipe(bufs *ring.Pool) (r, w *OpenFile) {
	s := bufs.NewStream(64 << 10)
	ends := &[2]OpenFile{{refs: 1, kind: kindPipe, rd: s}, {refs: 1, kind: kindPipe, wr: s}}
	return &ends[0], &ends[1]
}

// newConnFile wraps an established host connection as a socket
// description.
func newConnFile(conn *hostos.Conn) *OpenFile {
	of := &OpenFile{refs: 1, kind: kindSock}
	of.rd, of.wr = conn.Streams()
	return of
}

// OpenNodeFile wraps a VFS node for host-side stdio plumbing in tests and
// benches.
func OpenNodeFile(n fs.Node, flags fs.OpenFlag) *OpenFile { return newNodeFile(n, flags) }

// NewWriterFile builds an open file description that appends every write
// to w — host-side plumbing for capturing a SIP's stdout in tests,
// examples and benchmarks.
func NewWriterFile(w io.Writer) *OpenFile {
	return newNodeFile(&writerNode{w: w}, fs.OWrOnly)
}

type writerNode struct {
	mu sync.Mutex
	w  io.Writer
}

func (n *writerNode) ReadAt([]byte, int64) (int, error) { return 0, io.EOF }
func (n *writerNode) WriteAt(p []byte, _ int64) (int, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.w.Write(p)
}
func (n *writerNode) Size() int64  { return 0 }
func (n *writerNode) Close() error { return nil }

// NewSocketFile creates an unconnected socket description (shared with
// the baseline kernels).
func NewSocketFile() *OpenFile { return &OpenFile{refs: 1, kind: kindSock} }

// registerSockets installs socket, bind, listen and connect over the
// loopback host beneath the calling process (hostOf); each kernel adds
// its own accept. bind turns a socket into a listener, and connect gives
// it the two streams of a host connection. A connected socket cannot be
// bound (EINVAL, as on Linux): it keeps its streams for close to shut.
func registerSockets(t *sysdispatch.Table, hostOf func(sysdispatch.Kernel) *hostos.Host) {
	t.Register(SysSocket, func(_ sysdispatch.Kernel, c *sysdispatch.Call) sysdispatch.Result {
		c.Out[0] = NewSocketFile()
		return sysdispatch.Ok(0)
	})
	t.Register(SysBind, func(k sysdispatch.Kernel, c *sysdispatch.Call) sysdispatch.Result {
		of, ok := c.F[0].(*OpenFile)
		if !ok || of.kind != kindSock {
			return sysdispatch.Errno(EBADF)
		}
		if rd, wr := of.streams(); rd != nil || wr != nil {
			return sysdispatch.Errno(EINVAL)
		}
		lis, err := hostOf(k).Listen(uint16(c.A[1]))
		if err != nil {
			return sysdispatch.Err(err)
		}
		of.mu.Lock()
		of.kind, of.lis = kindListener, lis
		of.mu.Unlock()
		return sysdispatch.Ok(0)
	})
	t.Register(SysListen, sysdispatch.Listen)
	t.Register(SysConnect, func(k sysdispatch.Kernel, c *sysdispatch.Call) sysdispatch.Result {
		of, ok := c.F[0].(*OpenFile)
		if !ok || of.kind != kindSock {
			return sysdispatch.Errno(EBADF)
		}
		conn, err := hostOf(k).Dial(uint16(c.A[1]))
		if err != nil {
			return sysdispatch.Err(err)
		}
		of.mu.Lock()
		of.rd, of.wr = conn.Streams()
		of.mu.Unlock()
		return sysdispatch.Ok(0)
	})
}

// RegisterHostSockets installs the sockets of the baseline kernels
// (native Linux, EIP) over host: their processes own a goroutine, so
// accept blocks inside the handler where sysAccept parks.
func RegisterHostSockets(t *sysdispatch.Table, host *hostos.Host) {
	registerSockets(t, func(sysdispatch.Kernel) *hostos.Host { return host })
	t.Register(SysAccept, func(_ sysdispatch.Kernel, c *sysdispatch.Call) sysdispatch.Result {
		of, ok := c.F[0].(*OpenFile)
		if !ok || of.kind != kindListener {
			return sysdispatch.Errno(EBADF)
		}
		conn, err := of.lis.Accept()
		if err != nil {
			return sysdispatch.Err(err)
		}
		c.Out[0] = newConnFile(conn)
		return sysdispatch.Ok(0)
	})
}
