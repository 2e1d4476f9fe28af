package libos

import (
	"errors"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fs"
	"repro/internal/hostos"
	"repro/internal/ring"
	"repro/internal/sysdispatch"
	"repro/internal/timerwheel"
)

// fileKind discriminates open file descriptions.
type fileKind uint8

const (
	kindNode fileKind = iota // VFS node (regular file or device)
	kindPipeR
	kindPipeW
	kindSock     // connected socket (host Conn)
	kindListener // listening socket
	kindEpoll    // epoll interest set (readiness multiplexer)
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
	pipe   *pipeBuf
	conn   *hostos.Conn
	lis    *hostos.Listener
	port   uint16
	ep     *epollSet
	// nonblock is the O_NONBLOCK status flag (fcntl F_SETFL). Like the
	// rest of the description it is shared across dup and spawn
	// inheritance.
	nonblock atomic.Bool

	// Idle reaping (accepted sockets under Config.IdleTimeout):
	// lastActive is the UnixNano of the last data-plane I/O, reap the
	// wheel deadline that closes the connection when it idles out, and
	// reapStop latches teardown so a fire racing the close cannot
	// re-arm. reapTimeout is written once before the fd is installed
	// (happens-before via the FD table) and read-only after.
	lastActive  atomic.Int64
	reap        *timerwheel.Timer // guarded by mu
	reapStop    atomic.Bool
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
	case kindPipeR:
		of.pipe.closeRead()
	case kindPipeW:
		of.pipe.closeWrite()
	case kindSock:
		of.reapStop.Store(true)
		of.mu.Lock()
		reap := of.reap
		of.mu.Unlock()
		if reap != nil {
			reap.Cancel()
		}
		if of.conn != nil {
			of.conn.Close()
		}
	case kindListener:
		if of.lis != nil {
			of.lis.Close()
		}
	case kindEpoll:
		of.ep.close()
	}
}

// touch stamps the description as active (data-plane I/O happened);
// the idle reaper compares this against its deadline before closing.
// Gated on reapTimeout so un-reaped sockets pay nothing.
func (of *OpenFile) touch() {
	if of.reapTimeout > 0 {
		of.lastActive.Store(time.Now().UnixNano())
	}
}

// armIdleReap starts the wheel-driven idle reaper for an accepted
// socket: one wheel entry per connection, re-armed lazily. The fired
// callback does NOT close an active connection — it measures the real
// idle span and pushes the deadline out by what remains, so a busy
// connection costs one O(1) re-arm per timeout period rather than one
// per I/O (the kernel-timer trick that makes keep-alive scale).
func (of *OpenFile) armIdleReap(w *timerwheel.Wheel, d time.Duration) {
	of.reapTimeout = d
	of.lastActive.Store(time.Now().UnixNano())
	of.mu.Lock()
	of.reap = w.Arm(d, of.reapCheck)
	of.mu.Unlock()
}

// reapCheck runs on wheel expiry (outside the wheel lock): close the
// connection if it has truly idled out, otherwise re-arm for the
// remaining window. reapStop closes the fire-vs-close race — a stale
// fire after unref must not re-arm a dead description's timer.
func (of *OpenFile) reapCheck() {
	if of.reapStop.Load() {
		return
	}
	idle := time.Since(time.Unix(0, of.lastActive.Load()))
	of.mu.Lock()
	t, conn := of.reap, of.conn
	of.mu.Unlock()
	if t == nil || conn == nil {
		return
	}
	if idle < of.reapTimeout {
		t.Reset(of.reapTimeout - idle)
		return
	}
	// Idled out: close both directions. The guest's next read sees
	// EOF/HUP and its write sees EPIPE; parked waiters are woken by the
	// close's readiness broadcast.
	conn.Close()
	netStats.reaps.Add(1)
}

// SetListenBacklog implements sysdispatch.Backlogger: listen(2) plumbs
// the guest's backlog argument through to the host listener (clamped by
// hostos.BacklogCap). A no-op on descriptions that are not listeners
// yet — the guest must bind first, as our listen handler runs after
// sysBind has converted the socket.
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
	case kindPipeR, kindPipeW:
		return of.pipe.readiness(of.kind == kindPipeR)
	case kindSock:
		of.mu.Lock()
		conn := of.conn
		of.mu.Unlock()
		if conn == nil {
			return PollNval
		}
		return mapReady(conn.Readiness())
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
// returning a cancel function. Sockets subscribe per direction: an
// EPOLLIN-only watcher is not woken by the peer draining its send
// buffer. ok=false reports a description that cannot be waited on
// (regular files, which are always ready, epoll sets — nesting is not
// supported — and unconnected sockets).
func (of *OpenFile) SubscribeReady(fn func(), events uint32) (cancel func(), ok bool) {
	switch of.kind {
	case kindPipeR, kindPipeW:
		return of.pipe.subscribe(fn), true
	case kindSock:
		of.mu.Lock()
		conn := of.conn
		of.mu.Unlock()
		if conn == nil {
			return nil, false
		}
		read := events&(PollIn|PollHup) != 0
		write := events&(PollOut|PollErr) != 0
		if !read && !write {
			read, write = true, true
		}
		return conn.SubscribeDir(read, write, fn), true
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
	switch of.kind {
	case kindNode:
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
	case kindPipeR:
		return of.pipe.read(p)
	case kindSock:
		return of.conn.Read(p)
	}
	return 0, errors.New("libos: fd not readable")
}

// Write writes to the description.
func (of *OpenFile) Write(p []byte) (int, error) {
	switch of.kind {
	case kindNode:
		of.mu.Lock()
		off := of.offset
		of.mu.Unlock()
		n, err := of.node.WriteAt(p, off)
		of.mu.Lock()
		of.offset = off + int64(n)
		of.mu.Unlock()
		return n, err
	case kindPipeW:
		return of.pipe.write(p)
	case kindSock:
		return of.conn.Write(p)
	}
	return 0, errors.New("libos: fd not writable")
}

// Seek repositions a seekable description.
func (of *OpenFile) Seek(off int64, whence int) (int64, error) {
	if of.kind != kindNode {
		return 0, errors.New("libos: not seekable")
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
		return 0, errors.New("libos: bad whence")
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
// (Table 1).
func NewPipe() (r, w *OpenFile) {
	pb := newPipeBuf(64 << 10)
	r = &OpenFile{refs: 1, kind: kindPipeR, pipe: pb}
	w = &OpenFile{refs: 1, kind: kindPipeW, pipe: pb}
	return
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

// BindHost turns a socket into a listener on the host loopback network.
func (of *OpenFile) BindHost(h *hostos.Host, port uint16) error {
	if of.kind != kindSock {
		return errors.New("libos: not a socket")
	}
	lis, err := h.Listen(port)
	if err != nil {
		return err
	}
	of.mu.Lock()
	of.kind = kindListener
	of.lis = lis
	of.port = port
	of.mu.Unlock()
	return nil
}

// AcceptHost blocks for an inbound connection and wraps it as a new
// description.
func (of *OpenFile) AcceptHost() (*OpenFile, error) {
	if of.kind != kindListener {
		return nil, errors.New("libos: not a listener")
	}
	conn, err := of.lis.Accept()
	if err != nil {
		return nil, err
	}
	return &OpenFile{refs: 1, kind: kindSock, conn: conn}, nil
}

// ConnectHost dials a host loopback port.
func (of *OpenFile) ConnectHost(h *hostos.Host, port uint16) error {
	if of.kind != kindSock {
		return errors.New("libos: not a socket")
	}
	conn, err := h.Dial(port)
	if err != nil {
		return err
	}
	of.mu.Lock()
	of.conn = conn
	of.mu.Unlock()
	return nil
}

// RegisterHostSockets installs socket/bind/listen/accept/connect for the
// baseline kernels (native Linux, EIP): their processes own a goroutine,
// so accept blocks inside the handler where sysAccept parks, and their
// socket descriptions are OpenFiles over the kernel's loopback host.
func RegisterHostSockets(t *sysdispatch.Table, hostOf func(sysdispatch.Kernel) *hostos.Host) {
	onSock := func(f func(k sysdispatch.Kernel, of *OpenFile, port uint16) int64) sysdispatch.Handler {
		return func(k sysdispatch.Kernel, a *[5]uint64) sysdispatch.Result {
			file, _ := k.FDs().Get(int(int64(a[0])))
			of, ok := file.(*OpenFile)
			if !ok {
				return sysdispatch.Errno(EBADF)
			}
			return sysdispatch.Ok(f(k, of, uint16(a[1])))
		}
	}
	t.Register(SysSocket, sysdispatch.SocketHandler(func(sysdispatch.Kernel) sysdispatch.File {
		return NewSocketFile()
	}))
	t.Register(SysBind, onSock(func(k sysdispatch.Kernel, of *OpenFile, port uint16) int64 {
		if of.BindHost(hostOf(k), port) != nil {
			return -EACCES
		}
		return 0
	}))
	t.Register(SysListen, sysdispatch.Listen)
	t.Register(SysAccept, onSock(func(k sysdispatch.Kernel, of *OpenFile, _ uint16) int64 {
		nf, err := of.AcceptHost()
		if err != nil {
			return -EIO
		}
		return int64(k.FDs().Install(nf))
	}))
	t.Register(SysConnect, onSock(func(k sysdispatch.Kernel, of *OpenFile, port uint16) int64 {
		if of.ConnectHost(hostOf(k), port) != nil {
			return -ECONNREFUSED
		}
		return 0
	}))
}

// pipeBuf is the shared ring behind a pipe. It serves two waiting
// styles at once: the baselines' goroutine-per-process kernels block on
// the condvar, while SIPs under the M:N scheduler use the try* calls,
// registering a one-shot wake callback instead of blocking a hart. Every
// state change broadcasts to both: woken parked SIPs retry and
// re-register if they lose the race, so the callback lists need no
// precise accounting (a stale callback is a spurious unpark, which the
// retry protocol absorbs).
//
// Storage is a fixed-capacity ring.Ring, and the ring's borrow API is
// surfaced through borrowOut/borrowIn: splice moves bytes between a
// pipe and a socket by peeking one ring and reserving in the other, and
// the vectored syscalls write guest loans straight into the ring — one
// copy, no staging buffer. Both run their callback under pb.mu, which
// extends the documented lock order: pb.mu → stream.mu (the callback
// calls Conn.TryRead/TryWrite) is taken by splice, and nothing anywhere
// takes stream.mu → pb.mu — streams know nothing about pipes.
type pipeBuf struct {
	mu       sync.Mutex
	cond     *sync.Cond
	rb       *ring.Ring
	rClosed  bool
	wClosed  bool
	rWaiters []func() // parked readers, woken by writes and closes
	wWaiters []func() // parked writers, woken by reads and closes
	// watch holds persistent readiness subscriptions (poll/epoll
	// interest); unlike the waiter lists they survive wakes and fire on
	// every state change until cancelled.
	watch   map[int]func()
	watchID int
}

func newPipeBuf(capacity int) *pipeBuf {
	pb := &pipeBuf{rb: ring.New(capacity)}
	pb.cond = sync.NewCond(&pb.mu)
	return pb
}

// wakeReaders/wakeWriters run under pb.mu; the callbacks only flip
// scheduler or epoll-set state (Unpark, epollSet.markReady), neither of
// which re-enters the pipe. The lock order pb.mu → ep.mu is safe for
// the same reason hostos documents for streams: epoll scans query
// readiness only AFTER dropping ep.mu (epollSet.popCandidates), so
// nothing ever takes pb.mu while holding ep.mu. Any future epoll-side
// change that calls into a pipe under ep.mu inverts this and deadlocks.
func (pb *pipeBuf) wakeReaders() {
	pb.cond.Broadcast()
	for _, w := range pb.rWaiters {
		w()
	}
	pb.rWaiters = nil
	for _, w := range pb.watch {
		w()
	}
}

func (pb *pipeBuf) wakeWriters() {
	pb.cond.Broadcast()
	for _, w := range pb.wWaiters {
		w()
	}
	pb.wWaiters = nil
	for _, w := range pb.watch {
		w()
	}
}

// subscribe registers a persistent readiness watcher.
func (pb *pipeBuf) subscribe(fn func()) (cancel func()) {
	pb.mu.Lock()
	if pb.watch == nil {
		pb.watch = make(map[int]func())
	}
	id := pb.watchID
	pb.watchID++
	pb.watch[id] = fn
	pb.mu.Unlock()
	return func() {
		pb.mu.Lock()
		delete(pb.watch, id)
		pb.mu.Unlock()
	}
}

// readiness computes the poll state of one pipe end.
func (pb *pipeBuf) readiness(readEnd bool) uint32 {
	pb.mu.Lock()
	defer pb.mu.Unlock()
	var r uint32
	if readEnd {
		if pb.rb.Len() > 0 || pb.wClosed {
			r |= PollIn
		}
		if pb.wClosed {
			r |= PollHup
		}
		return r
	}
	if pb.rb.Free() > 0 || pb.rClosed {
		r |= PollOut
	}
	if pb.rClosed {
		r |= PollErr
	}
	return r
}

func (pb *pipeBuf) read(p []byte) (int, error) {
	pb.mu.Lock()
	defer pb.mu.Unlock()
	for pb.rb.Len() == 0 && !pb.wClosed {
		pb.cond.Wait()
	}
	if pb.rb.Len() == 0 {
		return 0, io.EOF
	}
	n := pb.rb.Read(p)
	pb.wakeWriters()
	return n, nil
}

// tryRead is the non-blocking read for parking callers. When the pipe is
// empty and writers remain, it registers wait and reports parked; the
// emptiness check and the registration share one critical section, so no
// write can slip between them unseen.
func (pb *pipeBuf) tryRead(p []byte, wait func()) (n int, eof, parked bool) {
	pb.mu.Lock()
	defer pb.mu.Unlock()
	if pb.rb.Len() == 0 {
		if pb.wClosed {
			return 0, true, false
		}
		if wait != nil {
			pb.rWaiters = append(pb.rWaiters, wait)
		}
		return 0, false, true
	}
	n = pb.rb.Read(p)
	pb.wakeWriters()
	return n, false, false
}

func (pb *pipeBuf) write(p []byte) (int, error) {
	pb.mu.Lock()
	defer pb.mu.Unlock()
	total := 0
	for len(p) > 0 {
		for pb.rb.Free() == 0 && !pb.rClosed {
			pb.cond.Wait()
		}
		if pb.rClosed {
			return total, errors.New("libos: broken pipe")
		}
		n := pb.rb.Write(p)
		p = p[n:]
		total += n
		pb.wakeReaders()
	}
	return total, nil
}

// tryWrite copies as much of p as fits into the ring. If anything is
// left over it registers wait and the caller parks, resuming from its
// recorded progress — so a large write drains in chunks without ever
// blocking a hart or duplicating bytes.
func (pb *pipeBuf) tryWrite(p []byte, wait func()) (n int, closed bool) {
	pb.mu.Lock()
	defer pb.mu.Unlock()
	if pb.rClosed {
		return 0, true
	}
	n = pb.rb.Write(p)
	if n > 0 {
		pb.wakeReaders()
	}
	if n < len(p) && wait != nil {
		pb.wWaiters = append(pb.wWaiters, wait)
	}
	return n, false
}

// borrowOut lends the pipe's queued bytes to sink without copying them
// out: sink is called (under pb.mu) with successive borrowed runs from
// the ring and returns how many bytes it took; taken bytes are
// consumed. It stops when the ring drains, sink stalls (takes less
// than a full run), or max bytes have moved. When the pipe is empty it
// reports eof (write end closed) or registers wait and reports parked
// (nil wait: pure probe, the O_NONBLOCK path). This is the pipe→socket
// splice primitive: sink feeds a Conn's ring, so no guest memory and no
// staging buffer ever sees the bytes.
func (pb *pipeBuf) borrowOut(max int, sink func([]byte) int, wait func()) (n int, eof, parked bool) {
	pb.mu.Lock()
	defer pb.mu.Unlock()
	if pb.rb.Len() == 0 {
		if pb.wClosed {
			return 0, true, false
		}
		if wait != nil {
			pb.rWaiters = append(pb.rWaiters, wait)
		}
		return 0, false, true
	}
	for n < max {
		run := pb.rb.Peek(max - n)
		if run == nil {
			break
		}
		took := sink(run)
		pb.rb.Consume(took)
		n += took
		if took < len(run) {
			break
		}
	}
	if n > 0 {
		pb.wakeWriters()
	}
	return n, false, false
}

// borrowIn lends the pipe's free space to source without staging:
// source is called (under pb.mu) with successive reserved runs and
// returns how many bytes it produced; produced bytes are committed. It
// stops when the ring fills, source stalls, or max bytes have moved.
// When the ring is full it registers wait and reports parked (nil
// wait: pure probe). closed reports a broken pipe (read end gone) —
// checked first, like tryWrite. This is both the socket→pipe splice
// primitive (source drains a Conn's ring) and the writev-to-pipe path
// (source copies from a guest loan — the one permitted copy).
func (pb *pipeBuf) borrowIn(max int, source func([]byte) int, wait func()) (n int, closed, parked bool) {
	pb.mu.Lock()
	defer pb.mu.Unlock()
	if pb.rClosed {
		return 0, true, false
	}
	if pb.rb.Free() == 0 {
		if wait != nil {
			pb.wWaiters = append(pb.wWaiters, wait)
		}
		return 0, false, true
	}
	for n < max {
		run := pb.rb.Reserve(max - n)
		if run == nil {
			break
		}
		got := source(run)
		pb.rb.Commit(got)
		n += got
		if got < len(run) {
			break
		}
	}
	if n > 0 {
		pb.wakeReaders()
	}
	return n, false, false
}

func (pb *pipeBuf) closeRead() {
	pb.mu.Lock()
	pb.rClosed = true
	pb.wakeReaders()
	pb.wakeWriters()
	pb.mu.Unlock()
}

func (pb *pipeBuf) closeWrite() {
	pb.mu.Lock()
	pb.wClosed = true
	pb.wakeReaders()
	pb.wakeWriters()
	pb.mu.Unlock()
}
