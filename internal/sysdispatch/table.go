package sysdispatch

import (
	"encoding/binary"
	"io"
	"math/bits"
	"sync"
	"time"

	"repro/internal/isa"
)

// Result is the outcome of one syscall dispatch.
type Result struct {
	// Ret is the value for R0 (negative errno on failure).
	Ret int64
	// Exited: the process tore itself down; nothing is written back.
	Exited bool
	// Parked: the calling task registered a waiter and must be parked;
	// the kernel re-dispatches the same syscall when it is unparked.
	// Only kernels whose tasks are resumable coroutines (the LibOS
	// under the M:N scheduler) ever return this; goroutine-per-process
	// kernels block inside the handler instead.
	Parked bool
	// NoWriteback: the handler managed PC/R0 itself (sigreturn restores
	// a full pre-signal context); skip the normal return path.
	NoWriteback bool
	// Yielded: the process asked to give up its quantum (sched_yield);
	// write back normally, then end the scheduling quantum.
	Yielded bool
}

// Ok returns a plain successful result.
func Ok(v int64) Result { return Result{Ret: v} }

// Errno returns a failed result carrying -e.
func Errno(e int64) Result { return Result{Ret: -e} }

// ParkedResult is returned by a handler that parked the calling task.
var ParkedResult = Result{Parked: true}

// Kernel is what a handler may assume about the calling process,
// implemented by each simulated kernel's process type. User-memory
// access is validated by the implementation (domain bounds for SIPs,
// page permissions for the native baseline).
type Kernel interface {
	// ReadUser returns the n bytes of user memory at addr. The slice
	// may be the process's memory itself, not a copy: it is valid for
	// the current syscall, and a handler copies what it keeps.
	ReadUser(addr, n uint64) ([]byte, error)
	// WriteUser copies b into user memory at addr.
	WriteUser(addr uint64, b []byte) error
	// WriteU64 stores v little-endian at addr. It is WriteUser of 8
	// bytes, staged where a call through this interface cannot make
	// them escape to the heap.
	WriteU64(addr, v uint64) error
	// UserOK reports whether ReadUser, or WriteUser when write is set,
	// of the n bytes at addr would succeed: the gate's check of a
	// pointer argument.
	UserOK(addr, n uint64, write bool) bool
	// FDs returns the process's file-descriptor table.
	FDs() *FDTable
	// PID and PPID identify the process.
	PID() int
	PPID() int
	// Now reads the clock of the host beneath the process.
	Now() time.Time
}

// Call is one syscall as the gate decoded it by its number's Spec. The
// kernel fills A, the gate fills F and Path before the handler runs,
// and a handler that makes an FdOut or FdPairOut result leaves its
// files in Out.
type Call struct {
	A    [5]uint64 // the argument registers R1..R5
	F    [2]File   // each Fd or FdClose argument's file, in order
	Path [2]string // each Path argument, in order
	Out  [2]File
}

// Handler executes one decoded syscall for the calling process.
type Handler func(k Kernel, c *Call) Result

// Table maps syscall numbers to handlers. Build one per kernel type at
// init (the LibOS) or per kernel instance (internal/baseline) and treat
// it as immutable afterwards.
type Table struct {
	h [SysMax]Handler
	// work is, per number, what its spec leaves the gate to do: bit i
	// for an argument i to resolve or check, bit 5 for a result fd.
	work [SysMax]uint8
}

// NewTable returns an empty table (every slot answers -ENOSYS).
func NewTable() *Table { return &Table{} }

// Register installs h for syscall number no, panicking on a number
// Specs does not describe or on double registration — both are build
// bugs, not runtime conditions.
func (t *Table) Register(no int, h Handler) {
	if no < 0 || no >= SysMax || Specs[no].Name == "" {
		panic("sysdispatch: syscall number has no spec")
	}
	if t.h[no] != nil {
		panic("sysdispatch: double registration")
	}
	t.h[no] = h
	for i, kd := range Specs[no].Args {
		if kd.Class != Int && kd.Class != Buf && kd.Class != Iov {
			t.work[no] |= 1 << i
		}
	}
	if Specs[no].Ret.Class == FdOut {
		t.work[no] |= 1 << 5
	}
}

// Has reports whether a handler is registered for no.
func (t *Table) Has(no int) bool { return no >= 0 && no < SysMax && t.h[no] != nil }

// Dispatch is the syscall gate. An unregistered number fails with
// -ENOSYS, and one whose spec leaves the gate nothing to do goes
// straight to its handler. Otherwise, before the handler runs, the gate
// resolves c's arguments by the number's Spec: it looks each Fd up once
// (EBADF), reads each Path once and range-checks each PtrIn, PtrOut and
// FdPairOut span (EFAULT), so a call that fails there has done nothing.
// After a handler succeeds it installs the FdOut and FdPairOut files,
// whose out pointer has already passed; when the table is full it drops
// them (and a pair's first end) and fails with EMFILE instead.
func (t *Table) Dispatch(k Kernel, no uint64, c *Call) Result {
	if no >= SysMax || t.h[no] == nil {
		return Errno(ENOSYS)
	}
	work := t.work[no]
	if work == 0 {
		return t.h[no](k, c)
	}
	s := &Specs[no]
	r := Errno(decode(k, s, work&31, c))
	if r.Ret == 0 {
		r = t.h[no](k, c)
	}
	if r.Exited {
		return r // c may be the next process's already: touch nothing
	}
	if !r.Parked && r.Ret >= 0 {
		switch fds := k.FDs(); {
		case s.Ret.Class == FdOut:
			if r.Ret = int64(fds.Install(c.Out[0])); r.Ret < 0 {
				c.Out[0].Unref()
				r = Errno(EMFILE)
			}
		case s.Args[0].Class == FdPairOut:
			rfd := fds.Install(c.Out[0])
			wfd := -1
			if rfd >= 0 {
				wfd = fds.Install(c.Out[1])
			}
			if wfd < 0 {
				if rfd >= 0 {
					fds.Remove(rfd)
				}
				c.Out[0].Unref()
				c.Out[1].Unref()
				r = Errno(EMFILE)
				break
			}
			// The span passed decode, so both words land.
			_ = k.WriteU64(c.A[0], uint64(rfd))
			_ = k.WriteU64(c.A[0]+8, uint64(wfd))
		}
	}
	c.F[0], c.F[1], c.Path[0], c.Path[1], c.Out[0], c.Out[1] = nil, nil, "", "", nil, nil
	return r
}

// decode resolves the arguments of c that args marks by s, returning
// the errno of the first that fails, or 0.
func decode(k Kernel, s *Spec, args uint8, c *Call) int64 {
	nf, np := 0, 0
	for ; args != 0; args &= args - 1 {
		i := bits.TrailingZeros8(args)
		kd, v := &s.Args[i], c.A[i]
		switch kd.Class {
		case Fd, FdClose:
			ok := false
			if kd.Class == Fd {
				c.F[nf], ok = k.FDs().Get(int(int64(v)))
			} else {
				c.F[nf], ok = k.FDs().Remove(int(int64(v)))
			}
			if !ok {
				return EBADF
			}
			nf++
		case Path:
			n := c.A[kd.N-1]
			if n > MaxUserBuf {
				return EFAULT
			}
			b, err := k.ReadUser(v, n)
			if err != nil {
				return EFAULT
			}
			c.Path[np] = string(b)
			np++
		case PtrIn, PtrOut, FdPairOut:
			if kd.Null && v == 0 {
				continue
			}
			n := uint64(1)
			if kd.N > 0 {
				n = c.A[kd.N-1]
				if kd.Max > 0 {
					n = min(n, uint64(kd.Max))
				}
			}
			if n > MaxUserBuf/uint64(kd.Size) {
				return EFAULT
			}
			if n *= uint64(kd.Size); n > 0 && !k.UserOK(v, n, kd.Class != PtrIn) {
				return EFAULT
			}
		}
	}
	return 0
}

// Argv is a spawn call's argv: the NUL-separated block of R4's length
// at R3, which passed the gate.
func Argv(k Kernel, c *Call) []string {
	if c.A[3] == 0 {
		return nil // R3 may point anywhere
	}
	block, _ := k.ReadUser(c.A[2], c.A[3])
	var argv []string
	start := 0
	for i, b := range block {
		if b == 0 {
			argv = append(argv, string(block[start:i]))
			start = i + 1
		}
	}
	return argv
}

// Bump is mmap's allocation from a bump heap [next, end): the address
// of length bytes rounded up to whole pages, and the heap pointer past
// them. ok is false when they do not fit; the caller moves its pointer
// to after only once the mapping has succeeded.
func Bump(next, end, length uint64) (addr, after uint64, ok bool) {
	if length > end-next {
		return 0, 0, false
	}
	after = next + (length+isa.PageSize-1)&^(isa.PageSize-1)
	return next, after, after <= end
}

// --- Shared handlers -----------------------------------------------------

// ExitHandler builds the exit handler around the kernel's teardown
// primitive.
func ExitHandler(exit func(k Kernel, status int)) Handler {
	return func(k Kernel, c *Call) Result {
		exit(k, int(int64(c.A[0]))&0xFF)
		return Result{Exited: true}
	}
}

// CloseFD is the shared close(2): the gate took the fd out of the
// table, and the handler drops its reference.
func CloseFD(k Kernel, c *Call) Result {
	c.F[0].Unref()
	return Ok(0)
}

// Dup2FD is the shared dup2(2): newfd refers to oldfd's description,
// and newfd's old description loses a reference. A newfd outside
// [0, MaxFD) is EBADF, as on Linux, and moves no reference.
func Dup2FD(k Kernel, c *Call) Result {
	newfd := int64(c.A[1])
	if newfd < 0 || newfd >= MaxFD {
		return Errno(EBADF)
	}
	if newfd != int64(c.A[0]) {
		c.F[0].Ref()
		k.FDs().Set(int(newfd), c.F[0])
	}
	return Ok(newfd)
}

// Getpid is the shared getpid(2).
func Getpid(k Kernel, c *Call) Result { return Ok(int64(k.PID())) }

// Getppid is the shared getppid(2).
func Getppid(k Kernel, c *Call) Result { return Ok(int64(k.PPID())) }

// Clock is the shared clock_gettime(2): the calling kernel's host clock,
// as in the paper, where time is delegated to the untrusted host.
func Clock(k Kernel, c *Call) Result { return Ok(k.Now().UnixNano()) }

// Munmap is the shared munmap(2): every kernel uses a bump allocator, so
// unmapping is a no-op.
func Munmap(k Kernel, c *Call) Result { return Ok(0) }

// Backlogger is implemented by socket files whose bound host listener
// can take listen(2)'s backlog argument.
type Backlogger interface {
	SetListenBacklog(n int)
}

// Listen is the shared listen(2): binding already created the host
// listener, so the handler's job is plumbing the guest's backlog
// through to it. A backlog ≤ 0 keeps the host default (and old guests
// that never set the register get the seed behavior); the host clamps
// the rest to its cap.
func Listen(k Kernel, c *Call) Result {
	if bl, ok := c.F[0].(Backlogger); ok {
		if n := int(int64(c.A[1])); n > 0 {
			bl.SetListenBacklog(n)
		}
	}
	return Ok(0)
}

// Lseek is the shared lseek(2) over the fd table.
func Lseek(k Kernel, c *Call) Result {
	off, err := c.F[0].Seek(int64(c.A[1]), int(int64(c.A[2])))
	if err != nil {
		return Err(err)
	}
	return Ok(off)
}

// Iovec is one {base, len} span of user memory. A scalar read or write
// is the one-span case of the vectored transfer, in every kernel.
type Iovec struct{ Base, Len uint64 }

// ReadIovec decodes an iovec array (IovEntrySize-byte {base, len}
// little-endian entries) from user memory into the caller's dst,
// enforcing IovMax on the count and MaxUserBuf on each span and on the
// summed length. Each entry is read from user memory once and the
// checks run on the decoded copy. The spans themselves are validated
// lazily when dereferenced, giving the Linux partial-progress semantics
// for a fault in the middle of the array.
func ReadIovec(k Kernel, ptr, cnt uint64, dst *[IovMax]Iovec) ([]Iovec, int64) {
	if cnt > IovMax {
		return nil, -EINVAL
	}
	if cnt == 0 {
		return nil, 0
	}
	raw, err := k.ReadUser(ptr, cnt*IovEntrySize)
	if err != nil {
		return nil, -EFAULT
	}
	iov := dst[:cnt]
	var total uint64
	for i := range iov {
		ent := raw[i*IovEntrySize:]
		iov[i] = Iovec{Base: binary.LittleEndian.Uint64(ent), Len: binary.LittleEndian.Uint64(ent[8:])}
		total += iov[i].Len
		if iov[i].Len > MaxUserBuf || total > MaxUserBuf {
			return nil, -EINVAL
		}
	}
	return iov, 0
}

// BlockingRead, BlockingWrite, BlockingReadv and BlockingWritev are the
// shared read(2)/recv(2), write(2)/send(2), readv(2) and writev(2) for
// kernels whose processes own a goroutine and may block inside the
// handler (parking kernels register their own). All four run the same
// two span loops; the scalar calls pass their buffer as the only span.
func BlockingRead(k Kernel, c *Call) Result   { return blocking(k, c, false, false) }
func BlockingWrite(k Kernel, c *Call) Result  { return blocking(k, c, false, true) }
func BlockingReadv(k Kernel, c *Call) Result  { return blocking(k, c, true, false) }
func BlockingWritev(k Kernel, c *Call) Result { return blocking(k, c, true, true) }

func blocking(k Kernel, c *Call, vectored, write bool) Result {
	// The loops are called directly, not through a func value, so the
	// scalar call's one span and the iovec scratch stay on the stack.
	iov := []Iovec{{Base: c.A[1], Len: c.A[2]}}
	if vectored {
		var scratch [IovMax]Iovec
		var e int64
		if iov, e = ReadIovec(k, c.A[1], c.A[2], &scratch); e != 0 {
			return Ok(e)
		}
	} else if c.A[2] > MaxUserBuf {
		return Errno(EINVAL)
	}
	if write {
		return writeSpans(k, c.F[0], iov)
	}
	return readSpans(k, c.F[0], iov)
}

// readSpans scatters the blocking File.Read stream across the spans,
// returning at the first short fill. Each span is checked before the
// read that fills it, so a bad span consumes nothing. Empty spans are
// skipped, so a zero-length read returns 0 without waiting for data.
func readSpans(k Kernel, f File, iov []Iovec) Result {
	var total int64
	for _, v := range iov {
		if v.Len == 0 {
			continue
		}
		if !k.UserOK(v.Base, v.Len, true) {
			if total > 0 {
				break
			}
			return Errno(EFAULT)
		}
		tmp := make([]byte, v.Len)
		rn, err := f.Read(tmp)
		if err != nil && err != io.EOF && rn == 0 {
			if total > 0 {
				break
			}
			return Err(err)
		}
		_ = k.WriteUser(v.Base, tmp[:rn]) // the span passed UserOK
		total += int64(rn)
		if err == io.EOF || rn < len(tmp) {
			break
		}
	}
	return Ok(total)
}

// writeSpans gathers the spans through blocking File.Write calls in
// order, reporting partial progress when a later span faults or comes
// up short.
func writeSpans(k Kernel, f File, iov []Iovec) Result {
	var total int64
	for _, v := range iov {
		if v.Len == 0 {
			continue
		}
		data, err := k.ReadUser(v.Base, v.Len)
		if err != nil {
			if total > 0 {
				break
			}
			return Errno(EFAULT)
		}
		wn, werr := f.Write(data)
		total += int64(wn)
		if werr != nil && wn == 0 {
			if total > 0 {
				break
			}
			return Err(werr)
		}
		if wn < len(data) {
			break
		}
	}
	return Ok(total)
}

// --- File-descriptor table -----------------------------------------------

// File is an open file description as the fd table sees it. The LibOS's
// OpenFile is the canonical implementation, shared by the baselines.
type File interface {
	Read(p []byte) (int, error)
	Write(p []byte) (int, error)
	Seek(off int64, whence int) (int64, error)
	Ref()
	Unref()
}

// FDTable is the per-process descriptor table: fd → open file
// description, with POSIX lowest-free allocation at or above 3 (so dup2
// targets never collide with fresh fds). The zero value is an empty
// table, so a process holds its table in place.
//
// One mutex guards the map and the allocator: a next-fd watermark plus
// a min-heap of freed slots below it. A process's syscalls run on one
// hart at a time, so the lock is uncontended in steady state. Set and
// Dup2 can occupy arbitrary slots the allocator never handed out, so
// Install re-checks occupancy per candidate and skips stale ones; the
// heap self-heals (a slot may be listed free while occupied, never the
// reverse).
type FDTable struct {
	mu    sync.Mutex
	files map[int]File // made by the first entry
	freed []int        // min-heap of freed fds below next
	next  int          // every fd ≥ max(next, firstFD) is untouched by Install
}

// firstFD is the lowest fd Install hands out first (0-2 are stdio).
const firstFD = 3

// NewFDTable returns an empty table.
func NewFDTable() *FDTable { return new(FDTable) }

// --- map and freed min-heap (lock: mu) -----------------------------------

// put stores f at fd, making the map on the first entry.
func (t *FDTable) put(fd int, f File) {
	if t.files == nil {
		t.files = make(map[int]File)
	}
	t.files[fd] = f
}

func (t *FDTable) heapPush(fd int) {
	t.freed = append(t.freed, fd)
	i := len(t.freed) - 1
	for i > 0 {
		p := (i - 1) / 2
		if t.freed[p] <= t.freed[i] {
			break
		}
		t.freed[p], t.freed[i] = t.freed[i], t.freed[p]
		i = p
	}
}

func (t *FDTable) heapPop() int {
	fd := t.freed[0]
	last := len(t.freed) - 1
	t.freed[0] = t.freed[last]
	t.freed = t.freed[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(t.freed) && t.freed[l] < t.freed[small] {
			small = l
		}
		if r < len(t.freed) && t.freed[r] < t.freed[small] {
			small = r
		}
		if small == i {
			break
		}
		t.freed[i], t.freed[small] = t.freed[small], t.freed[i]
		i = small
	}
	return fd
}

// Get looks up fd.
func (t *FDTable) Get(fd int) (File, bool) {
	t.mu.Lock()
	f, ok := t.files[fd]
	t.mu.Unlock()
	return f, ok
}

// Set installs f at an explicit slot (stdio setup), dropping any
// previous occupant's reference.
func (t *FDTable) Set(fd int, f File) {
	t.mu.Lock()
	old := t.files[fd]
	t.put(fd, f)
	t.mu.Unlock()
	if old != nil {
		old.Unref()
	}
}

// Install places f in the lowest free slot at or above 3 and returns
// it, or returns -1 and installs nothing when every slot below MaxFD is
// taken: the caller keeps f's reference and fails with EMFILE.
func (t *FDTable) Install(f File) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next = max(t.next, firstFD)
	for {
		var fd int
		switch {
		case len(t.freed) > 0 && t.freed[0] < t.next:
			fd = t.heapPop()
		case t.next < MaxFD:
			fd = t.next
			t.next++
		default:
			return -1
		}
		// A candidate occupied via Set/Dup2 is discarded.
		if _, used := t.files[fd]; !used {
			t.put(fd, f)
			return fd
		}
	}
}

// SetWatermarkForTest makes fd the first slot Install hands out once no
// freed slot is left below it: a test hook that reaches the EMFILE path
// without MaxFD installs.
func (t *FDTable) SetWatermarkForTest(fd int) {
	t.mu.Lock()
	t.next = fd
	t.mu.Unlock()
}

// Remove deletes fd, returning its file (caller unrefs).
func (t *FDTable) Remove(fd int) (File, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, ok := t.files[fd]
	if ok {
		delete(t.files, fd)
		if fd < max(t.next, firstFD) {
			t.heapPush(fd)
		}
	}
	return f, ok
}

// InheritFrom fills the table with references to every entry of the
// parent's — the cheap fd inheritance of spawn (§6). The receiver must
// be fresh and unshared, so only the parent's lock is taken.
func (t *FDTable) InheritFrom(parent *FDTable) {
	parent.mu.Lock()
	defer parent.mu.Unlock()
	if len(parent.files) > 0 {
		t.files = make(map[int]File, len(parent.files))
	}
	for fd, f := range parent.files {
		f.Ref()
		t.files[fd] = f
	}
	t.next = parent.next
	t.freed = append(t.freed[:0], parent.freed...)
}

// CloseAll unrefs and drops every entry (process teardown). The table
// is empty afterwards and allocates nothing to get there.
func (t *FDTable) CloseAll() {
	t.mu.Lock()
	files := t.files
	t.files, t.next, t.freed = nil, 0, nil
	t.mu.Unlock()
	for _, f := range files {
		f.Unref()
	}
}
