package sysdispatch

import (
	"io"
	"sync"
	"time"
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
	// FDs returns the process's file-descriptor table.
	FDs() *FDTable
	// PID and PPID identify the process.
	PID() int
	PPID() int
	// Now reads the clock of the host beneath the process.
	Now() time.Time
}

// Handler executes one syscall for the calling process. a holds the five
// argument registers R1..R5.
type Handler func(k Kernel, a *[5]uint64) Result

// Table maps syscall numbers to handlers. Build one per kernel type at
// init (the LibOS) or per kernel instance (internal/baseline) and treat
// it as immutable afterwards.
type Table struct {
	h [SysMax]Handler
}

// NewTable returns an empty table (every slot answers -ENOSYS).
func NewTable() *Table { return &Table{} }

// Register installs h for syscall number no, panicking on out-of-range
// numbers or double registration — both are build bugs, not runtime
// conditions.
func (t *Table) Register(no int, h Handler) {
	if no < 0 || no >= SysMax {
		panic("sysdispatch: syscall number out of range")
	}
	if t.h[no] != nil {
		panic("sysdispatch: double registration")
	}
	t.h[no] = h
}

// Has reports whether a handler is registered for no.
func (t *Table) Has(no int) bool { return no >= 0 && no < SysMax && t.h[no] != nil }

// Dispatch runs the handler for no, or fails with -ENOSYS.
func (t *Table) Dispatch(k Kernel, no uint64, a *[5]uint64) Result {
	if no >= SysMax || t.h[no] == nil {
		return Errno(ENOSYS)
	}
	return t.h[no](k, a)
}

// --- Marshalling helpers -------------------------------------------------

// ReadPath copies a path argument (pointer, length pair).
func ReadPath(k Kernel, ptr, n uint64) (string, bool) {
	if n > MaxUserBuf {
		return "", false
	}
	b, err := k.ReadUser(ptr, n)
	if err != nil {
		return "", false
	}
	return string(b), true
}

// ParseArgv splits a NUL-separated argv block.
func ParseArgv(block []byte) []string {
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

// --- Shared handlers -----------------------------------------------------
//
// Fully-shared handlers close over nothing; where one primitive differs
// per kernel (open, spawn, ...), the spine provides the marshalling half
// as a constructor taking the primitive.

// ExitHandler builds the exit handler around the kernel's teardown
// primitive.
func ExitHandler(exit func(k Kernel, status int)) Handler {
	return func(k Kernel, a *[5]uint64) Result {
		exit(k, int(int64(a[0]))&0xFF)
		return Result{Exited: true}
	}
}

// CloseFD is the shared close(2).
func CloseFD(k Kernel, a *[5]uint64) Result {
	f, ok := k.FDs().Remove(int(int64(a[0])))
	if !ok {
		return Errno(EBADF)
	}
	f.Unref()
	return Ok(0)
}

// Dup2FD is the shared dup2(2).
func Dup2FD(k Kernel, a *[5]uint64) Result {
	return Ok(k.FDs().Dup2(int(int64(a[0])), int(int64(a[1]))))
}

// Getpid is the shared getpid(2).
func Getpid(k Kernel, a *[5]uint64) Result { return Ok(int64(k.PID())) }

// Getppid is the shared getppid(2).
func Getppid(k Kernel, a *[5]uint64) Result { return Ok(int64(k.PPID())) }

// Clock is the shared clock_gettime(2): the calling kernel's host clock,
// as in the paper, where time is delegated to the untrusted host.
func Clock(k Kernel, a *[5]uint64) Result { return Ok(k.Now().UnixNano()) }

// Munmap is the shared munmap(2): every kernel uses a bump allocator, so
// unmapping is a no-op.
func Munmap(k Kernel, a *[5]uint64) Result { return Ok(0) }

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
func Listen(k Kernel, a *[5]uint64) Result {
	f, ok := k.FDs().Get(int(int64(a[0])))
	if !ok {
		return Errno(EBADF)
	}
	if bl, ok := f.(Backlogger); ok {
		if n := int(int64(a[1])); n > 0 {
			bl.SetListenBacklog(n)
		}
	}
	return Ok(0)
}

// Lseek is the shared lseek(2) over the fd table.
func Lseek(k Kernel, a *[5]uint64) Result {
	f, ok := k.FDs().Get(int(int64(a[0])))
	if !ok {
		return Errno(EBADF)
	}
	off, err := f.Seek(int64(a[1]), int(int64(a[2])))
	if err != nil {
		return Errno(ESPIPE)
	}
	return Ok(off)
}

// OpenHandler builds open(2) around the kernel's path-open primitive
// (VFS lookup for the LibOS, plaintext map for the native baseline).
// open returns the new file or a negative errno.
func OpenHandler(open func(k Kernel, path string, flags uint64) (File, int64)) Handler {
	return func(k Kernel, a *[5]uint64) Result {
		path, ok := ReadPath(k, a[0], a[1])
		if !ok {
			return Errno(EFAULT)
		}
		f, errno := open(k, path, a[2])
		if errno != 0 {
			return Errno(errno)
		}
		return Ok(int64(k.FDs().Install(f)))
	}
}

// SpawnHandler builds spawn(2) around the kernel's process-creation
// primitive. spawn returns the child pid or a negative errno.
func SpawnHandler(spawn func(k Kernel, path string, argv []string) int64) Handler {
	return func(k Kernel, a *[5]uint64) Result {
		path, ok := ReadPath(k, a[0], a[1])
		if !ok {
			return Errno(EFAULT)
		}
		var argv []string
		if a[3] > 0 {
			if a[3] > MaxUserBuf {
				return Errno(EFAULT)
			}
			block, err := k.ReadUser(a[2], a[3])
			if err != nil {
				return Errno(EFAULT)
			}
			argv = ParseArgv(block)
		}
		return Ok(spawn(k, path, argv))
	}
}

// Wait4Handler builds wait4(2) around the kernel's child-reaping
// primitive, which returns (pid, status, errno, parked). A parking
// kernel returns parked=true after registering a child-exit waiter.
func Wait4Handler(wait func(k Kernel, pid int) (cpid, status int, errno int64, parked bool)) Handler {
	return func(k Kernel, a *[5]uint64) Result {
		cpid, status, errno, parked := wait(k, int(int64(a[0])))
		if parked {
			return ParkedResult
		}
		if errno != 0 {
			return Errno(errno)
		}
		if a[1] != 0 && k.WriteU64(a[1], uint64(status)) != nil {
			return Errno(EFAULT)
		}
		return Ok(int64(cpid))
	}
}

// Pipe2Handler builds pipe2(2) around the kernel's pipe constructor.
// A fault writing the fd numbers out closes both ends again, as Linux
// does: the caller never learns the numbers, so nothing could close them.
func Pipe2Handler(newPipe func(k Kernel) (r, w File)) Handler {
	return func(k Kernel, a *[5]uint64) Result {
		r, w := newPipe(k)
		rfd := k.FDs().Install(r)
		wfd := k.FDs().Install(w)
		if k.WriteU64(a[0], uint64(rfd)) != nil || k.WriteU64(a[0]+8, uint64(wfd)) != nil {
			for _, fd := range [2]int{wfd, rfd} {
				if f, ok := k.FDs().Remove(fd); ok {
					f.Unref()
				}
			}
			return Errno(EFAULT)
		}
		return Ok(0)
	}
}

// SocketHandler builds socket(2) around the kernel's socket constructor.
func SocketHandler(newSock func(k Kernel) File) Handler {
	return func(k Kernel, a *[5]uint64) Result {
		return Ok(int64(k.FDs().Install(newSock(k))))
	}
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
		iov[i] = Iovec{Base: le64(ent), Len: le64(ent[8:])}
		total += iov[i].Len
		if iov[i].Len > MaxUserBuf || total > MaxUserBuf {
			return nil, -EINVAL
		}
	}
	return iov, 0
}

func le64(b []byte) uint64 {
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

// BlockingRead, BlockingWrite, BlockingReadv and BlockingWritev are the
// shared read(2)/recv(2), write(2)/send(2), readv(2) and writev(2) for
// kernels whose processes own a goroutine and may block inside the
// handler (parking kernels register their own). All four run the same
// two span loops; the scalar calls pass their buffer as the only span.
func BlockingRead(k Kernel, a *[5]uint64) Result   { return blocking(k, a, false, false) }
func BlockingWrite(k Kernel, a *[5]uint64) Result  { return blocking(k, a, false, true) }
func BlockingReadv(k Kernel, a *[5]uint64) Result  { return blocking(k, a, true, false) }
func BlockingWritev(k Kernel, a *[5]uint64) Result { return blocking(k, a, true, true) }

func blocking(k Kernel, a *[5]uint64, vectored, write bool) Result {
	f, ok := k.FDs().Get(int(int64(a[0])))
	if !ok {
		return Errno(EBADF)
	}
	// The loops are called directly, not through a func value, so the
	// scalar call's one span and the iovec scratch stay on the stack.
	iov := []Iovec{{Base: a[1], Len: a[2]}}
	if vectored {
		var scratch [IovMax]Iovec
		var e int64
		if iov, e = ReadIovec(k, a[1], a[2], &scratch); e != 0 {
			return Ok(e)
		}
	} else if a[2] > MaxUserBuf {
		return Errno(EINVAL)
	}
	if write {
		return writeSpans(k, f, iov)
	}
	return readSpans(k, f, iov)
}

// readSpans scatters the blocking File.Read stream across the spans,
// returning at the first short fill. Empty spans are skipped, so a
// zero-length read returns 0 without waiting for data.
func readSpans(k Kernel, f File, iov []Iovec) Result {
	var total int64
	for _, v := range iov {
		if v.Len == 0 {
			continue
		}
		tmp := make([]byte, v.Len)
		rn, err := f.Read(tmp)
		if err != nil && err != io.EOF && rn == 0 {
			if total > 0 {
				break
			}
			return Errno(EIO)
		}
		if rn > 0 {
			if k.WriteUser(v.Base, tmp[:rn]) != nil {
				if total > 0 {
					break
				}
				return Errno(EFAULT)
			}
			total += int64(rn)
		}
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
			return Errno(EPIPE)
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

// Install places f in the lowest free slot at or above 3.
func (t *FDTable) Install(f File) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next = max(t.next, firstFD)
	for {
		var fd int
		if len(t.freed) > 0 && t.freed[0] < t.next {
			fd = t.heapPop()
		} else {
			fd = t.next
			t.next++
		}
		// A candidate occupied via Set/Dup2 is discarded.
		if _, used := t.files[fd]; !used {
			t.put(fd, f)
			return fd
		}
	}
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

// Dup2 implements dup2(2): newfd refers to oldfd's description.
func (t *FDTable) Dup2(oldfd, newfd int) int64 {
	t.mu.Lock()
	f, ok := t.files[oldfd]
	if !ok {
		t.mu.Unlock()
		return -EBADF
	}
	if oldfd == newfd {
		t.mu.Unlock()
		return int64(newfd)
	}
	f.Ref()
	old := t.files[newfd]
	t.files[newfd] = f
	t.mu.Unlock()
	if old != nil {
		old.Unref()
	}
	return int64(newfd)
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
