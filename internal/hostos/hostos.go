// Package hostos models the untrusted host operating system beneath the
// enclave: persistent storage for encrypted filesystem images, futex
// sleep/wake primitives, a loopback network, and untrusted shared memory
// buffers (the channel EIP-based LibOSes use for encrypted IPC).
//
// Everything in this package is OUTSIDE the trust boundary. The LibOS must
// never store plaintext secrets here; the encrypted filesystem (internal/fs)
// and the EIP baseline's encrypted IPC both treat host storage as hostile,
// and tests exercise tamper detection over it.
package hostos

import (
	"bytes"
	"errors"
	"fmt"
	"path"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ring"
	"repro/internal/timers"
)

// Host is one untrusted host OS instance. Its files are an in-memory
// Disk.
//
// Three locks, none nested in another: mu serves store I/O, futexMu
// the futex queues (the guest's futex syscall), and listenMu the port
// table (Listen, Dial, Close). The buffer pool's lock is a leaf taken
// under a connection stream's.
type Host struct {
	mu    sync.Mutex // guards files, shm
	files map[string]*file
	shm   map[string][]byte

	futexMu sync.Mutex
	futexes map[uint64][]*FutexReg // waiters per key, FIFO; no empty queues

	listenMu  sync.Mutex
	listeners map[uint16]*Listener

	// connBufs recycles the ring buffers of this host's connections, so
	// a dial/request/close cycle does not allocate and zero a fresh
	// buffer per direction. It is the host's own: no enclave stream
	// draws on it.
	connBufs ring.Pool

	// clock is the time every instance above this host reads (§6
	// delegates time to the host). activeTimers counts outstanding
	// host timers (armed, not yet fired or cancelled). A LibOS's
	// deadline queue holds this at ≤1 per LibOS; tests assert it.
	clock        timers.Clock
	activeTimers atomic.Int64
}

// New creates an empty host on the real clock.
func New() *Host { return NewWithClock(timers.Wall{}) }

// NewWithClock creates an empty host whose time is clock's: a test
// passes a manual timers.Queue to step it.
func NewWithClock(clock timers.Clock) *Host {
	return &Host{
		clock:     clock,
		files:     make(map[string]*file),
		shm:       make(map[string][]byte),
		futexes:   make(map[uint64][]*FutexReg),
		listeners: make(map[uint16]*Listener),
	}
}

// Disk is the host storage the encrypted filesystem runs on: named
// files read and written at offsets. Every byte it returns is untrusted,
// and every write can fail. *Host implements it in memory, Dir over a
// directory of real files.
type Disk interface {
	// ReadFileAt reads up to len(p) bytes at off, returning the count.
	// Callers must treat a short read as missing data, never as zeros.
	ReadFileAt(name string, off int, p []byte) (int, error)
	// WriteFileAt overwrites [off, off+len(p)) of a file, creating and
	// growing it as needed.
	WriteFileAt(name string, off int, p []byte) error
	// FileSize returns the size of a file (0 if absent).
	FileSize(name string) int
	// RemoveFile deletes a file; removing an absent file is not an error.
	RemoveFile(name string) error
	// Sync makes the file's completed writes durable.
	Sync(name string) error
}

var _ Disk = (*Host)(nil)

// Errors. A Disk wraps its errors with the file name.
var (
	// ErrNoFile reports a missing host file.
	ErrNoFile = errors.New("hostos: no such file")
	// ErrNoSpace reports a write the host refused for lack of space.
	ErrNoSpace = errors.New("hostos: no space left on device")
	// ErrIO reports any other failed host storage operation.
	ErrIO = errors.New("hostos: i/o error")
	// ErrPortInUse reports a taken listen port.
	ErrPortInUse = errors.New("hostos: port in use")
	// ErrConnRefused reports dialing a port with no listener.
	ErrConnRefused = errors.New("hostos: connection refused")
	// ErrClosed reports an operation on a closed connection or
	// listener.
	ErrClosed = errors.New("hostos: closed")
)

// extentSize is the unit a host file is stored in: a write allocates
// only the extents it touches, and a file grows without moving the
// bytes it already holds.
const extentSize = 64 << 10

// zeroExtent is what a hole reads as.
var zeroExtent [extentSize]byte

// file is one host file: size bytes in extentCount(size) fixed-size
// extents. A nil extent is a hole that reads as zeros; no extent is
// ever shared with a caller.
type file struct {
	size int
	ext  [][]byte
}

// extentCount is the number of extents that cover size bytes.
func extentCount(size int) int { return (size + extentSize - 1) / extentSize }

// newExtent returns a fresh extent holding d at off and zeros around
// it. Each of its bytes is written once: bytes.Join does not clear the
// memory it then copies over.
func newExtent(off int, d []byte) []byte {
	return bytes.Join([][]byte{zeroExtent[:off], d, zeroExtent[off+len(d):]}, nil)
}

// span returns the bytes of extent i that lie inside the file, a
// hole's as zeros.
func (f *file) span(i int) []byte {
	n := min(extentSize, f.size-i*extentSize)
	if f.ext[i] == nil {
		return zeroExtent[:n]
	}
	return f.ext[i][:n]
}

// WriteFile stores (or replaces) a host file. The host sees — and may
// tamper with — every byte.
func (h *Host) WriteFile(name string, data []byte) {
	f := &file{size: len(data), ext: make([][]byte, extentCount(len(data)))}
	for i := range f.ext {
		f.ext[i] = newExtent(0, data[i*extentSize:min(len(data), (i+1)*extentSize)])
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.files[name] = f
}

// ReadFile returns a copy of a host file.
func (h *Host) ReadFile(name string) ([]byte, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	f, ok := h.files[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoFile, name)
	}
	spans := make([][]byte, len(f.ext))
	for i := range spans {
		spans[i] = f.span(i)
	}
	return bytes.Join(spans, nil), nil
}

// Names returns the sorted names of stored files matching pattern (a
// path.Match glob, or an exact name).
func (h *Host) Names(pattern string) []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	var names []string
	for name := range h.files {
		if ok, err := path.Match(pattern, name); name == pattern || (err == nil && ok) {
			names = append(names, name)
		}
	}
	slices.Sort(names)
	return names
}

// RemoveFile deletes a host file.
func (h *Host) RemoveFile(name string) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	delete(h.files, name)
	return nil
}

// Sync is a no-op: memory is as durable as this host gets.
func (h *Host) Sync(string) error { return nil }

// WriteFileAt overwrites the range [off, off+len(p)) of a host file,
// growing it as needed. It never fails.
func (h *Host) WriteFileAt(name string, off int, p []byte) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	f, ok := h.files[name]
	if !ok {
		f = &file{}
		h.files[name] = f
	}
	if end := off + len(p); end > f.size {
		f.size = end
		f.ext = append(f.ext, make([][]byte, extentCount(end)-len(f.ext))...)
	}
	for len(p) > 0 {
		i, o := off/extentSize, off%extentSize
		n := min(len(p), extentSize-o)
		if f.ext[i] == nil {
			f.ext[i] = newExtent(o, p[:n])
		} else {
			copy(f.ext[i][o:], p[:n])
		}
		off, p = off+n, p[n:]
	}
	return nil
}

// ReadFileAt reads up to len(p) bytes at off, returning the count.
func (h *Host) ReadFileAt(name string, off int, p []byte) (int, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	f, ok := h.files[name]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNoFile, name)
	}
	read := 0
	for read < len(p) && off < f.size {
		n := copy(p[read:], f.span(off / extentSize)[off%extentSize:])
		off, read = off+n, read+n
	}
	return read, nil
}

// FileSize returns the size of a host file (0 if absent).
func (h *Host) FileSize(name string) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	if f, ok := h.files[name]; ok {
		return f.size
	}
	return 0
}

// --- Futex ---------------------------------------------------------------

// FutexReg is one registered futex waiter. Exactly one of two things
// happens to a registration: FutexWake pops it and invokes its callback,
// or the owner Cancels it. Cancel after a wake is a harmless no-op.
type FutexReg struct {
	h    *Host
	key  uint64
	wake func()
}

// FutexSubscribe registers wake to be called by a future FutexWake on
// key. This is the asynchronous form of FutexWait used by the M:N
// scheduler: instead of blocking a hart, a SIP registers a callback that
// unparks it. The caller must Cancel the registration if it stops
// waiting for any reason other than being woken (e.g. the SIP is killed
// while parked) — a stale registration would otherwise swallow a wake
// meant for a real waiter.
func (h *Host) FutexSubscribe(key uint64, wake func()) *FutexReg {
	reg := &FutexReg{h: h, key: key, wake: wake}
	h.futexMu.Lock()
	h.futexes[key] = append(h.futexes[key], reg)
	h.futexMu.Unlock()
	return reg
}

// Cancel removes the registration if it has not been consumed by a wake.
// A key's queue is deleted when its last waiter leaves.
func (r *FutexReg) Cancel() {
	h := r.h
	h.futexMu.Lock()
	defer h.futexMu.Unlock()
	q := h.futexes[r.key]
	i := slices.Index(q, r)
	switch {
	case i < 0:
	case len(q) == 1:
		delete(h.futexes, r.key)
	default:
		h.futexes[r.key] = slices.Delete(q, i, i+1)
	}
}

// FutexWait blocks the caller until a FutexWake on the same key. The LibOS
// uses this to put SGX threads to sleep; the *semantic* correctness of
// user-visible synchronization stays inside the LibOS, as in the paper
// (§6): a spurious or missing host wake can delay a SIP but not corrupt
// LibOS state.
func (h *Host) FutexWait(key uint64) {
	ch := make(chan struct{})
	h.FutexSubscribe(key, func() { close(ch) })
	<-ch
}

// FutexWake wakes up to n waiters on key, returning how many were woken.
// Callbacks run outside the host lock.
func (h *Host) FutexWake(key uint64, n int) int {
	h.futexMu.Lock()
	q := h.futexes[key]
	k := max(0, min(n, len(q)))
	if k == len(q) {
		delete(h.futexes, key)
	} else {
		h.futexes[key] = q[k:]
	}
	h.futexMu.Unlock()
	// The woken prefix is never written again: later subscribes and
	// cancels on key touch only q[k:] and beyond.
	woken := q[:k]
	for _, r := range woken {
		r.wake()
	}
	return len(woken)
}

// --- Timers ----------------------------------------------------------------

// Now reads the host's clock. Like futex sleeps, time is delegated to
// the host (§6): a malicious host can skew it, which can stall or hurry
// a timeout but never corrupt LibOS state.
func (h *Host) Now() time.Time { return h.clock.Now() }

// Sleep blocks for d of the host's time; it is not a counted Timer.
func (h *Host) Sleep(d time.Duration) {
	done := make(chan struct{})
	h.clock.Timer(d, func() { close(done) })
	<-done
}

// Timer schedules fn on the host's clock after d, returning a cancel
// function; with Now it makes the Host a timers.Clock, the one a
// LibOS's deadline queue runs on. The host can delay or drop the
// callback. Cancel after firing is a harmless no-op; fn may race a
// concurrent cancel, so callers must make fn idempotent (the parking
// protocol's latched wakes already are).
//
// Each outstanding timer is counted in ActiveTimers. The LibOS deadline
// queue keeps this at one per LibOS regardless of how many guest
// deadlines are pending; c100k tests assert that bound.
func (h *Host) Timer(d time.Duration, fn func()) (cancel func()) {
	h.activeTimers.Add(1)
	var settled atomic.Bool // fired-or-cancelled latch for the count
	stop := h.clock.Timer(d, func() {
		if settled.CompareAndSwap(false, true) {
			h.activeTimers.Add(-1)
		}
		fn()
	})
	return func() {
		stop()
		if settled.CompareAndSwap(false, true) {
			h.activeTimers.Add(-1)
		}
	}
}

// ActiveTimers reports the number of host timers currently armed —
// scheduled and neither fired nor cancelled.
func (h *Host) ActiveTimers() int64 { return h.activeTimers.Load() }

// --- Untrusted shared memory ----------------------------------------------

// ShmWrite stores a buffer in untrusted shared memory (used by EIP-based
// LibOSes to pass encrypted IPC messages between enclaves).
func (h *Host) ShmWrite(key string, data []byte) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.shm[key] = append([]byte(nil), data...)
}

// ShmRead fetches a buffer from untrusted shared memory.
func (h *Host) ShmRead(key string) ([]byte, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	d, ok := h.shm[key]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), d...), true
}
