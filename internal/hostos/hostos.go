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
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// tableShards is the shard count for the host's hot connection-facing
// tables (futex queues, listener ports). File and shm state stay under
// the single coarse lock — they are cold paths. A power of two keeps
// the shard pick a mask.
const tableShards = 16

// futexShard is one lock's worth of futex queues. Sharding by key
// keeps a c100k park/unpark storm from serializing on one mutex: each
// key hashes to a shard that owns its queues outright, the
// message-passing-flavored ownership split the sharded tables use
// throughout this stack.
type futexShard struct {
	mu sync.Mutex
	q  map[uint64]*futexQueue
}

// listenerShard is one lock's worth of bound ports.
type listenerShard struct {
	mu sync.Mutex
	m  map[uint16]*Listener
}

// Host is one untrusted host OS instance.
type Host struct {
	mu        sync.Mutex // guards files, faults, shm
	files     map[string][]byte
	faults    []*injection
	shm       map[string][]byte
	futexes   [tableShards]futexShard
	listeners [tableShards]listenerShard
	// activeTimers counts outstanding host timers (armed, not yet
	// fired or cancelled). The timer wheel holds this at ≤1 per hart;
	// tests assert it.
	activeTimers atomic.Int64
}

// New creates an empty host.
func New() *Host {
	h := &Host{
		files: make(map[string][]byte),
		shm:   make(map[string][]byte),
	}
	for i := range h.futexes {
		h.futexes[i].q = make(map[uint64]*futexQueue)
	}
	for i := range h.listeners {
		h.listeners[i].m = make(map[uint16]*Listener)
	}
	return h
}

// futexShardFor picks the shard owning a futex key. The multiply
// spreads low-entropy keys (guest addresses share alignment) across
// shards before masking.
func (h *Host) futexShardFor(key uint64) *futexShard {
	return &h.futexes[(key*0x9e3779b97f4a7c15)>>58&(tableShards-1)]
}

func (h *Host) listenerShardFor(port uint16) *listenerShard {
	return &h.listeners[port&(tableShards-1)]
}

// Storage errors.
var (
	// ErrNoFile reports a missing host file.
	ErrNoFile = errors.New("hostos: no such file")
	// ErrPortInUse reports a taken listen port.
	ErrPortInUse = errors.New("hostos: port in use")
	// ErrConnRefused reports dialing a port with no listener.
	ErrConnRefused = errors.New("hostos: connection refused")
	// ErrClosed reports an operation on a closed connection or
	// listener.
	ErrClosed = errors.New("hostos: closed")
)

// WriteFile stores (or replaces) a host file. The host sees — and may
// tamper with — every byte. Armed write faults (fault.go) apply.
func (h *Host) WriteFile(name string, data []byte) {
	h.mu.Lock()
	defer h.mu.Unlock()
	p, ok := h.applyWriteFaults(name, data)
	if !ok {
		return
	}
	h.files[name] = append([]byte(nil), p...)
}

// ReadFile returns a copy of a host file.
func (h *Host) ReadFile(name string) ([]byte, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	data, ok := h.files[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoFile, name)
	}
	return append([]byte(nil), data...), nil
}

// RemoveFile deletes a host file.
func (h *Host) RemoveFile(name string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	delete(h.files, name)
}

// WriteFileAt overwrites the range [off, off+len(p)) of a host file,
// growing it as needed. This is the block-device write the encrypted
// filesystem uses. Armed write faults (fault.go) apply: a crashed
// budget drops the write silently, a torn write persists only a
// prefix, bit-rot lands flipped bits.
func (h *Host) WriteFileAt(name string, off int, p []byte) {
	h.mu.Lock()
	defer h.mu.Unlock()
	p, ok := h.applyWriteFaults(name, p)
	if !ok {
		return
	}
	f := h.files[name]
	if need := off + len(p); need > len(f) {
		// Capacity grows geometrically (at most 25 % slack), so a file
		// built by ascending writes is copied O(1) times per byte, not
		// once per write. Only len is ever the file: the slack is
		// invisible to every reader, and the part of it a sparse write
		// exposes is cleared.
		old := len(f)
		if need > cap(f) {
			nf := make([]byte, need, need+need/4)
			copy(nf, f)
			f = nf
		} else {
			f = f[:need]
			if off > old {
				clear(f[old:off])
			}
		}
	}
	copy(f[off:], p)
	h.files[name] = f
}

// ReadFileAt reads up to len(p) bytes at off, returning the count.
// Armed read faults (fault.go) apply: a short read returns fewer bytes
// than stored, read latency delays the return. Callers must treat a
// short read as missing data, never as zeros.
func (h *Host) ReadFileAt(name string, off int, p []byte) (int, error) {
	h.mu.Lock()
	f, ok := h.files[name]
	if !ok {
		h.mu.Unlock()
		return 0, fmt.Errorf("%w: %s", ErrNoFile, name)
	}
	n := 0
	if off < len(f) {
		n = copy(p, f[off:])
	}
	n, delay := h.applyReadFaults(name, n)
	h.mu.Unlock()
	if delay > 0 {
		time.Sleep(delay)
	}
	return n, nil
}

// FileSize returns the size of a host file (0 if absent).
func (h *Host) FileSize(name string) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.files[name])
}

// --- Futex ---------------------------------------------------------------

type futexQueue struct {
	waiters []*FutexReg
}

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
	sh := h.futexShardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	q := sh.q[key]
	if q == nil {
		q = &futexQueue{}
		sh.q[key] = q
	}
	reg := &FutexReg{h: h, key: key, wake: wake}
	q.waiters = append(q.waiters, reg)
	return reg
}

// Cancel removes the registration if it has not been consumed by a wake.
func (r *FutexReg) Cancel() {
	sh := r.h.futexShardFor(r.key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	q := sh.q[r.key]
	if q == nil {
		return
	}
	for i, w := range q.waiters {
		if w == r {
			q.waiters = append(q.waiters[:i], q.waiters[i+1:]...)
			return
		}
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
	sh := h.futexShardFor(key)
	sh.mu.Lock()
	q := sh.q[key]
	var woken []*FutexReg
	if q != nil {
		for len(woken) < n && len(q.waiters) > 0 {
			woken = append(woken, q.waiters[0])
			q.waiters = q.waiters[1:]
		}
	}
	sh.mu.Unlock()
	for _, r := range woken {
		r.wake()
	}
	return len(woken)
}

// --- Timers ----------------------------------------------------------------

// Timer schedules fn on the untrusted host clock after d, returning a
// cancel function. Like futex sleeps, timeouts are delegated to the host
// (§6): a malicious host can delay or drop the callback, which can stall
// a poll timeout but never corrupt LibOS state. Cancel after firing is a
// harmless no-op; fn may race a concurrent cancel, so callers must make
// fn idempotent (the parking protocol's latched wakes already are).
//
// Each outstanding timer is counted in ActiveTimers. The LibOS timer
// wheel keeps this at one per hart regardless of how many guest
// deadlines are pending; c100k tests assert that bound.
func (h *Host) Timer(d time.Duration, fn func()) (cancel func()) {
	h.activeTimers.Add(1)
	var settled atomic.Bool // fired-or-cancelled latch for the count
	t := time.AfterFunc(d, func() {
		if settled.CompareAndSwap(false, true) {
			h.activeTimers.Add(-1)
		}
		fn()
	})
	return func() {
		t.Stop()
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
