// Package hostfault is test support for the host boundary: a
// hostos.Disk decorator that models what a non-adversarial host can do
// to storage (power loss mid-write-sequence, refused, torn and short
// writes, bit-rot, media latency), plus at-rest helpers over a
// *hostos.Host for the adversarial host's precise actions (flip a bit,
// rot a range, drop, snapshot and restore files). No production package
// imports it: a store running on a plain Disk runs no fault code.
//
// Faults attach to files by glob pattern (path.Match, with exact-name
// fallback) and stack in injection order: a write first passes every
// matching crash or fail budget, then torn-write truncation, then
// bit-rot. Every randomized fault owns an explicitly-seeded PRNG, so a
// test that injects with a fixed seed replays bit-identically.
package hostfault

import (
	"fmt"
	"math/rand"
	"path"
	"sync"
	"time"

	"repro/internal/hostos"
)

// faultKind discriminates Fault behaviors.
type faultKind int

const (
	faultCrash faultKind = iota
	faultFail
	faultTorn
	faultBitRot
	faultShortRead
	faultReadLatency
)

// Fault is one composable fault-injection behavior, built by one of the
// constructors below and armed with Disk.Inject. A single Fault value
// carries its own state (write budget, PRNG), so injecting the same
// value under a multi-file pattern shares that state across all
// matching files — CrashAfter(n) means n surviving writes across the
// whole matched set, the storage view of one host losing power once.
type Fault struct {
	kind    faultKind
	n       int   // CrashAfter, FailWrites: surviving writes remaining
	err     error // FailWrites: what a refused write returns
	prob    float64
	rng     *rand.Rand
	latency time.Duration
	tripped bool
}

// CrashAfter models a host crash during a write sequence: the next n
// writes to matching files land, every later one is silently dropped
// until Heal (the reboot). The budget is shared across all files the
// pattern matches.
func CrashAfter(n int) *Fault { return &Fault{kind: faultCrash, n: n} }

// FailWrites models a host that says no: the next n writes to matching
// files land, every later one is refused with err (wrapped with the
// file name) and changes nothing. The budget is shared like
// CrashAfter's.
func FailWrites(n int, err error) *Fault { return &Fault{kind: faultFail, n: n, err: err} }

// TornWrites makes each matching write, with probability prob, persist
// only a prefix of the buffer (the torn tail is dropped). Deterministic
// under seed.
func TornWrites(prob float64, seed int64) *Fault {
	return &Fault{kind: faultTorn, prob: prob, rng: rand.New(rand.NewSource(seed))}
}

// BitRot flips each written bit with probability prob as it lands on
// the medium — persistent storage decay, deterministic under seed. Use
// CorruptFiles to rot bytes already at rest.
func BitRot(prob float64, seed int64) *Fault {
	return &Fault{kind: faultBitRot, prob: prob, rng: rand.New(rand.NewSource(seed))}
}

// ShortReads makes each matching ReadFileAt, with probability prob,
// return only a prefix of the available bytes. Deterministic under
// seed. Consumers must treat a short read as a fault, never as
// zero-fill.
func ShortReads(prob float64, seed int64) *Fault {
	return &Fault{kind: faultShortRead, prob: prob, rng: rand.New(rand.NewSource(seed))}
}

// ReadLatency delays every matching read by d — a degraded medium. The
// sleep happens outside the decorator's lock, so latency on one file
// does not stall reads of another.
func ReadLatency(d time.Duration) *Fault { return &Fault{kind: faultReadLatency, latency: d} }

// String names a fault for diagnostics.
func (f *Fault) String() string {
	switch f.kind {
	case faultCrash:
		return fmt.Sprintf("CrashAfter(remaining=%d tripped=%v)", f.n, f.tripped)
	case faultFail:
		return fmt.Sprintf("FailWrites(remaining=%d err=%v tripped=%v)", f.n, f.err, f.tripped)
	case faultTorn:
		return fmt.Sprintf("TornWrites(p=%g)", f.prob)
	case faultBitRot:
		return fmt.Sprintf("BitRot(p=%g)", f.prob)
	case faultShortRead:
		return fmt.Sprintf("ShortReads(p=%g)", f.prob)
	case faultReadLatency:
		return fmt.Sprintf("ReadLatency(%v)", f.latency)
	}
	return "Fault(?)"
}

// injection is one armed (pattern, fault) pair.
type injection struct {
	pattern string
	f       *Fault
}

func (in *injection) matches(name string) bool {
	if in.pattern == name {
		return true
	}
	ok, err := path.Match(in.pattern, name)
	return err == nil && ok
}

// Disk is a hostos.Disk that passes every call to an inner Disk through
// the armed faults. Faults act on WriteFileAt and ReadFileAt;
// FileSize, RemoveFile and Sync pass straight through.
type Disk struct {
	inner  hostos.Disk
	mu     sync.Mutex // guards faults; held across an inner write
	faults []*injection
}

var _ hostos.Disk = (*Disk)(nil)

// New wraps inner with no faults armed.
func New(inner hostos.Disk) *Disk { return &Disk{inner: inner} }

// Inject arms faults on every file matching pattern (a path.Match glob,
// or an exact name). Faults stack: matching injections apply in the
// order they were armed, across Inject calls.
func (d *Disk) Inject(pattern string, faults ...*Fault) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, f := range faults {
		d.faults = append(d.faults, &injection{pattern: pattern, f: f})
	}
}

// Heal disarms every fault injected under exactly this pattern,
// reporting whether any of them actually fired (a dropped, refused or
// torn write, a flipped bit, a shortened read).
func (d *Disk) Heal(pattern string) (tripped bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	kept := d.faults[:0]
	for _, in := range d.faults {
		if in.pattern == pattern {
			tripped = tripped || in.f.tripped
			continue
		}
		kept = append(kept, in)
	}
	d.faults = kept
	return tripped
}

// WriteFileAt runs p through every armed write fault matching name, then
// writes what survives. A crashed budget drops the write and reports
// success; a failed budget refuses it with the fault's error. p is
// never mutated in place.
func (d *Disk) WriteFileAt(name string, off int, p []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, in := range d.faults {
		if !in.matches(name) {
			continue
		}
		switch f := in.f; f.kind {
		case faultCrash, faultFail:
			if f.n > 0 {
				f.n--
				continue
			}
			f.tripped = true
			if f.kind == faultFail {
				return fmt.Errorf("%w: %s", f.err, name)
			}
			return nil
		case faultTorn:
			if f.rng.Float64() < f.prob && len(p) > 0 {
				f.tripped = true
				p = p[:f.rng.Intn(len(p))]
			}
		case faultBitRot:
			var rotted []byte
			for i := range p {
				for bit := 0; bit < 8; bit++ {
					if f.rng.Float64() < f.prob {
						if rotted == nil {
							rotted = append([]byte(nil), p...)
						}
						rotted[i] ^= 1 << uint(bit)
						f.tripped = true
					}
				}
			}
			if rotted != nil {
				p = rotted
			}
		}
	}
	return d.inner.WriteFileAt(name, off, p)
}

// ReadFileAt reads through the inner Disk, then applies the armed read
// faults: a short read returns fewer bytes than stored, read latency
// delays the return.
func (d *Disk) ReadFileAt(name string, off int, p []byte) (int, error) {
	n, err := d.inner.ReadFileAt(name, off, p)
	if err != nil {
		return n, err
	}
	var delay time.Duration
	d.mu.Lock()
	for _, in := range d.faults {
		if !in.matches(name) {
			continue
		}
		switch f := in.f; f.kind {
		case faultShortRead:
			if n > 0 && f.rng.Float64() < f.prob {
				f.tripped = true
				n = f.rng.Intn(n)
			}
		case faultReadLatency:
			delay += f.latency
		}
	}
	d.mu.Unlock()
	time.Sleep(delay)
	return n, nil
}

// FileSize passes through.
func (d *Disk) FileSize(name string) int { return d.inner.FileSize(name) }

// RemoveFile passes through.
func (d *Disk) RemoveFile(name string) error { return d.inner.RemoveFile(name) }

// Sync passes through.
func (d *Disk) Sync(name string) error { return d.inner.Sync(name) }
