package ring

import (
	"math/bits"
	"sync"
)

const (
	// poolBudget bounds the bytes one Pool holds idle: a few hundred
	// finished connections' worth of 1–16 KiB rings, or four bursts at
	// the host stream cap. What does not fit goes to the GC.
	poolBudget = 1 << poolBudgetShift

	poolBudgetShift = 20
	// poolClasses is the number of power-of-two size classes a Pool
	// keeps: minAlloc through poolBudget.
	poolClasses = poolBudgetShift - minAllocShift + 1
)

// Pool is a bounded free list of ring backing buffers, one list per
// power-of-two size. A Ring created through Pool.NewStream takes its
// buffer from the pool when it grows and gives it back when the stream
// finishes, when it outgrows it, or when a complete drain drops it past
// the keep threshold, so a stream that is opened, used and closed costs
// the bytes it moves rather than a fresh zeroed buffer.
//
// A recycled buffer is not cleared. Its old bytes stay unobservable
// because Peek lends only committed bytes and every Reserve run is
// filled before it is committed (Ring.Write, Move). Still, the bytes
// stay in memory until they are overwritten, so a pool must not span
// trust domains: each owner keeps its own, as a field (the host for its
// connections, each LibOS instance for its pipes), never a package
// variable.
//
// The zero value is an empty pool; a nil *Pool is valid and pools
// nothing. A Pool must not be copied after first use.
type Pool struct {
	mu   sync.Mutex
	held int // bytes on the free lists, ≤ poolBudget
	free [poolClasses][][]byte
}

// poolClass returns the free-list index for a buffer of size bytes, or
// -1 when no list keeps that size.
func poolClass(size int) int {
	if size < minAlloc || size&(size-1) != 0 {
		return -1
	}
	c := bits.TrailingZeros(uint(size)) - minAllocShift
	if c >= poolClasses {
		return -1
	}
	return c
}

// get pops a buffer of exactly size bytes, or returns nil. Its contents
// are whatever its last ring left there.
func (p *Pool) get(size int) []byte {
	c := poolClass(size)
	if p == nil || c < 0 {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	l := p.free[c]
	if len(l) == 0 {
		return nil
	}
	b := l[len(l)-1]
	l[len(l)-1] = nil
	p.free[c] = l[:len(l)-1]
	p.held -= len(b)
	return b
}

// put hands b back; the caller drops every reference to it. A buffer
// that would take the pool past its budget, or of a size no list keeps,
// is left to the GC.
func (p *Pool) put(b []byte) {
	c := poolClass(len(b))
	if p == nil || c < 0 {
		return
	}
	p.mu.Lock()
	if p.held+len(b) <= poolBudget {
		p.free[c] = append(p.free[c], b)
		p.held += len(b)
	}
	p.mu.Unlock()
}

// Held returns the bytes on the free lists.
func (p *Pool) Held() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.held
}

// NewStream returns an empty stream holding at most capacity bytes whose
// ring draws on p. A nil p allocates as the package-level NewStream does.
func (p *Pool) NewStream(capacity int) *Stream { return newStream(capacity, p) }
