// Package mem provides the paged, permission-checked memory substrate that
// both the SGX enclave model (internal/sgx) and the native-Linux baseline
// (internal/linuxsim) build on.
//
// A Paged memory is a contiguous range of virtual addresses divided into
// 4 KiB pages. Every page is either unmapped or mapped with some
// combination of read/write/execute permissions. Accesses that touch an
// unmapped page or violate permissions return a Fault — the model of the
// hardware #PF that makes MMDSFI's guard regions and non-executable data
// regions effective.
package mem

import (
	"errors"
	"fmt"
	"sync/atomic"
)

// PageSize is the page granularity, matching SGX EPC pages.
const PageSize = 4096

// pageShift is log2(PageSize), for the single-page fast paths.
const pageShift = 12

// Perm is a page permission bit set.
type Perm uint8

// Permission bits.
const (
	PermR Perm = 1 << iota // readable
	PermW                  // writable
	PermX                  // executable

	PermRW  = PermR | PermW
	PermRX  = PermR | PermX
	PermRWX = PermR | PermW | PermX
)

// permDirty is the per-page dirty bit. It lives in the permission word
// beside R/W/X because Store already loads that word: the fast path
// tests one more bit of a value it has in a register. It is not a
// permission — PermAt, check and Fault.Unmapped mask it out, and Map
// preserves it — and it obeys one invariant at every instant: a page
// whose bit is clear holds only zero bytes. Every writer therefore
// marks BEFORE it writes, and only ScrubDirty, after zeroing, clears.
const permDirty = 1 << 3

// String renders the permission like "rwx".
func (p Perm) String() string {
	s := []byte("---")
	if p&PermR != 0 {
		s[0] = 'r'
	}
	if p&PermW != 0 {
		s[1] = 'w'
	}
	if p&PermX != 0 {
		s[2] = 'x'
	}
	return string(s)
}

// Access distinguishes the kinds of memory access for fault reporting.
type Access uint8

// Access kinds.
const (
	AccessRead Access = iota
	AccessWrite
	AccessExec
)

func (a Access) String() string {
	switch a {
	case AccessRead:
		return "read"
	case AccessWrite:
		return "write"
	case AccessExec:
		return "exec"
	}
	return "access?"
}

// Fault describes a memory access violation (the hardware #PF analog).
type Fault struct {
	// Addr is the faulting virtual address.
	Addr uint64
	// Access is the attempted access kind.
	Access Access
	// Unmapped is true when the page was not mapped at all (e.g. an
	// MMDSFI guard region), false for a permission violation.
	Unmapped bool
}

// Error implements the error interface.
func (f *Fault) Error() string {
	why := "permission violation"
	if f.Unmapped {
		why = "unmapped page"
	}
	return fmt.Sprintf("page fault: %s at %#x: %s", f.Access, f.Addr, why)
}

// ErrRange reports an address range outside the memory object entirely.
var ErrRange = errors.New("mem: address out of range")

// Paged is a permission-checked paged memory over a contiguous virtual
// address range [Base, Base+Size).
type Paged struct {
	base uint64
	data []byte
	// perms holds one permission word per page: the Perm bits (none set
	// means unmapped) plus permDirty. The elements are atomic because SIP
	// harts in one enclave share a Paged with the LibOS: a hart's
	// permission check (check, stampExec) can race a concurrent Map from
	// another thread.
	perms []atomic.Uint32
	// wx counts pages currently mapped writable+executable. While it is
	// zero — the overwhelmingly common case outside the loader — no
	// untrusted store can touch an executable page (stores need PermW),
	// so stampExec reduces to this single counter check. Map publishes
	// increments BEFORE the permission words and decrements after, so a
	// store that observes a W+X mapping can never see a zero counter.
	wx atomic.Int64

	// gen is a monotonic sequence number of code-affecting mutations:
	// mapping changes, trusted writes, and stores that hit an executable
	// page. pageGen records, per page, the gen value of the last such
	// mutation touching that page, so virtual CPUs can invalidate their
	// translated-code caches at page granularity — a store to a data
	// page never disturbs the generation of a code page.
	//
	// All are maintained with atomics, and every mutator writes its
	// bytes (or permissions) BEFORE stamping: SIP harts in one enclave
	// share a Paged and may mutate concurrently with the LibOS. The
	// write-then-stamp order gives translators a sound protocol — read
	// Generation() before decoding, and treat any span stamp above that
	// snapshot as an invalidation — under which a decode that raced a
	// mutation can never be cached with a generation that hides it.
	//
	// stamping counts stamp operations currently in flight (global
	// counter bumped, page stamps possibly not yet stored). Translation
	// caches that memoize "this block was valid as of Generation() == G"
	// may do so only when Quiescent() held before their span check:
	// otherwise a span check could miss an in-flight page stamp whose
	// value is already ≤ G, and the memo would hide that mutation
	// forever (a per-visit span check merely sees it one visit later).
	gen      atomic.Uint64
	stamping atomic.Int64
	pageGen  []uint64 // elements accessed atomically
}

// NewPaged creates a memory of size bytes (rounded up to a whole number of
// pages) based at base. All pages start unmapped. base must be
// page-aligned.
func NewPaged(base, size uint64) *Paged {
	if base%PageSize != 0 {
		panic("mem: base must be page-aligned")
	}
	npages := (size + PageSize - 1) / PageSize
	return &Paged{
		base:    base,
		data:    make([]byte, npages*PageSize),
		perms:   make([]atomic.Uint32, npages),
		pageGen: make([]uint64, npages),
	}
}

// Base returns the lowest virtual address of the memory.
func (m *Paged) Base() uint64 { return m.base }

// Size returns the size of the virtual range in bytes.
func (m *Paged) Size() uint64 { return uint64(len(m.data)) }

// Limit returns one past the highest virtual address.
func (m *Paged) Limit() uint64 { return m.base + uint64(len(m.data)) }

// Generation returns the global mutation counter. It increases whenever
// the mapping is changed (Map), contents are changed through trusted
// interfaces (WriteDirect, ScrubDirty), or an untrusted store hits an
// executable page — every event after which previously decoded code may
// be stale.
func (m *Paged) Generation() uint64 { return m.gen.Load() }

// BumpGeneration advances the global mutation counter without stamping
// any page — to every translation-cache memo, an "unrelated mutation"
// that forces one re-validation (which succeeds, since no page moved).
// The interpreter's preemption request uses it to knock chained
// execution off its fast path, whose per-block Generation() load then
// doubles as the preempt poll: asynchronous preemption costs the hot
// path nothing.
func (m *Paged) BumpGeneration() { m.gen.Add(1) }

// GenerationOf returns the mutation generation of the span
// [addr, addr+n): the largest per-page generation over the pages the
// span overlaps. Translated-code caches snapshot this value when
// decoding a block and treat any later change as an invalidation
// signal; mutations of pages outside the span leave it untouched.
// A degenerate or out-of-range span reports 0.
func (m *Paged) GenerationOf(addr uint64, n int) uint64 {
	if n <= 0 || !m.Contains(addr, n) {
		return 0
	}
	first, last := m.pageIndex(addr), m.pageIndex(addr+uint64(n)-1)
	if first == last {
		// Single-page span — the common case for translated basic
		// blocks, revalidated on every chained block transition.
		return atomic.LoadUint64(&m.pageGen[first])
	}
	var g uint64
	for i := first; i <= last; i++ {
		if pg := atomic.LoadUint64(&m.pageGen[i]); pg > g {
			g = pg
		}
	}
	return g
}

// Span is a byte range of translated code together with the generation
// snapshot under which its bytes were decoded. Multi-block translation
// units (the vm's superblocks) record one Span per component block and
// revalidate them all with SpansCurrent — the same write-then-stamp
// protocol as single blocks, span by span.
type Span struct {
	Addr uint64
	N    int
	Gen  uint64
}

// SpansCurrent reports whether every span is still current: no page a
// span overlaps carries a stamp above that span's Gen snapshot. Under
// the write-then-stamp protocol this means no mutation the spans' decode
// could have missed has touched them, so a translation unit built from
// them all may keep executing. Like GenerationOf, a concurrent in-flight
// stamp may be transiently missed; callers memoizing a true result
// against Generation() must sample Quiescent() before calling.
func (m *Paged) SpansCurrent(spans []Span) bool {
	for i := range spans {
		if m.GenerationOf(spans[i].Addr, spans[i].N) > spans[i].Gen {
			return false
		}
	}
	return true
}

// stamp records one mutation touching pages [first, last]. The
// stamping window opens before the counter bump and closes after the
// last page stamp lands, so Quiescent() can tell validators when no
// stamp value ≤ Generation() is still in flight.
func (m *Paged) stamp(first, last int) {
	m.stamping.Add(1)
	g := m.gen.Add(1)
	for i := first; i <= last; i++ {
		storeMax(&m.pageGen[i], g)
	}
	m.stamping.Add(-1)
}

// Quiescent reports that no stamp operation was in flight at the
// moment of the call: every page stamp of every mutation counted in
// Generation() is visible. Callers memoizing validity against a
// Generation() value must sample this BEFORE their span checks —
// mutations starting later will advance Generation() past the
// memoized value and so cannot be hidden by the memo.
func (m *Paged) Quiescent() bool { return m.stamping.Load() == 0 }

// storeMax publishes g to *p unless a concurrent stamper already
// published a later one — a blind store could bury a newer stamp under
// an older value and hide that mutation from translators forever.
func storeMax(p *uint64, g uint64) {
	for {
		old := atomic.LoadUint64(p)
		if old >= g || atomic.CompareAndSwapUint64(p, old, g) {
			return
		}
	}
}

// stampExec records a store to [addr, addr+n) on whichever of its pages
// are executable. Stores to plain data pages leave every generation
// untouched (they cannot stale decoded code); stores through a
// writable+executable mapping — self-modifying code, as in a LibOS
// loader pool — invalidate exactly the pages written.
func (m *Paged) stampExec(addr uint64, n int) {
	if m.wx.Load() == 0 {
		// No writable+executable page exists, and the store already
		// passed its write-permission check — it cannot have touched an
		// executable page. One counter load instead of a page scan.
		return
	}
	if n <= 0 {
		return
	}
	first, last := m.pageIndex(addr), m.pageIndex(addr+uint64(n)-1)
	var g uint64
	stamping := false
	for i := first; i <= last; i++ {
		if Perm(m.perms[i].Load())&PermX != 0 {
			if !stamping {
				// Open the stamping window before the counter bump,
				// as in stamp.
				m.stamping.Add(1)
				stamping = true
				g = m.gen.Add(1)
			}
			storeMax(&m.pageGen[i], g)
		}
	}
	if stamping {
		m.stamping.Add(-1)
	}
}

// Contains reports whether [addr, addr+n) lies inside the virtual range.
func (m *Paged) Contains(addr uint64, n int) bool {
	return addr >= m.base && addr+uint64(n) >= addr && addr+uint64(n) <= m.Limit()
}

func (m *Paged) pageIndex(addr uint64) int { return int((addr - m.base) / PageSize) }

// Map sets the permission of every page overlapping [addr, addr+n) to
// perm. Mapping with perm 0 unmaps the pages. addr and n need not be
// page-aligned; the whole overlapped pages are affected.
func (m *Paged) Map(addr uint64, n uint64, perm Perm) error {
	if n == 0 {
		return nil
	}
	if !m.Contains(addr, 1) || !m.Contains(addr+n-1, 1) {
		return fmt.Errorf("%w: map [%#x,+%#x)", ErrRange, addr, n)
	}
	first, last := m.pageIndex(addr), m.pageIndex(addr+n-1)
	perm &= PermRWX
	isWX := perm&PermW != 0 && perm&PermX != 0
	if isWX {
		// Count the pages before their permissions become visible: a
		// concurrent store that observes the new W+X mapping must not
		// pass stampExec's zero-counter fast path.
		m.wx.Add(int64(last - first + 1))
	}
	var wasWX int64
	for i := first; i <= last; i++ {
		// The dirty bit is content state, not mapping state: it survives
		// any remap (a store racing the swap may set it in between, hence
		// the CAS loop), so unmap/remap cannot hide a written page from
		// ScrubDirty.
		old := m.perms[i].Load()
		for !m.perms[i].CompareAndSwap(old, uint32(perm)|old&permDirty) {
			old = m.perms[i].Load()
		}
		if Perm(old)&PermW != 0 && Perm(old)&PermX != 0 {
			wasWX++
		}
	}
	// Pages that were already W+X are either double-counted (isWX) or
	// no longer W+X; either way their old count comes off now, after
	// the permission words are published.
	if wasWX > 0 {
		m.wx.Add(-wasWX)
	}
	m.stamp(first, last)
	return nil
}

// PermAt returns the permission of the page containing addr, or 0 if addr
// is outside the range.
func (m *Paged) PermAt(addr uint64) Perm {
	if !m.Contains(addr, 1) {
		return 0
	}
	return Perm(m.perms[m.pageIndex(addr)].Load()) & PermRWX
}

// check validates an n-byte access at addr for the given access kind.
func (m *Paged) check(addr uint64, n int, access Access) *Fault {
	if n <= 0 {
		return nil
	}
	if !m.Contains(addr, n) {
		return &Fault{Addr: addr, Access: access, Unmapped: true}
	}
	var need Perm
	switch access {
	case AccessRead:
		need = PermR
	case AccessWrite:
		need = PermW
	case AccessExec:
		need = PermX
	}
	first, last := m.pageIndex(addr), m.pageIndex(addr+uint64(n)-1)
	for i := first; i <= last; i++ {
		p := Perm(m.perms[i].Load())
		if p&need == 0 {
			return &Fault{
				Addr:     max64(addr, m.base+uint64(i)*PageSize),
				Access:   access,
				Unmapped: p&PermRWX == 0,
			}
		}
	}
	return nil
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// inOnePage reports whether [off, off+n) lies inside the data slice and
// within a single page, and returns the page index. It is the guard of
// the single-page fast paths: callers substitute one bounds compare and
// one permission load for the general Contains + per-page loop. An off
// that underflowed (addr below base) wraps to a huge value and fails the
// length compare.
func (m *Paged) inOnePage(off uint64, n uint64) (int, bool) {
	if off >= uint64(len(m.data)) || uint64(len(m.data))-off < n {
		return 0, false
	}
	pg := off >> pageShift
	if (off+n-1)>>pageShift != pg {
		return 0, false
	}
	return int(pg), true
}

// Load reads an n-byte little-endian value (n must be 1 or 8) at addr,
// checking read permission on every page touched.
func (m *Paged) Load(addr uint64, n int) (uint64, *Fault) {
	off := addr - m.base
	if n == 8 {
		if pg, ok := m.inOnePage(off, 8); ok && Perm(m.perms[pg].Load())&PermR != 0 {
			b := m.data[off : off+8]
			return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
				uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56, nil
		}
	} else if n == 1 {
		if pg, ok := m.inOnePage(off, 1); ok && Perm(m.perms[pg].Load())&PermR != 0 {
			return uint64(m.data[off]), nil
		}
	}
	// Slow path: cross-page accesses and fault materialization.
	if f := m.check(addr, n, AccessRead); f != nil {
		return 0, f
	}
	if n == 1 {
		return uint64(m.data[off]), nil
	}
	b := m.data[off : off+8]
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56, nil
}

// Store writes an n-byte little-endian value (n must be 1 or 8) at addr,
// checking write permission on every page touched. The store is atomic
// with respect to faults: nothing is written if any byte would fault.
func (m *Paged) Store(addr uint64, n int, v uint64) *Fault {
	off := addr - m.base
	// Both fast paths still run stampExec after the write (one counter
	// load in the common no-W+X case): gating it on the permission
	// word loaded *before* the write would drop the stamp when a
	// concurrent Map made the page executable in between.
	if n == 8 {
		if pg, ok := m.inOnePage(off, 8); ok {
			if pw := m.perms[pg].Load(); Perm(pw)&PermW != 0 {
				m.markPage(pg, pw)
				b := m.data[off : off+8]
				b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
				b[4], b[5], b[6], b[7] = byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56)
				m.stampExec(addr, n)
				return nil
			}
		}
	} else if n == 1 {
		if pg, ok := m.inOnePage(off, 1); ok {
			if pw := m.perms[pg].Load(); Perm(pw)&PermW != 0 {
				m.markPage(pg, pw)
				m.data[off] = byte(v)
				m.stampExec(addr, n)
				return nil
			}
		}
	}
	// Slow path: cross-page accesses and fault materialization.
	if f := m.check(addr, n, AccessWrite); f != nil {
		return f
	}
	m.markDirty(addr, n)
	if n == 1 {
		m.data[off] = byte(v)
	} else {
		b := m.data[off : off+8]
		b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
		b[4], b[5], b[6], b[7] = byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56)
	}
	m.stampExec(addr, n)
	return nil
}

// Fetch returns a read-only view of [addr, addr+n) after checking execute
// permission, for instruction decode.
func (m *Paged) Fetch(addr uint64, n int) ([]byte, *Fault) {
	off := addr - m.base
	if n > 0 {
		if pg, ok := m.inOnePage(off, uint64(n)); ok && Perm(m.perms[pg].Load())&PermX != 0 {
			return m.data[off : off+uint64(n)], nil
		}
	}
	if f := m.check(addr, n, AccessExec); f != nil {
		return nil, f
	}
	return m.data[off : off+uint64(n)], nil
}

// ReadAt copies n bytes at addr into a fresh slice, checking read
// permission. It is intended for user-visible reads done on a process's
// behalf (e.g. the LibOS copying a syscall buffer).
func (m *Paged) ReadAt(addr uint64, n int) ([]byte, *Fault) {
	if f := m.check(addr, n, AccessRead); f != nil {
		return nil, f
	}
	out := make([]byte, n)
	copy(out, m.data[addr-m.base:])
	return out, nil
}

// WriteAt copies b to addr, checking write permission.
func (m *Paged) WriteAt(addr uint64, b []byte) *Fault {
	if len(b) == 0 {
		return nil
	}
	if f := m.check(addr, len(b), AccessWrite); f != nil {
		return f
	}
	m.markDirty(addr, len(b))
	copy(m.data[addr-m.base:], b)
	m.stampExec(addr, len(b))
	return nil
}

// View is a borrowed slice of guest memory: B aliases the backing store
// directly, so reads and writes through it touch the guest's bytes with
// no staging copy. The loan is permission-checked at creation and
// generation-stamped: any remap (Map), trusted write (WriteDirect,
// ScrubDirty), or exec-page store landing on the span after the loan was
// taken raises the span's generation above the loan's snapshot, and
// Revoked reports it. Plain data stores do not revoke a loan — they are
// exactly the traffic loans exist to carry.
//
// Lifetime rules (the "loan protocol"):
//
//   - A loan is only as fresh as its last Revoked check. Holders must
//     re-check at every commit point — in particular after any operation
//     that can run guest code or another syscall (park/resume
//     boundaries), since those may remap the span.
//   - Writers fill B and then call CommitWrite, which preserves the
//     write-then-stamp ordering WriteAt uses (bytes first, then the
//     exec-page stamp), so the SMC invalidation contract is identical
//     whether a page is written through WriteAt or through a loan.
//   - A revoked loan's bytes must not be interpreted: the mapping they
//     were checked under is gone. Callers surface EFAULT or re-take the
//     loan.
//
// Revocation is checked against the same per-page stamps the
// translation caches use; like them, a loan validated concurrently with
// an in-flight stamp may see the revocation one check later. Syscall
// paths take and commit loans from the SIP's own execution context, so
// remaps they can race are their own and strictly ordered.
type View struct {
	// B is the borrowed span, aliasing guest memory. Its capacity is
	// clipped to the loan so an append cannot scribble past it.
	B []byte

	m    *Paged
	addr uint64
	gen  uint64
}

// ViewBytes lends out [addr, addr+n) as a View after checking the given
// access kind on every page the span overlaps. The returned slice
// aliases guest memory — this is the zero-copy entry point syscalls use
// to read or write user buffers in place instead of staging through
// temp copies. A zero-length span yields an empty, never-revoked loan.
func (m *Paged) ViewBytes(addr uint64, n int, access Access) (View, *Fault) {
	if n <= 0 {
		return View{}, nil
	}
	// Snapshot the generation BEFORE the permission check: a Map racing
	// the check publishes its permission words first and stamps after,
	// so whichever permissions the check observed, the remap's stamp is
	// above this snapshot and Revoked will report it.
	gen := m.GenerationOf(addr, n)
	if f := m.check(addr, n, access); f != nil {
		return View{}, f
	}
	if access == AccessWrite {
		// The holder writes through B with no further call into Paged
		// until CommitWrite, so the whole span is marked up front.
		m.markDirty(addr, n)
	}
	off := addr - m.base
	return View{
		B:    m.data[off : off+uint64(n) : off+uint64(n)],
		m:    m,
		addr: addr,
		gen:  gen,
	}, nil
}

// Revoked reports whether the loan has been invalidated: some page of
// the span carries a mutation stamp above the loan's snapshot, meaning
// the span was remapped (or trusted-written, or hit by an exec-page
// store) after the loan was taken. Plain data stores never revoke.
func (v *View) Revoked() bool {
	if v.m == nil {
		return false
	}
	return v.m.GenerationOf(v.addr, len(v.B)) > v.gen
}

// CommitWrite publishes the first n bytes written through a write loan:
// it re-validates the loan and then stamps any executable pages in the
// written prefix, exactly as WriteAt would (bytes were already stored
// through B — write-then-stamp holds). It reports false, without
// stamping, if the loan was revoked; the caller must then treat the
// write as faulted rather than interpret bytes under a dead mapping.
func (v *View) CommitWrite(n int) bool {
	if v.Revoked() {
		return false
	}
	if v.m != nil && n > 0 {
		if n > len(v.B) {
			n = len(v.B)
		}
		v.m.stampExec(v.addr, n)
	}
	return true
}

// ReadDirect returns a view of [addr, addr+n) with no permission checks.
// It models trusted in-enclave code (the LibOS) touching its own memory
// and must never be reachable from sandboxed user code.
func (m *Paged) ReadDirect(addr uint64, n int) ([]byte, error) {
	if !m.Contains(addr, n) {
		return nil, fmt.Errorf("%w: direct read [%#x,+%d)", ErrRange, addr, n)
	}
	return m.data[addr-m.base : addr-m.base+uint64(n)], nil
}

// WriteDirect writes b at addr with no permission checks (trusted loader
// and LibOS writes) and bumps the generation of the pages written.
func (m *Paged) WriteDirect(addr uint64, b []byte) error {
	if !m.Contains(addr, len(b)) {
		return fmt.Errorf("%w: direct write [%#x,+%d)", ErrRange, addr, len(b))
	}
	if len(b) == 0 {
		return nil
	}
	m.markDirty(addr, len(b))
	copy(m.data[addr-m.base:], b)
	m.stamp(m.pageIndex(addr), m.pageIndex(addr+uint64(len(b))-1))
	return nil
}

// markDirty sets the dirty bit of every page [addr, addr+n) overlaps
// (n > 0, range already validated). Writers call it before they write.
func (m *Paged) markDirty(addr uint64, n int) {
	first, last := m.pageIndex(addr), m.pageIndex(addr+uint64(n)-1)
	for i := first; i <= last; i++ {
		m.markPage(i, m.perms[i].Load())
	}
}

// markPage sets page pg's dirty bit given its permission word pw as the
// caller just loaded it: one atomic Or on a page's first write, a
// register test on every later one.
func (m *Paged) markPage(pg int, pw uint32) {
	if pw&permDirty == 0 {
		m.perms[pg].Or(permDirty)
	}
}

// ScrubDirty zeroes exactly the dirty pages overlapping [addr, addr+n),
// clears their dirty bits, and returns how many pages that was. Pages
// whose bit is clear hold only zeros already (see permDirty) and are not
// touched — not even read — so scrubbing a domain costs what its last
// tenant wrote, not what was reserved for it.
//
// Each scrubbed page is zeroed, then unmarked, then stamped, all stamps
// sharing one stamping window and one generation: to translation caches
// and outstanding loans the scrub is one trusted write over those pages,
// exactly as if WriteDirect had zeroed them. Clean pages are not
// stamped; nothing about them changed.
//
// The caller must own the range: a store racing the scrub can land
// between the zeroing and the unmarking and be left unmarked. The LibOS
// scrubs a domain only after its SIP is dead.
func (m *Paged) ScrubDirty(addr, n uint64) (int, error) {
	if n == 0 {
		return 0, nil
	}
	if !m.Contains(addr, 1) || !m.Contains(addr+n-1, 1) {
		return 0, fmt.Errorf("%w: scrub [%#x,+%#x)", ErrRange, addr, n)
	}
	first, last := m.pageIndex(addr), m.pageIndex(addr+n-1)
	var g uint64
	scrubbed := 0
	for i := first; i <= last; i++ {
		if m.perms[i].Load()&permDirty == 0 {
			continue
		}
		clear(m.data[i*PageSize : (i+1)*PageSize])
		m.perms[i].And(^uint32(permDirty))
		if scrubbed == 0 {
			// Open the stamping window before the counter bump, as in
			// stamp.
			m.stamping.Add(1)
			g = m.gen.Add(1)
		}
		storeMax(&m.pageGen[i], g)
		scrubbed++
	}
	if scrubbed > 0 {
		m.stamping.Add(-1)
	}
	return scrubbed, nil
}
