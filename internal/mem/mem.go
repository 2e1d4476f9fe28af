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
	"encoding/binary"
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
	for i := first; i <= last; i++ {
		// The dirty bit is content state, not mapping state: it survives
		// any remap (a store racing the swap may set it in between, hence
		// the CAS loop), so unmap/remap cannot hide a written page from
		// ScrubDirty.
		old := m.perms[i].Load()
		for !m.perms[i].CompareAndSwap(old, uint32(perm)|old&permDirty) {
			old = m.perms[i].Load()
		}
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

// onePage reports whether the n bytes (n > 0) at offset off lie inside
// the data slice and within a single page: the one guard of every
// single-page fast path. data is whole pages, so an in-range start that
// does not straddle a page end has an in-range end; an off that
// underflowed (addr below base) wraps to a huge value and fails the
// length compare.
func (m *Paged) onePage(off, n uint64) bool {
	return off < uint64(len(m.data)) && off&(PageSize-1)+n <= PageSize
}

// Load8, Load1, Store8 and Store1 are each the whole fast path of one
// sized access and nothing else: one page, and the permission present in
// the page's word as read for THIS access (nothing is remembered between
// accesses). A store further needs the page already dirty and not
// executable. On anything else they report false, declining with no side
// effect, and the caller falls through to Load or Store, which check
// every page, mark, stamp and materialise the Fault. The loads and the
// two store steps are small enough to inline (CI checks it).

// Load8 reads the 8-byte little-endian value at addr.
func (m *Paged) Load8(addr uint64) (uint64, bool) {
	off := addr - m.base
	if !m.onePage(off, 8) || m.perms[off>>pageShift].Load()&uint32(PermR) == 0 {
		return 0, false
	}
	return binary.LittleEndian.Uint64(m.data[off:]), true
}

// Load1 reads the byte at addr.
func (m *Paged) Load1(addr uint64) (uint64, bool) {
	off := addr - m.base
	if !m.onePage(off, 1) || m.perms[off>>pageShift].Load()&uint32(PermR) == 0 {
		return 0, false
	}
	return uint64(m.data[off]), true
}

// storable is the permission word of a page a sized store may write
// without marking or stamping it: writable, dirty, not executable.
const storable = uint32(PermW) | permDirty

// storeAccepts is the first step of a sized store: one page, storable.
func (m *Paged) storeAccepts(off, n uint64) bool {
	return m.onePage(off, n) && m.perms[off>>pageShift].Load()&(storable|uint32(PermX)) == storable
}

// storeDone is its last step, after the bytes are written: re-read the
// page's word, as stampExec does, and stamp if PermX is there now. A Map
// that made the page executable after storeAccepts read the word
// publishes the new word before it stamps, so either this re-read sees
// PermX or the Map's own stamp follows the write; trusting the first read
// would leave such a store unstamped (TestStoreVsMapExecInterleavings).
func (m *Paged) storeDone(addr, off uint64, n int) {
	if m.perms[off>>pageShift].Load()&uint32(PermX) != 0 {
		m.stampExec(addr, n)
	}
}

// Store8 writes v as 8 little-endian bytes at addr.
func (m *Paged) Store8(addr, v uint64) bool {
	off := addr - m.base
	if !m.storeAccepts(off, 8) {
		return false
	}
	binary.LittleEndian.PutUint64(m.data[off:], v)
	m.storeDone(addr, off, 8)
	return true
}

// Store1 writes the low byte of v at addr.
func (m *Paged) Store1(addr, v uint64) bool {
	off := addr - m.base
	if !m.storeAccepts(off, 1) {
		return false
	}
	m.data[off] = byte(v)
	m.storeDone(addr, off, 1)
	return true
}

// Load reads an n-byte little-endian value (n must be 1 or 8: anything
// else is a caller bug and panics) at addr, checking read permission on
// every page touched.
func (m *Paged) Load(addr uint64, n int) (uint64, *Fault) {
	switch n {
	case 8:
		if v, ok := m.Load8(addr); ok {
			return v, nil
		}
	case 1:
		if v, ok := m.Load1(addr); ok {
			return v, nil
		}
	default:
		panic(fmt.Sprintf("mem: Load of %d bytes: size must be 1 or 8", n))
	}
	// Slow path: cross-page accesses and fault materialization.
	if f := m.check(addr, n, AccessRead); f != nil {
		return 0, f
	}
	var b [8]byte
	copy(b[:n], m.data[addr-m.base:])
	return binary.LittleEndian.Uint64(b[:]), nil
}

// Store writes an n-byte little-endian value (n must be 1 or 8, as for
// Load) at addr, checking write permission on every page touched. The
// store is atomic with respect to faults: nothing is written if any
// byte would fault. Its fast path is Store8's and Store1's three steps
// in this frame, not a call to them.
func (m *Paged) Store(addr uint64, n int, v uint64) *Fault {
	off := addr - m.base
	switch {
	case n == 8 && m.storeAccepts(off, 8):
		binary.LittleEndian.PutUint64(m.data[off:], v)
	case n == 1 && m.storeAccepts(off, 1):
		m.data[off] = byte(v)
	case n != 1 && n != 8:
		panic(fmt.Sprintf("mem: Store of %d bytes: size must be 1 or 8", n))
	default:
		// Slow path: cross-page stores, a page's first write (marking),
		// executable pages (stamping) and fault materialization.
		if f := m.check(addr, n, AccessWrite); f != nil {
			return f
		}
		m.markDirty(addr, n)
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		copy(m.data[off:], b[:n])
		m.stampExec(addr, n)
		return nil
	}
	m.storeDone(addr, off, n)
	return nil
}

// Fetch returns a read-only view of [addr, addr+n) after checking execute
// permission, for instruction decode.
func (m *Paged) Fetch(addr uint64, n int) ([]byte, *Fault) {
	off := addr - m.base
	if n > 0 && m.onePage(off, uint64(n)) && m.perms[off>>pageShift].Load()&uint32(PermX) != 0 {
		return m.data[off : off+uint64(n)], nil
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
