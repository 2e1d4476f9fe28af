package mem

import (
	"sync"
	"testing"
	"testing/quick"
)

func newTest(t *testing.T) *Paged {
	t.Helper()
	m := NewPaged(0x10000, 16*PageSize)
	if err := m.Map(0x10000, 4*PageSize, PermRW); err != nil {
		t.Fatal(err)
	}
	if err := m.Map(0x10000+8*PageSize, 2*PageSize, PermRX); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestLoadStoreRoundTrip(t *testing.T) {
	m := newTest(t)
	if f := m.Store(0x10008, 8, 0xDEADBEEFCAFEF00D); f != nil {
		t.Fatal(f)
	}
	v, f := m.Load(0x10008, 8)
	if f != nil || v != 0xDEADBEEFCAFEF00D {
		t.Fatalf("load = %#x, %v", v, f)
	}
	if f := m.Store(0x10010, 1, 0xAB); f != nil {
		t.Fatal(f)
	}
	v, f = m.Load(0x10010, 1)
	if f != nil || v != 0xAB {
		t.Fatalf("byte load = %#x, %v", v, f)
	}
}

func TestUnmappedFaults(t *testing.T) {
	m := newTest(t)
	// Page 4 is unmapped (a guard region, in MMDSFI terms).
	addr := m.Base() + 4*PageSize
	if _, f := m.Load(addr, 8); f == nil || !f.Unmapped {
		t.Fatalf("load from unmapped page: fault = %v", f)
	}
	if f := m.Store(addr, 8, 1); f == nil || !f.Unmapped {
		t.Fatalf("store to unmapped page: fault = %v", f)
	}
	if _, f := m.Fetch(addr, 1); f == nil || !f.Unmapped {
		t.Fatalf("fetch from unmapped page: fault = %v", f)
	}
}

func TestPermissionFaults(t *testing.T) {
	m := newTest(t)
	code := m.Base() + 8*PageSize // RX

	// NX data: fetching from an RW page faults.
	if _, f := m.Fetch(m.Base(), 1); f == nil || f.Access != AccessExec {
		t.Fatalf("fetch from rw page: fault = %v", f)
	}
	// Read-only code: writing an RX page faults.
	f := m.Store(code, 8, 1)
	if f == nil || f.Access != AccessWrite {
		t.Fatalf("store to rx page: fault = %v", f)
	}
	if f.Unmapped {
		t.Fatal("permission fault misreported as unmapped")
	}
	// Fetch from RX succeeds.
	if _, f := m.Fetch(code, 8); f != nil {
		t.Fatalf("fetch from rx page: %v", f)
	}
}

func TestCrossPageAccessAtomicity(t *testing.T) {
	m := newTest(t)
	// An 8-byte store straddling mapped page 3 and unmapped page 4
	// must fault and write nothing.
	addr := m.Base() + 4*PageSize - 4
	before, _ := m.ReadDirect(addr, 4)
	orig := append([]byte(nil), before...)
	if f := m.Store(addr, 8, ^uint64(0)); f == nil {
		t.Fatal("straddling store should fault")
	}
	after, _ := m.ReadDirect(addr, 4)
	for i := range orig {
		if after[i] != orig[i] {
			t.Fatal("faulting store wrote partial data")
		}
	}
}

func TestOutOfRange(t *testing.T) {
	m := newTest(t)
	if _, f := m.Load(m.Limit(), 8); f == nil {
		t.Fatal("load beyond limit should fault")
	}
	if _, f := m.Load(m.Base()-8, 8); f == nil {
		t.Fatal("load below base should fault")
	}
	// Wraparound: addr+n overflows.
	if _, f := m.Load(^uint64(0)-3, 8); f == nil {
		t.Fatal("wrapping access should fault")
	}
	if _, err := m.ReadDirect(m.Limit()-4, 8); err == nil {
		t.Fatal("direct read beyond limit should error")
	}
}

func TestGenerationBumps(t *testing.T) {
	m := newTest(t)
	g0 := m.Generation()
	if err := m.WriteDirect(m.Base(), []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if m.Generation() == g0 {
		t.Fatal("WriteDirect should bump generation")
	}
	g1 := m.Generation()
	if err := m.Map(m.Base(), PageSize, PermR); err != nil {
		t.Fatal(err)
	}
	if m.Generation() == g1 {
		t.Fatal("Map should bump generation")
	}
	// Untrusted stores to plain data pages do not bump the generation:
	// they cannot change executable bytes.
	g2 := m.Generation()
	if f := m.Store(m.Base()+PageSize, 8, 7); f != nil {
		t.Fatal(f)
	}
	if m.Generation() != g2 {
		t.Fatal("Store to a data page should not bump generation")
	}
	// A store through a writable+executable mapping is self-modifying
	// code and must bump the generation.
	if err := m.Map(m.Base()+10*PageSize, PageSize, PermRWX); err != nil {
		t.Fatal(err)
	}
	g3 := m.Generation()
	if f := m.Store(m.Base()+10*PageSize, 8, 7); f != nil {
		t.Fatal(f)
	}
	if m.Generation() == g3 {
		t.Fatal("Store to a writable+executable page should bump generation")
	}
}

func TestGenerationOfPageGranular(t *testing.T) {
	m := newTest(t) // pages 0-3 RW (data), pages 8-9 RX (code)
	data := m.Base()
	code := m.Base() + 8*PageSize

	gCode := m.GenerationOf(code, 2*PageSize)
	gData := m.GenerationOf(data, PageSize)

	// A trusted write to a data page advances that page's generation
	// but leaves the code span untouched.
	if err := m.WriteDirect(data, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if got := m.GenerationOf(code, 2*PageSize); got != gCode {
		t.Fatalf("code span generation moved on data write: %d -> %d", gCode, got)
	}
	if got := m.GenerationOf(data, PageSize); got == gData {
		t.Fatal("data span generation did not move on data write")
	}

	// Untrusted stores to data pages move no generation at all.
	gCode = m.GenerationOf(code, 2*PageSize)
	gData = m.GenerationOf(data, PageSize)
	if f := m.Store(data+8, 8, 42); f != nil {
		t.Fatal(f)
	}
	if m.GenerationOf(data, PageSize) != gData || m.GenerationOf(code, 2*PageSize) != gCode {
		t.Fatal("untrusted data store moved a generation")
	}

	// Remapping the code span advances it.
	if err := m.Map(code, PageSize, PermRW); err != nil {
		t.Fatal(err)
	}
	if got := m.GenerationOf(code, 2*PageSize); got == gCode {
		t.Fatal("code span generation did not move on remap")
	}

	// A WriteAt through a writable+executable page advances it.
	if err := m.Map(m.Base()+10*PageSize, PageSize, PermRWX); err != nil {
		t.Fatal(err)
	}
	rwx := m.Base() + 10*PageSize
	gRWX := m.GenerationOf(rwx, PageSize)
	if f := m.WriteAt(rwx, []byte{0xCC}); f != nil {
		t.Fatal(f)
	}
	if got := m.GenerationOf(rwx, PageSize); got == gRWX {
		t.Fatal("rwx span generation did not move on WriteAt")
	}

	// Degenerate spans report zero.
	if got := m.GenerationOf(m.Base(), 0); got != 0 {
		t.Fatalf("empty span generation = %d, want 0", got)
	}
	if got := m.GenerationOf(m.Limit(), 8); got != 0 {
		t.Fatalf("out-of-range span generation = %d, want 0", got)
	}
}

func TestConcurrentMapStoreRace(t *testing.T) {
	// Regression test (run under -race): SIP harts share a Paged with
	// the LibOS, so a hart's Store (which reads page permissions in its
	// check and in stampExec) can race a concurrent Map rewriting those
	// permissions. Page permissions must therefore be atomically
	// accessed. The Map flips a page between RW and RWX, so the stores
	// — through the general entry and through Store8 and Store1 with a
	// handler's fall-through — meet every state of the word: accepted,
	// declined as executable, and turned executable between the sized
	// entry's two reads. (What must hold in each of those orders is
	// checked one step at a time by TestStoreVsMapExecInterleavings.)
	m := NewPaged(0, 8*PageSize)
	if err := m.Map(0, 8*PageSize, PermRW); err != nil {
		t.Fatal(err)
	}
	const iters = 2000
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			perm := PermRW
			if i%2 == 0 {
				perm = PermRWX
			}
			if err := m.Map(2*PageSize, PageSize, perm); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			// Store into the page being remapped: permission checks and
			// exec stamping race the Map. (The data bytes themselves are
			// only touched by this goroutine.)
			var f *Fault
			switch i % 3 {
			case 0:
				f = m.Store(2*PageSize+64, 8, uint64(i))
			case 1:
				f = storeVia(m, 2*PageSize+64, 8, uint64(i))
			default:
				f = storeVia(m, 2*PageSize+72, 1, uint64(i))
			}
			if f != nil {
				t.Errorf("store: %v", f)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			// An unrelated data page: exercises the single-page fast
			// paths while the mapping mutates elsewhere.
			if f := storeVia(m, 4*PageSize, 8, uint64(i)); f != nil {
				t.Errorf("store: %v", f)
				return
			}
			if v, f := loadVia(m, 4*PageSize, 8); f != nil || v != uint64(i) {
				t.Errorf("load: %#x, %v", v, f)
				return
			}
		}
	}()
	wg.Wait()
}

func TestSinglePageFastPathFaults(t *testing.T) {
	// The fast paths must fall back to full fault materialization for
	// every non-trivial case: unmapped pages, permission violations,
	// page-straddling accesses, and out-of-range addresses.
	m := newTest(t) // pages 0-3 RW, pages 8-9 RX
	// Each of these is declined by the sized entries, touching nothing,
	// before the general entry materializes its fault or takes the slow
	// path.
	before := snapshot(m)
	for _, a := range []uint64{m.Base() + 5*PageSize, m.Base() + 8*PageSize, m.Base() - 8, m.Limit()} {
		if m.Store8(a, 1) || m.Store1(a, 1) {
			t.Fatalf("sized store at %#x accepted", a)
		}
	}
	for _, a := range []uint64{m.Base() + 5*PageSize, m.Base() - 1, m.Limit(), m.Limit() - 7} {
		if _, ok := m.Load8(a); ok {
			t.Fatalf("Load8 at %#x accepted", a)
		}
	}
	if _, ok := m.Load1(m.Limit()); ok {
		t.Fatal("Load1 at the limit accepted")
	}
	if _, ok := m.Load8(m.Base() + PageSize - 4); ok || m.Store8(m.Base()+PageSize-4, 1) {
		t.Fatal("a sized entry accepted a page-straddling access")
	}
	if d := before.diff(view(m)); d != "" {
		t.Fatalf("declining changed %s", d)
	}
	if f := m.Store(m.Base()+5*PageSize, 8, 1); f == nil || !f.Unmapped {
		t.Fatalf("store to unmapped: fault = %v", f)
	}
	if _, f := m.Load(m.Base()+5*PageSize, 1); f == nil || !f.Unmapped {
		t.Fatalf("byte load from unmapped: fault = %v", f)
	}
	if f := m.Store(m.Base()+8*PageSize, 1, 1); f == nil || f.Access != AccessWrite {
		t.Fatalf("store to rx: fault = %v", f)
	}
	if _, f := m.Fetch(m.Base(), 4); f == nil || f.Access != AccessExec {
		t.Fatalf("fetch from rw: fault = %v", f)
	}
	// A straddling load across two mapped RW pages succeeds via the
	// slow path.
	if f := m.Store(m.Base()+PageSize-4, 8, 0x1122334455667788); f != nil {
		t.Fatal(f)
	}
	v, f := m.Load(m.Base()+PageSize-4, 8)
	if f != nil || v != 0x1122334455667788 {
		t.Fatalf("straddling load = %#x, %v", v, f)
	}
	// A fetch straddling the RX pages succeeds via the slow path.
	if _, f := m.Fetch(m.Base()+9*PageSize-2, 4); f != nil {
		t.Fatalf("straddling fetch: %v", f)
	}
}

func TestReadWriteAt(t *testing.T) {
	m := newTest(t)
	msg := []byte("hello, enclave")
	if f := m.WriteAt(m.Base()+100, msg); f != nil {
		t.Fatal(f)
	}
	got, f := m.ReadAt(m.Base()+100, len(msg))
	if f != nil || string(got) != string(msg) {
		t.Fatalf("ReadAt = %q, %v", got, f)
	}
}

func TestLoadStoreQuick(t *testing.T) {
	m := NewPaged(0, 8*PageSize)
	if err := m.Map(0, 8*PageSize, PermRW); err != nil {
		t.Fatal(err)
	}
	// Property: a store followed by a load at the same address returns
	// the stored value (within the mapped region).
	prop := func(off uint32, v uint64) bool {
		addr := uint64(off) % (8*PageSize - 8)
		if f := m.Store(addr, 8, v); f != nil {
			return false
		}
		got, f := m.Load(addr, 8)
		return f == nil && got == v
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSpansCurrent(t *testing.T) {
	m := newTest(t) // pages 0-3 RW (data), pages 8-9 RX (code)
	code := m.Base() + 8*PageSize
	data := m.Base()

	spans := []Span{
		{Addr: code, N: 20, Gen: m.GenerationOf(code, 20)},
		{Addr: code + PageSize, N: 40, Gen: m.GenerationOf(code+PageSize, 40)},
	}
	if !m.SpansCurrent(spans) {
		t.Fatal("fresh spans not current")
	}

	// Mutations outside every span leave them current.
	if err := m.WriteDirect(data, []byte{1}); err != nil {
		t.Fatal(err)
	}
	m.BumpGeneration()
	if !m.SpansCurrent(spans) {
		t.Fatal("unrelated mutation invalidated spans")
	}

	// A mutation under ANY span invalidates the whole set — the unit of
	// validity for a multi-block translation.
	if err := m.WriteDirect(code+PageSize, []byte{0x90}); err != nil {
		t.Fatal(err)
	}
	if m.SpansCurrent(spans) {
		t.Fatal("stale span reported current")
	}
	// Re-snapshotting the stale span restores currency.
	spans[1].Gen = m.GenerationOf(spans[1].Addr, spans[1].N)
	if !m.SpansCurrent(spans) {
		t.Fatal("re-snapshotted spans not current")
	}

	// A remap (even permission-identical) under a span invalidates it.
	if err := m.Map(code, PageSize, PermRX); err != nil {
		t.Fatal(err)
	}
	if m.SpansCurrent(spans) {
		t.Fatal("remapped span reported current")
	}
}
