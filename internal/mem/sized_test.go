package mem

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// storeVia and loadVia are a compiled handler's view of memory: the
// sized entry, then the general one when it declines.
func storeVia(m *Paged, addr uint64, n int, v uint64) *Fault {
	if n == 8 && m.Store8(addr, v) || n == 1 && m.Store1(addr, v) {
		return nil
	}
	return m.Store(addr, n, v)
}

func loadVia(m *Paged, addr uint64, n int) (uint64, *Fault) {
	if n == 8 {
		if v, ok := m.Load8(addr); ok {
			return v, nil
		}
	} else if v, ok := m.Load1(addr); ok {
		return v, nil
	}
	return m.Load(addr, n)
}

// pagedState is everything an access may change: bytes, permission
// words (dirty bits included), every page's generation, the counter.
type pagedState struct {
	data    []byte
	perms   []uint32
	pageGen []uint64
	gen     uint64
}

// view reads m's state in place: data aliases the memory, so it is
// good for comparing two memories now, not for before-and-after.
func view(m *Paged) pagedState {
	s := pagedState{data: m.data, gen: m.Generation()}
	for i := range m.perms {
		s.perms = append(s.perms, m.perms[i].Load())
		s.pageGen = append(s.pageGen, m.GenerationOf(m.base+uint64(i)*PageSize, 1))
	}
	return s
}

// snapshot is view with the bytes copied out.
func snapshot(m *Paged) pagedState {
	s := view(m)
	s.data = bytes.Clone(s.data)
	return s
}

func (s pagedState) diff(o pagedState) string {
	switch {
	case !bytes.Equal(s.data, o.data):
		return "bytes"
	case !slices.Equal(s.perms, o.perms):
		return fmt.Sprintf("permission words %v vs %v", s.perms, o.perms)
	case !slices.Equal(s.pageGen, o.pageGen):
		return fmt.Sprintf("page generations %v vs %v", s.pageGen, o.pageGen)
	case s.gen != o.gen:
		return fmt.Sprintf("generation %d vs %d", s.gen, o.gen)
	}
	return ""
}

// TestSizedEntriesAgreeWithGeneral is the contract of Load8, Load1,
// Store8 and Store1 over random page tables — every page unmapped, R, W,
// RW, RX or RWX, clean or dirty — and addresses biased to the edges:
// below base (the offset wraps), the last bytes of a page, the last page,
// at and past Limit(). A sized entry either declines and leaves the whole
// state untouched, or it did exactly what the general entry does on a
// twin Paged: same value, bytes, dirty bits, page generations, counter.
// It must not decline what it exists for (one page, permission present;
// for stores a dirty, non-executable page), and never succeeds where the
// general entry faults.
func TestSizedEntriesAgreeWithGeneral(t *testing.T) {
	const (
		base   = 0x30000
		npages = 6
	)
	perms := []Perm{0, PermR, PermW, PermRW, PermRX, PermRWX}
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		a, b := NewPaged(base, npages*PageSize), NewPaged(base, npages*PageSize)
		both := func(f func(m *Paged)) { f(a); f(b) }
		remap := func(pg int) {
			perm := perms[rng.Intn(len(perms))]
			both(func(m *Paged) {
				if err := m.Map(base+uint64(pg)*PageSize, PageSize, perm); err != nil {
					t.Fatal(err)
				}
			})
		}
		for pg := 0; pg < npages; pg++ {
			if rng.Intn(2) == 0 { // dirty: a trusted write marks it under any mapping
				fill := make([]byte, PageSize)
				rng.Read(fill)
				both(func(m *Paged) {
					if err := m.WriteDirect(base+uint64(pg)*PageSize, fill); err != nil {
						t.Fatal(err)
					}
				})
			}
			remap(pg)
		}
		pickAddr := func() uint64 {
			pg := uint64(rng.Intn(npages))
			switch rng.Intn(6) {
			case 0: // below base: addr-base wraps to a huge offset
				return base - 1 - uint64(rng.Intn(16))
			case 1: // the last bytes of a page: 8-byte accesses straddle
				return base + (pg+1)*PageSize - 1 - uint64(rng.Intn(8))
			case 2: // the last page, up to its last byte
				return base + npages*PageSize - 1 - uint64(rng.Intn(16))
			case 3: // at and past Limit()
				return base + npages*PageSize + uint64(rng.Intn(16))
			case 4: // far out: a wrapped or enormous offset
				return rng.Uint64()
			}
			return base + pg*PageSize + uint64(rng.Intn(PageSize))
		}
		for op := 0; op < 400; op++ {
			if rng.Intn(16) == 0 {
				remap(rng.Intn(npages))
				continue
			}
			if rng.Intn(32) == 0 {
				both(func(m *Paged) {
					if _, err := m.ScrubDirty(base, npages*PageSize); err != nil {
						t.Fatal(err)
					}
				})
				continue
			}
			addr, v := pickAddr(), rng.Uint64()
			n := []int{1, 8}[rng.Intn(2)]
			store := rng.Intn(2) == 0
			what := fmt.Sprintf("seed %d op %d: store=%v n=%d addr=%#x", seed, op, store, n, addr)

			off := addr - base
			inPage := off < npages*PageSize && off%PageSize+uint64(n) <= PageSize
			var pw uint32
			if inPage {
				pw = a.perms[off/PageSize].Load()
			}
			mustHit := inPage && Perm(pw)&PermR != 0
			if store {
				mustHit = inPage && Perm(pw)&(PermW|PermX) == PermW && pw&permDirty != 0
			}

			before := snapshot(a)
			var got uint64
			var hit bool
			switch {
			case store && n == 8:
				hit = a.Store8(addr, v)
			case store:
				hit = a.Store1(addr, v)
			case n == 8:
				got, hit = a.Load8(addr)
			default:
				got, hit = a.Load1(addr)
			}
			if hit != mustHit {
				t.Fatalf("%s: sized entry hit=%v, want %v (page word %#x)", what, hit, mustHit, pw)
			}
			if !hit {
				if d := before.diff(view(a)); d != "" {
					t.Fatalf("%s: declined but changed %s", what, d)
				}
			}
			// The general entry on the twin; on a decline the handler's
			// fall-through on a, so the twins stay twins.
			var want uint64
			var fb *Fault
			if store {
				fb = b.Store(addr, n, v)
				if !hit {
					if fa := a.Store(addr, n, v); (fa == nil) != (fb == nil) || fa != nil && *fa != *fb {
						t.Fatalf("%s: twins fault differently: %v vs %v", what, fa, fb)
					}
				}
			} else {
				want, fb = b.Load(addr, n)
				if !hit {
					var fa *Fault
					if got, fa = a.Load(addr, n); (fa == nil) != (fb == nil) || fa != nil && *fa != *fb {
						t.Fatalf("%s: twins fault differently: %v vs %v", what, fa, fb)
					}
				}
			}
			if hit && fb != nil {
				t.Fatalf("%s: sized entry succeeded where the general entry faults: %v", what, fb)
			}
			if got != want {
				t.Fatalf("%s: value %#x, general entry %#x", what, got, want)
			}
			if d := view(a).diff(view(b)); d != "" {
				t.Fatalf("%s: hit=%v, diverged from the general entry in %s", what, hit, d)
			}
		}
	}
}

// TestStoreVsMapExecInterleavings enumerates every interleaving of a
// sized store's three steps — S1 read the page's word and accept, S2
// write, S3 re-read the word and stamp if PermX is there — with the two
// steps of a Map that makes the page executable — M1 publish the word,
// M2 stamp. No test can pause inside Store8 or Map, so the steps are run
// one at a time on a real Paged: S1 and S3 are the very functions Store8
// and Store1 are made of (storeAccepts, storeDone), M1 and M2 the word
// CAS and the stamp Map is made of. The contract: a store that
// completes on a page that is executable by then is never left
// unstamped — when all five steps are done the page carries a stamp
// issued after the bytes landed, so a translation of the old bytes
// cannot survive. The same enumeration over a store that trusts its
// first read (no S3) must find the lost stamp, or this test checks
// nothing. The orders in which neither operation is split are also run
// through the real Store8 and Map.
func TestStoreVsMapExecInterleavings(t *testing.T) {
	const addr = 2*PageSize + 64
	const pg = 2
	fresh := func() *Paged {
		m := NewPaged(0, 4*PageSize)
		if err := m.Map(0, 4*PageSize, PermRW); err != nil {
			t.Fatal(err)
		}
		if f := m.Store(addr, 8, 1); f != nil { // dirty, so Store8 is in play
			t.Fatal(f)
		}
		return m
	}
	// run executes one interleaving; order holds 'S' and 'M' in the
	// sequence their next steps run. It reports whether a stamp issued
	// after the write is on the page at the end.
	run := func(order string, reread bool) bool {
		m := fresh()
		var accepted bool
		var atWrite uint64
		store := []func(){
			func() { accepted = m.storeAccepts(addr, 8) },
			func() {
				atWrite = m.Generation()
				if accepted {
					m.data[addr] = 0xAB
				} else if f := m.Store(addr, 8, 0xAB); f != nil { // declined: the general entry, whole
					t.Fatal(f)
				}
			},
			func() {
				if accepted && reread {
					m.storeDone(addr, addr, 8)
				}
			},
		}
		mapX := []func(){
			func() {
				old := m.perms[pg].Load()
				for !m.perms[pg].CompareAndSwap(old, uint32(PermRWX)|old&permDirty) {
					old = m.perms[pg].Load()
				}
			},
			func() { m.stamp(pg, pg) },
		}
		for _, who := range order {
			if who == 'S' {
				store[0]()
				store = store[1:]
			} else {
				mapX[0]()
				mapX = mapX[1:]
			}
		}
		if m.data[addr] != 0xAB || m.PermAt(addr) != PermRWX {
			t.Fatalf("order %s: interleaving did not complete", order)
		}
		return m.GenerationOf(addr, 8) > atWrite
	}
	var orders []string
	var gen func(prefix string, s, mm int)
	gen = func(prefix string, s, mm int) {
		if s == 0 && mm == 0 {
			orders = append(orders, prefix)
			return
		}
		if s > 0 {
			gen(prefix+"S", s-1, mm)
		}
		if mm > 0 {
			gen(prefix+"M", s, mm-1)
		}
	}
	gen("", 3, 2)
	if len(orders) != 10 {
		t.Fatalf("enumerated %d interleavings, want 10", len(orders))
	}
	lost := 0
	for _, order := range orders {
		if !run(order, true) {
			t.Errorf("order %s: the store landed on an executable page and no stamp follows it", order)
		}
		if !run(order, false) {
			lost++
		}
	}
	if lost == 0 {
		t.Error("a store that trusts its first read lost no stamp in any interleaving: the enumeration has no teeth")
	}

	// The two unsplit orders, through the real entries.
	m := fresh()
	g := m.Generation()
	if !m.Store8(addr, 2) || m.Generation() != g {
		t.Fatal("Store8 on a dirty RW page declined or stamped")
	}
	if err := m.Map(addr, 1, PermRWX); err != nil {
		t.Fatal(err)
	}
	if m.GenerationOf(addr, 8) <= g {
		t.Fatal("Map after the store did not stamp the page")
	}
	g = m.GenerationOf(addr, 8)
	if m.Store8(addr, 3) || m.Store1(addr, 3) {
		t.Fatal("a sized store accepted an executable page")
	}
	if f := m.Store(addr, 8, 3); f != nil || m.GenerationOf(addr, 8) <= g {
		t.Fatalf("general store into the executable page: fault %v, stamped %v", f, m.GenerationOf(addr, 8) > g)
	}
}

// TestLoadStoreRefuseOtherSizes pins the up-front refusal: Load and Store
// used to permission-check n bytes and then touch 8, so Load(limit-4, 4)
// was a slice-bounds panic deep inside and Load(pageEnd-4, 4) read four
// bytes of a page it never checked. No caller passes another size; one
// that does is a bug and is told so before anything is touched.
func TestLoadStoreRefuseOtherSizes(t *testing.T) {
	m := newTest(t)
	refuses := func(name string, f func()) {
		t.Helper()
		defer func() {
			if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "size must be 1 or 8") {
				t.Errorf("%s: recovered %v, want the size panic", name, r)
			}
		}()
		f()
	}
	before := snapshot(m)
	for _, n := range []int{0, 2, 4, 7, 9, -1} {
		refuses(fmt.Sprintf("Load n=%d", n), func() { m.Load(m.Base()+PageSize-4, n) })
		refuses(fmt.Sprintf("Load n=%d at the limit", n), func() { m.Load(m.Limit()-4, n) })
		refuses(fmt.Sprintf("Store n=%d", n), func() { m.Store(m.Base()+PageSize-4, n, ^uint64(0)) })
	}
	if d := before.diff(view(m)); d != "" {
		t.Fatalf("a refused access changed %s", d)
	}
}
