package mem

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
)

// TestScrubDirtyProperty drives a Paged with a seeded random mix of
// every way bytes can land in it — 1- and 8-byte Store (page-straddling
// included), directly and as a handler does it (Store8 or Store1, then
// Store when that declines), WriteAt, WriteDirect, write loans with
// CommitWrite — between
// remaps to other permissions, unmaps and remaps, against a shadow copy
// and a model set of touched pages. It then checks the contract
// freeDomain rests on: ScrubDirty zeroes exactly the touched pages of the
// range it is given, reports how many that was, leaves the rest of the
// memory as the shadow has it, finds nothing to do a second time, and
// revokes a loan taken on a dirty page while leaving one on a clean page
// alone.
func TestScrubDirtyProperty(t *testing.T) {
	const (
		base   = 0x40000
		npages = 192
		size   = npages * PageSize
	)
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := NewPaged(base, size)
		shadow := make([]byte, size)
		perms := make([]Perm, npages)
		touched := make(map[int]bool)

		// A third of the pages start writable, so a few stay clean.
		for pg := 0; pg < npages; pg++ {
			if rng.Intn(3) == 0 {
				perms[pg] = PermRW
				if err := m.Map(base+uint64(pg)*PageSize, PageSize, PermRW); err != nil {
					t.Fatal(err)
				}
			}
		}
		span := func(maxLen int) (off, n int) {
			n = 1 + rng.Intn(maxLen)
			off = rng.Intn(size - n + 1)
			return off, n
		}
		writable := func(off, n int) bool {
			for pg := off / PageSize; pg <= (off+n-1)/PageSize; pg++ {
				if perms[pg]&PermW == 0 {
					return false
				}
			}
			return true
		}
		landed := func(off int, b []byte) {
			copy(shadow[off:], b)
			for pg := off / PageSize; pg <= (off+len(b)-1)/PageSize; pg++ {
				touched[pg] = true
			}
		}
		fill := func(n int) []byte {
			b := make([]byte, n)
			rng.Read(b)
			return b
		}

		for op := 0; op < 300; op++ {
			switch rng.Intn(6) {
			case 0: // Store, sometimes aimed across a page boundary
				n := []int{1, 8}[rng.Intn(2)]
				off := rng.Intn(size - n + 1)
				if n == 8 && rng.Intn(3) == 0 {
					off = (1+rng.Intn(npages-1))*PageSize - 1 - rng.Intn(7)
				}
				v := rng.Uint64()
				store := m.Store
				if rng.Intn(2) == 0 {
					store = func(addr uint64, n int, v uint64) *Fault { return storeVia(m, addr, n, v) }
				}
				f := store(base+uint64(off), n, v)
				if ok := writable(off, n); ok != (f == nil) {
					t.Fatalf("seed %d op %d: Store(%#x,%d) fault=%v, model writable=%v", seed, op, off, n, f, ok)
				}
				if f == nil {
					var b [8]byte
					for i := range b {
						b[i] = byte(v >> (8 * i))
					}
					landed(off, b[:n])
				}
			case 1: // WriteAt
				off, n := span(3 * PageSize)
				b := fill(n)
				f := m.WriteAt(base+uint64(off), b)
				if ok := writable(off, n); ok != (f == nil) {
					t.Fatalf("seed %d op %d: WriteAt(%#x,%d) fault=%v, model writable=%v", seed, op, off, n, f, ok)
				}
				if f == nil {
					landed(off, b)
				}
			case 2: // WriteDirect ignores permissions
				off, n := span(2 * PageSize)
				b := fill(n)
				if err := m.WriteDirect(base+uint64(off), b); err != nil {
					t.Fatal(err)
				}
				landed(off, b)
			case 3: // write loan; the whole span counts from the moment it is lent
				off, n := span(2 * PageSize)
				v, f := m.ViewBytes(base+uint64(off), n, AccessWrite)
				if ok := writable(off, n); ok != (f == nil) {
					t.Fatalf("seed %d op %d: ViewBytes(%#x,%d) fault=%v, model writable=%v", seed, op, off, n, f, ok)
				}
				if f == nil {
					b := fill(n)
					filled := rng.Intn(n + 1)
					copy(v.B, b[:filled])
					if !v.CommitWrite(filled) {
						t.Fatalf("seed %d op %d: fresh write loan refused commit", seed, op)
					}
					landed(off, append(b[:filled:filled], shadow[off+filled:off+n]...))
				}
			default: // remap a run of pages: read-only, unmapped, or writable again
				pg := rng.Intn(npages)
				run := 1 + rng.Intn(4)
				if pg+run > npages {
					run = npages - pg
				}
				perm := []Perm{0, PermR, PermRW, PermRWX, PermRX}[rng.Intn(5)]
				if err := m.Map(base+uint64(pg)*PageSize, uint64(run)*PageSize, perm); err != nil {
					t.Fatal(err)
				}
				for i := pg; i < pg+run; i++ {
					perms[i] = perm
					if got := m.PermAt(base + uint64(i)*PageSize); got != perm {
						t.Fatalf("seed %d op %d: PermAt page %d = %v, want %v (dirty bit leaking?)", seed, op, i, got, perm)
					}
				}
			}
		}

		// Make everything readable so loans can be taken, then lend one
		// dirty and one clean page before the scrub.
		if err := m.Map(base, size, PermR); err != nil {
			t.Fatal(err)
		}
		dirtyPg, cleanPg := -1, -1
		for pg := 0; pg < npages; pg++ {
			if touched[pg] && dirtyPg < 0 {
				dirtyPg = pg
			}
			if !touched[pg] && cleanPg < 0 {
				cleanPg = pg
			}
		}
		if dirtyPg < 0 || cleanPg < 0 {
			t.Fatalf("seed %d: degenerate run (dirty page %d, clean page %d)", seed, dirtyPg, cleanPg)
		}
		dirtyLoan, f1 := m.ViewBytes(base+uint64(dirtyPg)*PageSize, PageSize, AccessRead)
		cleanLoan, f2 := m.ViewBytes(base+uint64(cleanPg)*PageSize, PageSize, AccessRead)
		if f1 != nil || f2 != nil {
			t.Fatal(f1, f2)
		}

		// Scrub the lower half first: the upper half must not move.
		const half = npages / 2
		wantLow, wantHigh := 0, 0
		for pg := range touched {
			if pg < half {
				wantLow++
			} else {
				wantHigh++
			}
		}
		all, _ := m.ReadDirect(base, size)
		if !bytes.Equal(all, shadow) {
			t.Fatalf("seed %d: memory diverged from the shadow before any scrub", seed)
		}
		if n, err := m.ScrubDirty(base, half*PageSize); err != nil || n != wantLow {
			t.Fatalf("seed %d: ScrubDirty(low half) = %d, %v; %d pages were touched", seed, n, err, wantLow)
		}
		if !bytes.Equal(all[:half*PageSize], make([]byte, half*PageSize)) {
			t.Fatalf("seed %d: low half not zero after scrub", seed)
		}
		if !bytes.Equal(all[half*PageSize:], shadow[half*PageSize:]) {
			t.Fatalf("seed %d: scrub of the low half moved the high half", seed)
		}
		if n, err := m.ScrubDirty(base, size); err != nil || n != wantHigh {
			t.Fatalf("seed %d: ScrubDirty(all) = %d, %v; %d touched pages were left", seed, n, err, wantHigh)
		}
		if !bytes.Equal(all, make([]byte, size)) {
			t.Fatalf("seed %d: range not zero after scrub", seed)
		}
		if n, _ := m.ScrubDirty(base, size); n != 0 {
			t.Fatalf("seed %d: second ScrubDirty cleared %d pages, want 0", seed, n)
		}
		if !dirtyLoan.Revoked() {
			t.Fatalf("seed %d: read loan on dirty page %d survived its scrub", seed, dirtyPg)
		}
		if cleanLoan.Revoked() {
			t.Fatalf("seed %d: read loan on clean page %d revoked though nothing touched it", seed, cleanPg)
		}
		for pg := 0; pg < npages; pg++ {
			if got := m.PermAt(base + uint64(pg)*PageSize); got != PermR {
				t.Fatalf("seed %d: scrub changed page %d permission to %v", seed, pg, got)
			}
		}

		// The first store after a scrub must go through the marking path:
		// the sized entries decline a clean page, the general entry marks
		// it, and only then do they accept — so the next scrub finds it.
		at := base + uint64(dirtyPg)*PageSize + 16
		if err := m.Map(at, 1, PermRW); err != nil {
			t.Fatal(err)
		}
		if m.Store8(at, 1) || m.Store1(at, 1) || !bytes.Equal(all, make([]byte, size)) {
			t.Fatalf("seed %d: a sized store accepted scrubbed (clean) page %d", seed, dirtyPg)
		}
		if f := storeVia(m, at, 8, 7); f != nil || !m.Store8(at+8, 7) || !m.Store1(at+16, 7) {
			t.Fatalf("seed %d: stores after the marking store: fault %v", seed, f)
		}
		if n, _ := m.ScrubDirty(base, size); n != 1 || !bytes.Equal(all, make([]byte, size)) {
			t.Fatalf("seed %d: scrub after one page's stores cleared %d pages, want 1, and all zero", seed, n)
		}
	}
}

func TestScrubDirtyRange(t *testing.T) {
	m := NewPaged(0x10000, 4*PageSize)
	if n, err := m.ScrubDirty(0x10000, 0); n != 0 || err != nil {
		t.Fatalf("empty scrub = %d, %v", n, err)
	}
	for _, r := range [][2]uint64{{0x10000 - 1, 2}, {0x10000, 4*PageSize + 1}, {0x20000, 1}} {
		if _, err := m.ScrubDirty(r[0], r[1]); !errors.Is(err, ErrRange) {
			t.Errorf("ScrubDirty(%#x,%#x) = %v, want ErrRange", r[0], r[1], err)
		}
	}
	// An unaligned range scrubs the whole pages it overlaps, as Map does.
	if err := m.WriteDirect(0x10000+PageSize-1, []byte{1, 2}); err != nil {
		t.Fatal(err)
	}
	if n, err := m.ScrubDirty(0x10000+PageSize-1, 2); n != 2 || err != nil {
		t.Fatalf("straddling scrub = %d, %v, want 2 pages", n, err)
	}
}
