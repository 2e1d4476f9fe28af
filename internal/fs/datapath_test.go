package fs

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"testing"

	"repro/internal/hostos"
)

// This file pins the protected store's data path by count, not by clock:
// which stripes take the clean fast path and which decode, how many
// allocations a block costs, and what the EncFS page cache writes when
// it evicts.

// newSeqStore returns a flushed store whose first n blocks hold seeded
// full-size content, and that content.
func newSeqStore(t testing.TB, n int) (*hostos.Host, *BlockStore, [][]byte) {
	t.Helper()
	h := hostos.New()
	s, err := CreateStore(h, "seq", KeyFromString("seq"), n+8)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(int64(n)))
	want := make([][]byte, n)
	for i := range want {
		want[i] = make([]byte, BlockSize)
		rng.Read(want[i])
		if err := s.WriteBlock(i, want[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	return h, s, want
}

// readSeq reads blocks [0, len(want)) and returns the counter deltas.
func readSeq(t *testing.T, s *BlockStore, want [][]byte) StatCounters {
	t.Helper()
	before := Stats()
	dst := make([]byte, BlockSize)
	for i := range want {
		if err := s.ReadBlockInto(i, dst); err != nil {
			t.Fatalf("block %d: %v", i, err)
		}
		if !bytes.Equal(dst, want[i]) {
			t.Fatalf("block %d: wrong bytes", i)
		}
	}
	return Stats().Sub(before)
}

func TestDecodedStripesCountsTheFastPath(t *testing.T) {
	const n = 32
	h, s, want := newSeqStore(t, n)
	if d := readSeq(t, s, want); d.DecodedStripes != 0 || d.RepairedShards != 0 {
		t.Fatalf("intact read of %d blocks: decoded %d, repaired %d, want 0 and 0", n, d.DecodedStripes, d.RepairedShards)
	}

	// A rotted parity file is still found — every cell is read and
	// crc-checked — and repaired, without one decode.
	flipped := 0
	for i := 0; i < n; i += 4 {
		off := s.cellOff(s.blockStripe(i, s.slots[i])) + 17
		if err := h.FlipBit(s.fileName(s.k+1), off); err != nil {
			t.Fatal(err)
		}
		flipped++
	}
	if d := readSeq(t, s, want); d.DecodedStripes != 0 || d.RepairedShards != uint64(flipped) {
		t.Fatalf("parity rot: decoded %d, repaired %d, want 0 and %d", d.DecodedStripes, d.RepairedShards, flipped)
	}
	if d := readSeq(t, s, want); d.RepairedShards != 0 {
		t.Fatalf("parity rot came back after repair: repaired %d", d.RepairedShards)
	}

	// A lost data file sends every stripe through reconstruct, once.
	h.RemoveFile(s.fileName(1))
	if d := readSeq(t, s, want); d.DecodedStripes != n || d.RepairedShards != n {
		t.Fatalf("data file dropped: decoded %d, repaired %d, want %d and %d", d.DecodedStripes, d.RepairedShards, n, n)
	}
	if d := readSeq(t, s, want); d.DecodedStripes != 0 || d.RepairedShards != 0 {
		t.Fatalf("after repair-on-read: decoded %d, repaired %d, want 0 and 0", d.DecodedStripes, d.RepairedShards)
	}
}

// TestFastPathNeverServesForgedData forges crc-consistent data shards —
// every non-empty subset of them — so the fast path assembles attacker
// bytes with every locator green. The MAC must stop them: the read gives
// the true bytes (≤ m forged: the subset search finds the honest shards)
// or ErrCorrupt, dst never holds anything else, and a failed read
// repairs nothing.
func TestFastPathNeverServesForgedData(t *testing.T) {
	h, s, want := newSeqStore(t, 2)
	pristine := h.CopyFiles("seq.s*")
	ss := s.shardSize()
	off := s.cellOff(s.blockStripe(1, s.slots[1]))
	sentinel := bytes.Repeat([]byte{0xA5}, BlockSize)
	for mask := 1; mask < 1<<s.k; mask++ {
		h.PutFiles(pristine)
		for d := 0; d < s.k; d++ {
			if mask&(1<<d) == 0 {
				continue
			}
			cell := make([]byte, ss+8)
			for i := range cell[:ss] {
				cell[i] = byte(mask*31 + d + i)
			}
			binary.LittleEndian.PutUint32(cell[ss:], crc32.ChecksumIEEE(cell[:ss]))
			h.WriteFileAt(s.fileName(d), off, cell)
		}
		forged := h.CopyFiles("seq.s*")
		dst := append([]byte(nil), sentinel...)
		err := s.ReadBlockInto(1, dst)
		switch {
		case err == nil:
			if !bytes.Equal(dst, want[1]) {
				t.Fatalf("mask %04b: served bytes that are not the block's", mask)
			}
		case !errors.Is(err, ErrCorrupt):
			t.Fatalf("mask %04b: error %v, want ErrCorrupt", mask, err)
		default:
			if !bytes.Equal(dst, sentinel) {
				t.Fatalf("mask %04b: a failed read wrote into dst", mask)
			}
			for name, data := range h.CopyFiles("seq.s*") {
				if !bytes.Equal(data, forged[name]) {
					t.Fatalf("mask %04b: a failed read rewrote %s", mask, name)
				}
			}
		}
		if popcount(mask) <= s.m && err != nil {
			t.Fatalf("mask %04b: %d forged shards are within parity, got %v", mask, popcount(mask), err)
		}
	}
}

func TestReadBlockResultIsCallerOwned(t *testing.T) {
	_, s, want := newSeqStore(t, 2)
	got, err := s.ReadBlock(0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		got[i] ^= 0xFF
	}
	if _, err := s.ReadBlock(1); err != nil { // runs the scratch over
		t.Fatal(err)
	}
	again, err := s.ReadBlock(0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, want[0]) {
		t.Fatal("mutating ReadBlock's result changed what the store serves")
	}
	if err := s.ReadBlockInto(0, make([]byte, BlockSize-1)); err == nil {
		t.Fatal("ReadBlockInto accepted a short buffer")
	}
}

// TestStoreAllocationFloor gates what a block costs the allocator once
// the store is warm. The CTR stream from cipher.NewCTR is the allowance:
// hand-rolling CTR would lose crypto/aes's multi-block assembly path.
func TestStoreAllocationFloor(t *testing.T) {
	const n = 64
	_, s, want := newSeqStore(t, n)
	dst := make([]byte, BlockSize)
	i := 0
	if a := testing.AllocsPerRun(200, func() {
		if err := s.ReadBlockInto(i%n, dst); err != nil {
			t.Fatal(err)
		}
		i++
	}); a > 2 {
		t.Errorf("warm ReadBlockInto: %.0f allocations per block, want ≤ 2", a)
	}
	if a := testing.AllocsPerRun(200, func() {
		if err := s.WriteBlock(i%n, want[i%n]); err != nil {
			t.Fatal(err)
		}
		i++
	}); a > 2 {
		t.Errorf("full-block WriteBlock: %.0f allocations per block, want ≤ 2", a)
	}
}

// writeBlocks writes file blocks [0, n) of path, each filled from rng,
// and returns the content.
func writeBlocks(t testing.TB, efs *EncFS, path string, n int, rng *rand.Rand) []byte {
	t.Helper()
	f, err := efs.Open(path, ORdWr|OCreate)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, n*BlockSize)
	rng.Read(data)
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	return data
}

// remount syncs efs and mounts its image again with a cache of cap pages.
func remount(t testing.TB, efs *EncFS, h *hostos.Host, key Key, cap int) *EncFS {
	t.Helper()
	if err := efs.Sync(); err != nil {
		t.Fatal(err)
	}
	store, err := OpenStore(h, "img", key)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := Mount(store)
	if err != nil {
		t.Fatal(err)
	}
	fresh.cacheCap = cap
	return fresh
}

func TestEncFSMissAllocationFloor(t *testing.T) {
	const cap, blocks = 16, 64
	efs, h, key := newFS(t, 1024)
	writeBlocks(t, efs, "/f", blocks, rand.New(rand.NewSource(1)))
	efs = remount(t, efs, h, key, cap)
	f, err := efs.Open("/f", ORdOnly)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, BlockSize)
	i := 0
	read := func() {
		if _, err := f.ReadAt(buf, int64(i%blocks)*BlockSize); err != nil {
			t.Fatal(err)
		}
		i++
	}
	for i < blocks { // one pass makes the frames
		read()
	}
	r0, _, _ := efs.CacheStats()
	const runs = 2 * blocks
	a := testing.AllocsPerRun(runs, read)
	r1, _, _ := efs.CacheStats()
	if r1-r0 < runs {
		t.Fatalf("%d reads made %d device reads: the scan was meant to miss", runs+1, r1-r0)
	}
	if a > 4 {
		t.Errorf("4 KiB EncFS read that misses: %.0f allocations, want ≤ 4", a)
	}
}

// TestTinyCacheSparseWritesSurviveRemount writes 4× the cache in an
// order that allocates direct, indirect and double-indirect pointers
// while nearly every getBlock evicts, then reads it back — live, and
// through a remount. A pointer stored through a page held across
// allocBlock (the fileBlock lost update) reads back as a hole here.
func TestTinyCacheSparseWritesSurviveRemount(t *testing.T) {
	for _, cap := range []int{3, 16} {
		efs, h, key := newFS(t, 4096)
		rng := rand.New(rand.NewSource(int64(cap)))
		// File blocks in all three mapping ranges, written sparsely and
		// out of order, with reads of another file's blocks — misses, on
		// this mount — in between so the table pages keep leaving the
		// cache.
		other := writeBlocks(t, efs, "/other", 4*cap, rng)
		efs = remount(t, efs, h, key, cap)
		fbs := []int{0, 23, 24, 25, 600, numDirect + ptrsPerBlk - 1,
			numDirect + ptrsPerBlk, numDirect + ptrsPerBlk + 1, numDirect + 2*ptrsPerBlk + 5, numDirect + 3*ptrsPerBlk}
		for len(fbs) < max(4*cap, 96) {
			fbs = append(fbs, rng.Intn(numDirect+4*ptrsPerBlk))
		}
		rng.Shuffle(len(fbs), func(i, j int) { fbs[i], fbs[j] = fbs[j], fbs[i] })
		f, err := efs.Open("/sparse", ORdWr|OCreate)
		if err != nil {
			t.Fatal(err)
		}
		o, err := efs.Open("/other", ORdOnly)
		if err != nil {
			t.Fatal(err)
		}
		want := map[int][]byte{}
		buf := make([]byte, BlockSize)
		for _, fb := range fbs {
			for j := rng.Intn(4); j > 0; j-- { // every alignment of the cache against the write
				ob := rng.Intn(4 * cap)
				if _, err := o.ReadAt(buf, int64(ob)*BlockSize); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(buf, other[ob*BlockSize:(ob+1)*BlockSize]) {
					t.Fatalf("cap %d: /other block %d wrong", cap, ob)
				}
			}
			data := make([]byte, BlockSize)
			rng.Read(data)
			if _, err := f.WriteAt(data, int64(fb)*BlockSize); err != nil {
				t.Fatal(err)
			}
			want[fb] = data
		}
		check := func(efs *EncFS, when string) {
			f, err := efs.Open("/sparse", ORdOnly)
			if err != nil {
				t.Fatal(err)
			}
			for fb, data := range want {
				if _, err := f.ReadAt(buf, int64(fb)*BlockSize); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(buf, data) {
					t.Fatalf("cap %d, %s: file block %d lost its data", cap, when, fb)
				}
			}
			if err := efs.Fsck(); err != nil {
				t.Fatalf("cap %d, %s: %v", cap, when, err)
			}
		}
		check(efs, "live")
		efs = remount(t, efs, h, key, cap)
		check(efs, "after remount")

		// Truncation walks the double-indirect page while freeBlock keeps
		// fetching the bitmap: every block must come back, none twice.
		if _, err := efs.Open("/sparse", ORdWr|OTrunc); err != nil {
			t.Fatal(err)
		}
		if err := efs.Fsck(); err != nil {
			t.Fatalf("cap %d, after truncate: %v", cap, err)
		}
		efs = remount(t, efs, h, key, cap)
		if err := efs.Fsck(); err != nil {
			t.Fatalf("cap %d, truncate after remount: %v", cap, err)
		}
	}
}

// TestEvictionWritesBackOnlyTheVictim: a miss at the cap writes the page
// it evicts if and only if that page is dirty, and writes it once.
func TestEvictionWritesBackOnlyTheVictim(t *testing.T) {
	const cap, blocks = 4, 16
	efs, h, key := newFS(t, 1024)
	rng := rand.New(rand.NewSource(9))
	data := writeBlocks(t, efs, "/f", blocks, rng)
	efs = remount(t, efs, h, key, cap)
	f, err := efs.Open("/f", ORdWr)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, BlockSize)
	scan := func() {
		for b := 0; b < blocks; b++ {
			if _, err := f.ReadAt(buf, int64(b)*BlockSize); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf, data[b*BlockSize:(b+1)*BlockSize]) {
				t.Fatalf("block %d wrong", b)
			}
		}
	}
	scan()
	scan()
	r, w, _ := efs.CacheStats()
	if r < 2*blocks || w != 0 {
		t.Fatalf("two scans over clean pages: %d device reads, %d writes; want ≥ %d and 0", r, w, 2*blocks)
	}
	if len(efs.cache) > cap {
		t.Fatalf("%d pages cached, cap %d", len(efs.cache), cap)
	}

	// Dirty one data page in place (no allocation): it and the inode
	// block are the only dirty pages in the mount.
	fresh := make([]byte, BlockSize)
	rng.Read(fresh)
	if _, err := f.WriteAt(fresh, 5*BlockSize); err != nil {
		t.Fatal(err)
	}
	copy(data[5*BlockSize:], fresh)
	scan() // evicts the dirty data page; the inode block may stay, it is hit every read
	scan()
	if _, w, _ = efs.CacheStats(); w < 1 || w > 2 {
		t.Fatalf("evicting one dirty data page (and at most the inode block): %d writes", w)
	}
	if err := efs.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, w, _ = efs.CacheStats(); w != 2 {
		t.Fatalf("data page + inode block, each written once: %d writes, want 2", w)
	}
	scan()
	if err := efs.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, w, _ = efs.CacheStats(); w != 2 {
		t.Fatalf("clean pages were written back: %d writes, want 2", w)
	}
	efs = remount(t, efs, h, key, cap)
	if f, err = efs.Open("/f", ORdOnly); err != nil {
		t.Fatal(err)
	}
	scan()
}
