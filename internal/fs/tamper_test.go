package fs

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"

	"repro/internal/hostos"
	"repro/internal/hostos/hostfault"
)

// This file is the BlockStore half of the tamper battery the image
// layer's TestImageTamperAnyBit mirrors, updated for the erasure-coded
// layout. The envelope it pins down:
//
//   - accidental damage to at most m shards of a stripe (bit-rot, torn
//     or truncated cells, a whole deleted backing file) is repaired
//     transparently, and only after the reconstruction opens under the
//     block's tag; rot counts as a crc mismatch, not a tag failure;
//   - damage beyond m shards, and any adversarial tampering — even one
//     that keeps data, parity and crc trailers mutually consistent —
//     fails closed with ErrCorrupt, and a forged crc shows as a tag
//     failure. Parity reconstructs bytes; it never authenticates them.

func newTamperStore(t *testing.T) (*hostos.Host, *BlockStore, Key) {
	t.Helper()
	h := hostos.New()
	key := KeyFromString("tamper")
	s, err := CreateStore(h, "dev", key, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := s.WriteBlock(i, []byte{byte(i), 0xEE, byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	return h, s, key
}

// wantBlock asserts block i of the tamper store reads back intact.
func wantBlock(t *testing.T, s *BlockStore, i int) {
	t.Helper()
	got, err := s.ReadBlock(i)
	if err != nil {
		t.Fatalf("block %d: %v", i, err)
	}
	if !bytes.Equal(got[:3], []byte{byte(i), 0xEE, byte(i)}) {
		t.Fatalf("block %d content mangled: % x", i, got[:3])
	}
}

// TestBlockStoreBitFlipAnyShardRepaired flips one bit in every
// byte-offset sample of every block's live cell, in each backing file in
// turn: the read must succeed with the original content, and so must a
// read through a fresh open of the damaged image. A flip in a data shard
// fails the clean read's open, so the read repairs it from parity: one
// tag failure, then one crc mismatch. A flip in a parity shard is not
// the read's to see (0 and 0); one Scrub repairs it.
func TestBlockStoreBitFlipAnyShardRepaired(t *testing.T) {
	h, s, key := newTamperStore(t)
	pristine := hostfault.CopyFiles(h, "dev.s*")
	ss := s.shardSize()
	for blk := 0; blk < 8; blk++ {
		for _, within := range []int{0, 1, ss / 2, ss - 1} {
			for f := 0; f < s.nFiles(); f++ {
				hostfault.PutFiles(h, pristine)
				off := s.cellOff(s.blockStripe(blk, s.slot(blk))) + within
				if err := hostfault.FlipBit(h, s.fileName(f), off); err != nil {
					t.Fatal(err)
				}
				before := Stats()
				wantBlock(t, s, blk)
				d := Stats().Sub(before)
				if f < s.k {
					if d.RepairedShards != 1 || d.CRCMismatches != 1 || d.TagFailures != 1 {
						t.Fatalf("block %d data file %d: read repaired %d, counted %d crc mismatches and %d tag failures, want 1, 1 and 1",
							blk, f, d.RepairedShards, d.CRCMismatches, d.TagFailures)
					}
				} else {
					if d.RepairedShards != 0 || d.CRCMismatches != 0 || d.TagFailures != 0 {
						t.Fatalf("block %d parity file %d: read repaired %d, counted %d crc mismatches and %d tag failures, want 0, 0 and 0",
							blk, f, d.RepairedShards, d.CRCMismatches, d.TagFailures)
					}
					// A pass over s would latch it clean for the rest of
					// the loop; a fresh open of the image scrubs once.
					sc, err := OpenStore(h, "dev", key)
					if err != nil {
						t.Fatal(err)
					}
					before = Stats()
					if _, err := sc.Scrub(); err != nil {
						t.Fatal(err)
					}
					if d := Stats().Sub(before); d.RepairedShards != 1 || d.CRCMismatches != 1 {
						t.Fatalf("block %d parity file %d: scrub repaired %d, counted %d crc mismatches, want 1 and 1",
							blk, f, d.RepairedShards, d.CRCMismatches)
					}
				}
				if err := wantCellsWhole(h, s, s.blockStripe(blk, s.slot(blk))); err != nil {
					t.Fatalf("block %d file %d: %v", blk, f, err)
				}
				// The repair must have stuck: pristine bytes again on disk,
				// and an intact read counts nothing.
				before = Stats()
				wantBlock(t, s, blk)
				if d := Stats().Sub(before); d.CRCMismatches != 0 || d.TagFailures != 0 {
					t.Fatalf("block %d file %d: intact read counted %d crc mismatches and %d tag failures",
						blk, f, d.CRCMismatches, d.TagFailures)
				}

				// Same through a fresh mount of the damaged image.
				hostfault.PutFiles(h, pristine)
				_ = hostfault.FlipBit(h, s.fileName(f), off)
				s2, err := OpenStore(h, "dev", key)
				if err != nil {
					t.Fatalf("block %d file %d: open: %v", blk, f, err)
				}
				wantBlock(t, s2, blk)
			}
		}
	}
	hostfault.PutFiles(h, pristine)
}

// TestBlockStoreBeyondParityFailsClosed: damage to m+1 shards of one
// stripe is past the code's reach and must fail closed — never serve
// wrong bytes, never panic.
func TestBlockStoreBeyondParityFailsClosed(t *testing.T) {
	h, s, key := newTamperStore(t)
	_, m := s.Geometry()
	off := s.cellOff(s.blockStripe(5, s.slot(5))) + 7
	for f := 0; f <= m; f++ {
		if err := hostfault.FlipBit(h, s.fileName(f), off); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.ReadBlock(5); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("m+1 corrupt shards: err = %v, want ErrCorrupt", err)
	}
	// Other blocks are untouched.
	wantBlock(t, s, 4)
	// Fresh open still works (table intact) but the dead block stays dead.
	s2, err := OpenStore(h, "dev", key)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.ReadBlock(5); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("m+1 corrupt shards after reopen: err = %v, want ErrCorrupt", err)
	}
}

// TestBlockStoreAdversarialConsistentTamper forges a whole stripe the
// way a hostile host would: attacker-chosen data shards with correctly
// recomputed parity and crc trailers. The erasure decode succeeds — the
// stripe is internally flawless — so the only thing standing between
// the forged bytes and the caller is the MAC re-verification. The read
// must fail closed, and must NOT "repair" any real shard from the
// forged ones.
func TestBlockStoreAdversarialConsistentTamper(t *testing.T) {
	h, s, _ := newTamperStore(t)
	k, m := s.Geometry()
	ss := s.shardSize()
	rs, err := newRS(k, m)
	if err != nil {
		t.Fatal(err)
	}
	forged := bytes.Repeat([]byte{0x5A}, BlockSize)
	shards := make([][]byte, k+m)
	for d := 0; d < k; d++ {
		shards[d] = forged[d*ss : (d+1)*ss]
	}
	for p := 0; p < m; p++ {
		shards[k+p] = make([]byte, ss)
	}
	rs.encode(shards)
	off := s.cellOff(s.blockStripe(2, s.slot(2)))
	for f := 0; f < k+m; f++ {
		cell := make([]byte, ss+8)
		copy(cell, shards[f])
		binary.LittleEndian.PutUint32(cell[ss:], crc32.ChecksumIEEE(shards[f]))
		h.WriteFileAt(s.fileName(f), off, cell)
	}
	if _, err := s.ReadBlock(2); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("consistent forged stripe: err = %v, want ErrCorrupt", err)
	}
	wantBlock(t, s, 3)
}

// TestBlockStoreForgedCRCRepaired: an attacker corrupts one shard's
// payload AND fixes up its crc trailer, so the locator lies. The
// crc-guided decode then assembles wrong bytes — which the MAC rejects —
// and the bounded subset search must find the honest k-subset, serve
// the true content, and repair the forged shard.
func TestBlockStoreForgedCRCRepaired(t *testing.T) {
	h, s, _ := newTamperStore(t)
	ss := s.shardSize()
	off := s.cellOff(s.blockStripe(6, s.slot(6)))
	cell := make([]byte, ss+8)
	if n, err := h.ReadFileAt(s.fileName(1), off, cell); err != nil || n < len(cell) {
		t.Fatal("short read of pristine cell")
	}
	cell[10] ^= 0xFF
	binary.LittleEndian.PutUint32(cell[ss:], crc32.ChecksumIEEE(cell[:ss]))
	h.WriteFileAt(s.fileName(1), off, cell)

	before := Stats()
	wantBlock(t, s, 6)
	d := Stats().Sub(before)
	if d.RepairedShards == 0 {
		t.Fatal("forged-crc shard was not repaired")
	}
	if d.TagFailures == 0 || d.CRCMismatches != 0 {
		t.Fatalf("forged-crc cell counted %d tag failures and %d crc mismatches, want ≥ 1 and 0", d.TagFailures, d.CRCMismatches)
	}
	// Repair wrote honest bytes back over the forgery.
	after := make([]byte, ss+8)
	h.ReadFileAt(s.fileName(1), off, after)
	if bytes.Equal(after[:ss], cell[:ss]) {
		t.Fatal("forged shard still on disk after repair")
	}
}

// TestBlockStoreStaleEpochRollback rolls every backing file back to an
// earlier epoch. Because the A/B slots deliberately preserve the
// previous epoch's ciphertext (that is what makes crashes recoverable),
// the rolled-back image is fully self-consistent — indistinguishable
// from a real old disk. Catching it therefore requires the trusted
// epoch witness: OpenStoreAt must fail closed, and the plain OpenStore
// must at worst yield the stale-but-authentic old contents, never a
// mix.
func TestBlockStoreStaleEpochRollback(t *testing.T) {
	h, s, key := newTamperStore(t)
	oldImage := hostfault.CopyFiles(h, "dev.s*")
	oldEpoch := s.Epoch()

	if err := s.WriteBlock(3, []byte("new generation")); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	trustedEpoch := s.Epoch()
	if trustedEpoch == oldEpoch {
		t.Fatal("flush did not advance the epoch")
	}

	// Host rolls records, table and data back wholesale.
	hostfault.DropFiles(h, "dev.s*")
	hostfault.PutFiles(h, oldImage)
	if _, err := OpenStoreAt(h, "dev", key, trustedEpoch); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("stale epoch with witness: err = %v, want ErrCorrupt", err)
	}
	// Without the witness the old image opens, but serves only the old
	// authentic content.
	s2, err := OpenStore(h, "dev", key)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s2.ReadBlock(3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[:3], []byte{3, 0xEE, 3}) {
		t.Fatal("rollback served mixed-generation data")
	}

	// Partial rollback — a stale table over data that no longer matches
	// it — is detectable even without a witness: the stale table's MACs
	// bind the old versions. Corrupt both slots of block 3 beyond the
	// parity's reach so neither generation's ciphertext survives.
	hostfault.DropFiles(h, "dev.s*")
	hostfault.PutFiles(h, oldImage)
	_, m := s.Geometry()
	for _, slot := range []uint8{0, 1} {
		off := s.cellOff(s.blockStripe(3, slot)) + 10
		for f := 0; f <= m; f++ {
			_ = hostfault.FlipBit(h, s.fileName(f), off)
		}
	}
	s3, err := OpenStore(h, "dev", key)
	if err == nil {
		_, err = s3.ReadBlock(3)
	}
	errAny(t, err, ErrCorrupt, ErrBadKey)
}

// TestBlockStoreTruncatedOneFile cuts a single backing file at every
// interesting point — inside the header, inside each commit record,
// just into the shard area, mid-data, one byte short. Each cut is at
// most one lost shard per stripe, so open must succeed and EVERY block
// must read back intact (short reads surface as repairable shard loss,
// never as zero-fill or a panic).
func TestBlockStoreTruncatedOneFile(t *testing.T) {
	h, s, key := newTamperStore(t)
	pristine := hostfault.CopyFiles(h, "dev.s*")
	size := h.FileSize(s.fileName(1))
	cuts := []int{0, fileHeaderSize - 1, fileHeaderSize + 3,
		fileHeaderSize + commitRecordSize + 8, shardDataStart - 1,
		shardDataStart + 3, size / 2, size - 1}
	for _, cut := range cuts {
		hostfault.PutFiles(h, pristine)
		trunc := append([]byte(nil), pristine[s.fileName(1)][:cut]...)
		h.RemoveFile(s.fileName(1))
		h.WriteFile(s.fileName(1), trunc)
		s2, err := OpenStore(h, "dev", key)
		if err != nil {
			t.Fatalf("cut at %d: open: %v", cut, err)
		}
		for blk := 0; blk < 8; blk++ {
			wantBlock(t, s2, blk)
		}
	}
	hostfault.PutFiles(h, pristine)
	_ = s
}

// headerRots are one-field rewrites of a shard file's unauthenticated
// header: the version byte (no format, and the two retired ones), k, m
// and maxBlocks.
var headerRots = []struct {
	name string
	rot  func(hdr []byte)
}{
	{"version=0", func(hdr []byte) { hdr[7] = 0 }},
	{"version=3", func(hdr []byte) { hdr[7] = 3 }},
	{"version=4", func(hdr []byte) { hdr[7] = 4 }},
	{"k=2", func(hdr []byte) { binary.LittleEndian.PutUint16(hdr[8:], 2) }},
	{"m=1", func(hdr []byte) { binary.LittleEndian.PutUint16(hdr[10:], 1) }},
	{"m=3", func(hdr []byte) { binary.LittleEndian.PutUint16(hdr[10:], 3) }},
	{"maxBlocks=15", func(hdr []byte) { binary.LittleEndian.PutUint64(hdr[16:], 15) }},
	{"maxBlocks=17", func(hdr []byte) { binary.LittleEndian.PutUint64(hdr[16:], 17) }},
}

// rotHeaders applies rot to the header of each named shard file.
func rotHeaders(t *testing.T, h *hostos.Host, rot func([]byte), names ...string) {
	t.Helper()
	for _, name := range names {
		hdr := make([]byte, fileHeaderSize)
		if n, err := h.ReadFileAt(name, 0, hdr); err != nil || n != fileHeaderSize {
			t.Fatalf("%s: header unreadable (%v)", name, err)
		}
		rot(hdr)
		if err := h.WriteFileAt(name, 0, hdr); err != nil {
			t.Fatal(err)
		}
	}
}

// TestBlockStoreOneRottedHeader rewrites one field of one file's header,
// for every field and every file of a 16-block 4+2 store. The header is
// not authenticated, so the other five outvote it: open keeps the 4+2
// geometry, Scrub puts the header back byte for byte, and the store then
// survives the loss of any two files. Headers that all name format 3,
// or all 4, are an old store: ErrOldFormat.
func TestBlockStoreOneRottedHeader(t *testing.T) {
	h := hostos.New()
	key := KeyFromString("header-rot")
	s, err := CreateStore(h, "a", key, 16)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		if err := s.WriteBlock(i, blockFill(i, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	pristine := hostfault.CopyFiles(h, "a.s*")
	files := s.BackingFiles()
	for _, rc := range headerRots {
		for _, rotted := range files {
			what := rc.name + " in " + rotted
			hostfault.PutFiles(h, pristine)
			rotHeaders(t, h, rc.rot, rotted)
			s2, err := OpenStore(h, "a", key)
			if err != nil {
				t.Fatalf("%s: open: %v", what, err)
			}
			if k, m := s2.Geometry(); k != 4 || m != 2 || s2.MaxBlocks() != 16 {
				t.Fatalf("%s: opened as %d+%d with %d blocks, want 4+2 with 16", what, k, m, s2.MaxBlocks())
			}
			if _, err := s2.Scrub(); err != nil {
				t.Fatalf("%s: scrub: %v", what, err)
			}
			for name, data := range pristine {
				if got, _ := h.ReadFile(name); !bytes.Equal(got, data) {
					t.Fatalf("%s: %s differs from the committed store after scrub", what, name)
				}
			}
			for a := range files {
				for b := a + 1; b < len(files); b++ {
					hostfault.PutFiles(h, pristine)
					h.RemoveFile(files[a])
					h.RemoveFile(files[b])
					s3, err := OpenStore(h, "a", key)
					if err != nil {
						t.Fatalf("%s, then %s and %s lost: open: %v", what, files[a], files[b], err)
					}
					for i := 0; i < 16; i++ {
						if got, err := s3.ReadBlock(i); err != nil || !bytes.Equal(got, blockFill(i, 1)) {
							t.Fatalf("%s, then %s and %s lost: block %d: %v", what, files[a], files[b], i, err)
						}
					}
				}
			}
		}
	}
	for _, version := range []byte{3, 4} {
		hostfault.PutFiles(h, pristine)
		rotHeaders(t, h, func(hdr []byte) { hdr[7] = version }, files...)
		if _, err := OpenStore(h, "a", key); !errors.Is(err, ErrOldFormat) {
			t.Fatalf("every header at version %d: open: %v, want ErrOldFormat", version, err)
		}
	}
}

// TestBlockStoreTruncatedBeyondParity cuts m+1 backing files mid-data:
// blocks whose cells fell off the cut ends must fail with ErrCorrupt
// (not zeros, not a panic); blocks before the cut still read fine.
func TestBlockStoreTruncatedBeyondParity(t *testing.T) {
	h, s, key := newTamperStore(t)
	_, m := s.Geometry()
	// Cut right after block 3's later slot: blocks 0..3 keep all shards,
	// blocks 4..7 lose one shard per truncated file.
	cut := s.cellOff(s.blockStripe(4, 0))
	for f := 0; f <= m; f++ {
		name := s.fileName(f)
		raw, err := h.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		h.RemoveFile(name)
		h.WriteFile(name, raw[:cut])
	}
	s2, err := OpenStore(h, "dev", key)
	if err != nil {
		t.Fatal(err)
	}
	for blk := 0; blk < 4; blk++ {
		wantBlock(t, s2, blk)
	}
	for blk := 4; blk < 8; blk++ {
		if _, err := s2.ReadBlock(blk); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("block %d beyond m+1 cuts: err = %v, want ErrCorrupt", blk, err)
		}
	}
	// Truncating every file to nothing must refuse to open entirely.
	for f := 0; f < s.nFiles(); f++ {
		name := s.fileName(f)
		h.RemoveFile(name)
		h.WriteFile(name, []byte{})
	}
	if _, err := OpenStore(h, "dev", key); err == nil {
		t.Fatal("fully truncated image opened")
	}
}

// TestBlockStoreDeletedFileRepaired: the host deletes an entire backing
// file. Open and every read must still succeed, and Repair must rebuild
// the file so a SECOND file loss later is also survivable.
func TestBlockStoreDeletedFileRepaired(t *testing.T) {
	h, s, key := newTamperStore(t)
	lost := s.fileName(2)
	h.RemoveFile(lost)

	s2, err := OpenStore(h, "dev", key)
	if err != nil {
		t.Fatalf("open with deleted backing file: %v", err)
	}
	rebuilt, err := s2.Repair()
	if err != nil {
		t.Fatalf("repair: %v", err)
	}
	if rebuilt == 0 {
		t.Fatal("repair rebuilt nothing for a deleted file")
	}
	if h.FileSize(lost) == 0 {
		t.Fatal("repair did not recreate the lost file")
	}
	for blk := 0; blk < 8; blk++ {
		wantBlock(t, s2, blk)
	}

	// The rebuilt file now carries real redundancy: lose a DIFFERENT
	// file and everything must still read.
	h.RemoveFile(s.fileName(5))
	s3, err := OpenStore(h, "dev", key)
	if err != nil {
		t.Fatal(err)
	}
	for blk := 0; blk < 8; blk++ {
		wantBlock(t, s3, blk)
	}
}

// TestBlockStoreScrubHealsRot rots shards across the image at rest,
// then lets the scrubber walk the store: it must repair every damaged
// stripe (counters prove work happened), latch clean on an idle store,
// and wake up again after the next write.
func TestBlockStoreScrubHealsRot(t *testing.T) {
	h, s, _ := newTamperStore(t)
	_, m := s.Geometry()
	// Rot two shard files (= m, inside the envelope) across the block
	// data area.
	dataStart := s.cellOff(s.blockStripe(0, 0))
	for f := 0; f < m; f++ {
		hostfault.CorruptFiles(h, s.fileName(f), dataStart, 0, 32, int64(f)+1)
	}
	before := Stats()
	var worked bool
	for {
		w, err := s.ScrubStep(3)
		if err != nil {
			t.Fatalf("scrub: %v", err)
		}
		if !w {
			break
		}
		worked = true
	}
	if !worked {
		t.Fatal("scrub did no work on a rotted store")
	}
	d := Stats().Sub(before)
	if d.ScrubbedBlocks == 0 || d.RepairedShards == 0 {
		t.Fatalf("scrub counters: %+v", d)
	}
	// All content intact afterwards, with no faults left to mask.
	for blk := 0; blk < 8; blk++ {
		wantBlock(t, s, blk)
	}
	// Clean store: scrub is idle until the next mutation.
	if w, _ := s.ScrubStep(64); w {
		t.Fatal("scrub kept working on a clean store")
	}
	if err := s.WriteBlock(0, []byte{0, 0xEE, 0}); err != nil {
		t.Fatal(err)
	}
	if w, _ := s.ScrubStep(64); !w {
		t.Fatal("scrub did not wake after a write")
	}
}

// TestTableTamperNeverLoads forges the committed table with every crc
// trailer kept honest, so the locator nominates the forged bytes and
// only the v5 root stands between them and the table open loads:
//
//   - one byte changed in a stripe the last Flush did not write (open
//     recomputes every stripe MAC from what it reads, not the ones the
//     last commit made);
//   - two stripes' cells swapped between positions.
//
// Either must make open fall back to the older commit or fail with
// ErrCorrupt; neither may load the forged table.
func TestTableTamperNeverLoads(t *testing.T) {
	key := KeyFromString("table-tamper")
	// cellAt reads stripe st's cell in file f.
	cellAt := func(h *hostos.Host, s *BlockStore, f, st int) []byte {
		cell := make([]byte, s.cellSize())
		if n, err := h.ReadFileAt(s.fileName(f), s.cellOff(st), cell); err != nil || n < len(cell) {
			t.Fatal("short read of a table cell")
		}
		return cell
	}
	rows := []struct {
		name  string
		forge func(h *hostos.Host, s *BlockStore, slot int)
	}{
		{"byte in a stripe the commit did not write", func(h *hostos.Host, s *BlockStore, slot int) {
			st := slot*s.tableStripes() + 4
			cell := cellAt(h, s, 0, st)
			cell[100] ^= 0x40
			binary.LittleEndian.PutUint32(cell[s.shardSize():], crc32.ChecksumIEEE(cell[:s.shardSize()]))
			h.WriteFileAt(s.fileName(0), s.cellOff(st), cell)
		}},
		{"stripes swapped", func(h *hostos.Host, s *BlockStore, slot int) {
			a, b := slot*s.tableStripes(), slot*s.tableStripes()+3
			for f := 0; f < s.nFiles(); f++ {
				ca, cb := cellAt(h, s, f, a), cellAt(h, s, f, b)
				h.WriteFileAt(s.fileName(f), s.cellOff(a), cb)
				h.WriteFileAt(s.fileName(f), s.cellOff(b), ca)
			}
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			h := hostos.New()
			s, model := runCommits(t, h, key, 2)
			prev, prevEpoch := append([]int(nil), model...), s.Epoch()
			// Commit 2 writes stripes 0..3 of its slot; stripe 4 there was
			// last written two commits ago.
			applyCommit(t, s, model, 2)
			if got := flushedStripes(t, s); got != 4 {
				t.Fatalf("commit wrote %d table stripes, want 0..3", got)
			}
			row.forge(h, s, int(s.Epoch()&1))
			s2, err := OpenStore(h, "img", key)
			if err != nil {
				errAny(t, err, ErrCorrupt)
				return
			}
			if s2.Epoch() != prevEpoch {
				t.Fatalf("opened epoch %d over a forged table, want the fallback %d", s2.Epoch(), prevEpoch)
			}
			checkModel(t, s2, prev, "fallback open")
		})
	}

	// A swap of two different stripes already changes the sequence the
	// root covers. Where two stripes hold the same bytes (every
	// never-written entry is zeros) there is nothing for the order to
	// see; the index in Mⱼ is what still ties each stripe MAC to its
	// position.
	t.Run("stripes with the same bytes", func(t *testing.T) {
		s, err := CreateStore(hostos.New(), "zero", key, scriptBlocks)
		if err != nil {
			t.Fatal(err)
		}
		for j := 1; j < s.tableStripes(); j++ {
			if bytes.Equal(s.stripeMACs[:sha256.Size], s.stripeMACs[j*sha256.Size:(j+1)*sha256.Size]) {
				t.Fatalf("all-zero stripes 0 and %d have the same MAC", j)
			}
		}
	})
}

// TestBlockStoreRepairNeverLaunders is the property test for the repair
// path's core invariant: whatever combination of shard corruption and
// crc forgery the host applies, a ReadBlock either returns the exact
// original content or ErrCorrupt — never different bytes. Repair can
// restore truth; it can never invent it.
func TestBlockStoreRepairNeverLaunders(t *testing.T) {
	h, s, _ := newTamperStore(t)
	pristine := hostfault.CopyFiles(h, "dev.s*")
	ss := s.shardSize()
	for trial := 0; trial < 64; trial++ {
		hostfault.PutFiles(h, pristine)
		// Corrupt a pseudo-random subset of shards of block trial%8, with
		// pseudo-random crc forgery.
		blk := trial % 8
		off := s.cellOff(s.blockStripe(blk, s.slot(blk)))
		seed := uint32(trial)*2654435761 + 1
		for f := 0; f < s.nFiles(); f++ {
			seed = seed*1664525 + 1013904223
			if seed%3 == 0 {
				continue // leave this shard honest
			}
			cell := make([]byte, ss+8)
			if n, err := h.ReadFileAt(s.fileName(f), off, cell); err != nil || n < len(cell) {
				t.Fatal("short pristine read")
			}
			cell[int(seed)%ss] ^= byte(seed>>8) | 1
			if seed%2 == 0 { // forge the locator too
				binary.LittleEndian.PutUint32(cell[ss:], crc32.ChecksumIEEE(cell[:ss]))
			}
			h.WriteFileAt(s.fileName(f), off, cell)
		}
		got, err := s.ReadBlock(blk)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("trial %d: unexpected error class %v", trial, err)
			}
			continue
		}
		if !bytes.Equal(got[:3], []byte{byte(blk), 0xEE, byte(blk)}) {
			t.Fatalf("trial %d: read returned WRONG bytes instead of failing closed", trial)
		}
	}
}

// TestRepairCountsOnlyItsOwnStore: Repair and Scrub report what this
// store did, not what the process's stores did together. While a second
// store, on another host, loses a backing file and repairs it in a
// loop, an intact store's Repair rebuilds nothing in every call and its
// one full Scrub verifies exactly its 8 written blocks. Counted as
// deltas of the process-wide RepairedShards and ScrubbedBlocks, both
// pick up the other store's work.
func TestRepairCountsOnlyItsOwnStore(t *testing.T) {
	_, intact, _ := newTamperStore(t)
	hb, busy, _ := newTamperStore(t)
	stop := make(chan struct{})
	done := make(chan error)
	go func() {
		var err error
		for err == nil {
			select {
			case <-stop:
				done <- nil
				return
			default:
			}
			hb.RemoveFile(busy.fileName(1))
			var n int
			if n, err = busy.Repair(); err == nil && n == 0 {
				err = errors.New("the damaged store rebuilt no shard")
			}
			if err == nil {
				err = busy.WriteBlock(0, []byte{0, 0xEE, 0})
			}
			if err == nil {
				err = busy.Flush()
			}
			if err == nil {
				_, err = busy.Scrub()
			}
		}
		<-stop
		done <- err
	}()
	blocks, serr := intact.Scrub()
	var rebuilt []int
	for i := 0; i < 300; i++ {
		n, err := intact.Repair()
		if err != nil {
			t.Error(err)
			break
		}
		if n != 0 {
			rebuilt = append(rebuilt, n)
		}
	}
	close(stop)
	if err := <-done; err != nil {
		t.Fatalf("damaged store: %v", err)
	}
	if serr != nil || blocks != 8 {
		t.Errorf("intact store's Scrub: %d blocks, %v; want 8, nil", blocks, serr)
	}
	if len(rebuilt) > 0 {
		t.Errorf("intact store's Repair rebuilt shards in %d of 300 calls: %v", len(rebuilt), rebuilt)
	}
}
