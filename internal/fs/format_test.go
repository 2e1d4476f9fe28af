package fs

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/hostos"
	"repro/internal/hostos/hostfault"
)

// This file holds the on-disk format's promises: a seal's nonce never
// repeats under a key; a store written in format v3 still opens, reads,
// scrubs, repairs and upgrades; and a store written in format v4 opens
// read-write and migrates to v5 in place with its first Flush, with a
// crash anywhere in that Flush leaving exactly one of the two.

// nonceLog records the nonce of every seal made under one key.
type nonceLog map[[nonceSize]byte]string

// write writes block i of s and records the nonce WriteBlock sealed it
// under, failing if an earlier seal used it.
func (l nonceLog) write(t *testing.T, s *BlockStore, i int, what string) {
	t.Helper()
	if err := s.WriteBlock(i, blockFill(i, len(l))); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	n := [nonceSize]byte(s.entry(i))
	if prev, dup := l[n]; dup {
		t.Fatalf("%s: block %d sealed under nonce %x, which %s already used", what, i, n, prev)
	}
	l[n] = fmt.Sprintf("%s (block %d)", what, i)
}

// TestSealNonceNeverRepeats records every nonce sealed under one key
// across the three ways the host can make a store forget a seal — a
// crash after a WriteBlock and before its Flush, a rollback to a
// snapshot, and CreateStore over an old image — and asserts none
// repeats. A nonce derived from (block, version) repeats in the first
// case: the reopened store is at the old version, and its next write
// reuses the version the lost write had already used.
func TestSealNonceNeverRepeats(t *testing.T) {
	key := KeyFromString("nonce")
	log := nonceLog{}
	first := func(t *testing.T, s *BlockStore, what string) {
		for i := 0; i < 4; i++ {
			log.write(t, s, i, what)
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("crash", func(t *testing.T) {
		h := hostfault.New(hostos.New())
		s, err := CreateStore(h, "a", key, 16)
		if err != nil {
			t.Fatal(err)
		}
		first(t, s, "crash: first commit")
		committed := s.Epoch()
		// The rewrite's k+m cells reach the host, then the power goes:
		// Flush's writes are dropped.
		h.Inject("a.s*", hostfault.CrashAfter(s.nFiles()))
		log.write(t, s, 2, "crash: rewrite lost with its Flush")
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		if !h.Heal("a.s*") {
			t.Fatal("the crash never cut the Flush")
		}
		s2, err := OpenStore(h, "a", key)
		if err != nil {
			t.Fatal(err)
		}
		if s2.Epoch() != committed {
			t.Fatalf("reopened at epoch %d, want the committed %d", s2.Epoch(), committed)
		}
		log.write(t, s2, 2, "crash: rewrite after reopen")
	})

	t.Run("rollback", func(t *testing.T) {
		h := hostos.New()
		s, err := CreateStore(h, "b", key, 16)
		if err != nil {
			t.Fatal(err)
		}
		first(t, s, "rollback: first commit")
		snap := hostfault.CopyFiles(h, "b.s*")
		log.write(t, s, 2, "rollback: write after the snapshot")
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		hostfault.PutFiles(h, snap)
		s2, err := OpenStore(h, "b", key)
		if err != nil {
			t.Fatal(err)
		}
		log.write(t, s2, 2, "rollback: rewrite after the rollback")
	})

	t.Run("recreate", func(t *testing.T) {
		h := hostos.New()
		s, err := CreateStore(h, "c", key, 16)
		if err != nil {
			t.Fatal(err)
		}
		first(t, s, "recreate: old image")
		s2, err := CreateStore(h, "c", key, 16)
		if err != nil {
			t.Fatal(err)
		}
		first(t, s2, "recreate: new image")
	})

	if want := 3*4 + 2 + 2 + 4; !t.Failed() && len(log) != want {
		t.Fatalf("%d seals recorded, want %d", len(log), want)
	}
}

// The v3 fixture in testdata/v3 was written at the commit before format
// v4 by v3's CreateStore(hostos.Dir(…), "v3.img", v3FixtureKey, 16)
// (4+2) followed by v3FixtureScript(s.WriteBlock, s.Flush). It commits
// epoch 4; blocks 10, 12, 13 and 14 were never written.
const v3FixtureName = "v3.img"

var v3FixtureKey = KeyFromString("v3-fixture")

// The v4 fixture in testdata/v4 was written at the commit before format
// v5 by v4's CreateStore(hostos.Dir(…), "v4.img", v4FixtureKey, 16)
// (4+2) followed by v3FixtureScript(s.WriteBlock, s.Flush). It holds the
// v3 fixture's blocks and commits epoch 4.
const v4FixtureName = "v4.img"

var v4FixtureKey = KeyFromString("v4-fixture")

// v3FixtureScript is the golden script cut to 16 blocks: full and short
// writes, a flush, rewrites (one twice in an epoch, one to zero length)
// and a second flush. Both fixtures were written by it.
func v3FixtureScript(write func(i int, data []byte) error, flush func() error) error {
	rng := rand.New(rand.NewSource(42))
	w := func(i, n int) error {
		data := make([]byte, n)
		rng.Read(data)
		return write(i, data)
	}
	for i := 0; i < 10; i++ {
		if err := w(i, BlockSize); err != nil {
			return err
		}
	}
	if err := w(11, 100); err != nil {
		return err
	}
	if err := w(15, BlockSize); err != nil {
		return err
	}
	if err := flush(); err != nil {
		return err
	}
	for i := 0; i < 10; i += 3 {
		if err := w(i, BlockSize); err != nil {
			return err
		}
	}
	if err := w(5, BlockSize); err != nil {
		return err
	}
	if err := w(11, 0); err != nil {
		return err
	}
	return flush()
}

// v3FixturePlain replays the script into a model: what every block of
// the fixture holds (zeros where never written), and which were written.
func v3FixturePlain(t *testing.T) (blocks [][]byte, written int) {
	t.Helper()
	blocks = make([][]byte, 16)
	for i := range blocks {
		blocks[i] = make([]byte, BlockSize)
	}
	seen := map[int]bool{}
	err := v3FixtureScript(func(i int, data []byte) error {
		clear(blocks[i][copy(blocks[i], data):])
		seen[i] = true
		return nil
	}, func() error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	return blocks, len(seen)
}

// loadFixture copies the fixture store name in testdata/dir into an
// in-memory host.
func loadFixture(t *testing.T, dir, name string) *hostos.Host {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("testdata", dir, name+".s*"))
	if err != nil || len(paths) != 6 {
		t.Fatalf("%s fixture: %d shard files (%v), want 6", dir, len(paths), err)
	}
	h := hostos.New()
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		h.WriteFile(filepath.Base(p), data)
	}
	return h
}

// checkBlocks reads every block of s and compares it with want.
func checkBlocks(t *testing.T, s *BlockStore, want [][]byte, what string) {
	t.Helper()
	dst := make([]byte, BlockSize)
	for i := range want {
		if err := s.ReadBlockInto(i, dst); err != nil {
			t.Fatalf("%s: block %d: %v", what, i, err)
		}
		if !bytes.Equal(dst, want[i]) {
			t.Fatalf("%s: block %d is not the fixture's plaintext", what, i)
		}
	}
}

// TestOpenV3Fixture: the committed v3 store opens read-only and reads
// bit-identical to its script; writes are refused with ErrOldFormat;
// scrub and repair put back the fixture's own bytes, never new v3
// ciphertext; Upgrade copies it into a current-format store that reads
// the same and takes writes.
func TestOpenV3Fixture(t *testing.T) {
	want, written := v3FixturePlain(t)
	h := loadFixture(t, "v3", v3FixtureName)
	pristine := hostfault.CopyFiles(h, v3FixtureName+".s*")
	s, err := OpenStore(h, v3FixtureName, v3FixtureKey)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := s.Format(); v != 3 || s.Epoch() != 4 {
		t.Fatalf("fixture opened as format %d at epoch %d, want 3 and 4", v, s.Epoch())
	}
	checkBlocks(t, s, want, "v3 read")

	if err := s.WriteBlock(0, want[1]); !errors.Is(err, ErrOldFormat) {
		t.Fatalf("WriteBlock on v3: %v, want ErrOldFormat", err)
	}
	if err := s.Flush(); !errors.Is(err, ErrOldFormat) {
		t.Fatalf("Flush on v3: %v, want ErrOldFormat", err)
	}
	checkBlocks(t, s, want, "v3 read after refused writes")

	// Scrub: rot one block cell and one table cell; the pass heals both
	// back to the fixture's exact bytes.
	if err := hostfault.FlipBit(h, s.fileName(1), s.cellOff(s.blockStripe(3, s.slot(3)))+9); err != nil {
		t.Fatal(err)
	}
	if err := hostfault.FlipBit(h, s.fileName(4), s.cellOff(int(s.Epoch()&1)*s.tableStripes())+5); err != nil {
		t.Fatal(err)
	}
	before := Stats()
	if n, err := s.Scrub(); err != nil || n != written {
		t.Fatalf("v3 scrub: %d blocks, %v; want %d and nil", n, err, written)
	}
	if d := Stats().Sub(before); d.RepairedShards != 2 || d.CRCMismatches != 1 {
		t.Fatalf("v3 scrub repaired %d shards over %d crc mismatches, want 2 and 1", d.RepairedShards, d.CRCMismatches)
	}
	assertFiles(t, h, pristine, "after scrub")

	// Repair: a lost backing file comes back with the fixture's bytes in
	// everything the commit references (the header, the record, the
	// table and every written block's live cell), and the other files
	// are untouched.
	lost := s.fileName(2)
	hostfault.DropFiles(h, lost)
	s, err = OpenStore(h, v3FixtureName, v3FixtureKey)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Repair(); err != nil {
		t.Fatal(err)
	}
	rebuilt, _ := h.ReadFile(lost)
	slot, T, cs := int(s.Epoch()&1), s.tableStripes(), s.cellSize()
	spans := [][2]int{{0, fileHeaderSize}, {fileHeaderSize + slot*commitRecordSize, commitRecordSize}}
	for j := 0; j < T; j++ {
		spans = append(spans, [2]int{s.cellOff(slot*T + j), cs})
	}
	for i := range want {
		if s.written(i) {
			spans = append(spans, [2]int{s.cellOff(s.blockStripe(i, s.slot(i))), cs})
		}
	}
	for _, sp := range spans {
		off, n := sp[0], sp[1]
		if len(rebuilt) < off+n || !bytes.Equal(rebuilt[off:off+n], pristine[lost][off:off+n]) {
			t.Fatalf("repair rebuilt %s's bytes [%d, %d) differently", lost, off, off+n)
		}
	}
	delete(pristine, lost)
	assertFiles(t, h, pristine, "after repair")

	// Upgrade into the current format; the v3 files are left as they were.
	up, copied, err := Upgrade(s, h, "new.img", v3FixtureKey)
	if err != nil {
		t.Fatal(err)
	}
	if copied != written {
		t.Fatalf("upgrade copied %d blocks, want the %d written", copied, written)
	}
	assertFiles(t, h, pristine, "after upgrade")
	up, err = OpenStore(h, "new.img", v3FixtureKey)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := up.Format(); v != formatV5 {
		t.Fatalf("upgraded store is format %d", v)
	}
	checkBlocks(t, up, want, "upgraded read")
	if err := up.WriteBlock(12, want[0]); err != nil {
		t.Fatal(err)
	}
	if err := up.Flush(); err != nil {
		t.Fatal(err)
	}
}

// assertFiles requires the host's copies of files to be byte-identical.
func assertFiles(t *testing.T, h *hostos.Host, files map[string][]byte, what string) {
	t.Helper()
	for name, data := range files {
		got, err := h.ReadFile(name)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("%s: %s differs from the fixture (%v)", what, name, err)
		}
	}
}

// wantFormat asserts the format and epoch s opened at.
func wantFormat(t *testing.T, s *BlockStore, version int, epoch uint64, what string) {
	t.Helper()
	if v, _ := s.Format(); v != version || s.Epoch() != epoch {
		t.Fatalf("%s: format %d at epoch %d, want %d at %d", what, v, s.Epoch(), version, epoch)
	}
}

// TestOpenV4Fixture: the committed v4 store opens read-write and reads
// bit-identical to its script. A scrub republishes its commit record
// under the v4 label, with v4's root: the files come back byte for byte
// and reopen as v4. Its first Flush commits v5 in place — the headers
// say 5 and the record carries v5's label — and the reopened store reads
// the same and takes writes.
func TestOpenV4Fixture(t *testing.T) {
	want, written := v3FixturePlain(t)
	h := loadFixture(t, "v4", v4FixtureName)
	pristine := hostfault.CopyFiles(h, v4FixtureName+".s*")
	s, err := OpenStore(h, v4FixtureName, v4FixtureKey)
	if err != nil {
		t.Fatal(err)
	}
	wantFormat(t, s, formatV4, 4, "fixture")
	checkBlocks(t, s, want, "v4 read")

	// Rot a block cell, a committed table cell and one file's committed
	// record; the scrub pass puts all three back as they were.
	slot := int(s.Epoch() & 1)
	for _, rot := range []struct{ f, off int }{
		{1, s.cellOff(s.blockStripe(3, s.slot(3))) + 9},
		{4, s.cellOff(slot*s.tableStripes()) + 5},
		{0, fileHeaderSize + slot*commitRecordSize + 50},
	} {
		if err := hostfault.FlipBit(h, s.fileName(rot.f), rot.off); err != nil {
			t.Fatal(err)
		}
	}
	before := Stats()
	if n, err := s.Scrub(); err != nil || n != written {
		t.Fatalf("v4 scrub: %d blocks, %v; want %d and nil", n, err, written)
	}
	if d := Stats().Sub(before); d.RepairedShards != 3 {
		t.Fatalf("v4 scrub repaired %d cells, want 3", d.RepairedShards)
	}
	assertFiles(t, h, pristine, "after scrub")
	if s, err = OpenStore(h, v4FixtureName, v4FixtureKey); err != nil {
		t.Fatal(err)
	}
	wantFormat(t, s, formatV4, 4, "reopen after scrub")

	// The first Flush migrates: nothing changed, so it MACs no stripe,
	// but its record is v5's.
	before = Stats()
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if d := Stats().Sub(before); d.TableStripesMACed != 0 {
		t.Fatalf("migrating Flush of an unchanged table MACed %d stripes, want 0", d.TableStripesMACed)
	}
	s2, err := OpenStore(h, v4FixtureName, v4FixtureKey)
	if err != nil {
		t.Fatal(err)
	}
	wantFormat(t, s2, formatV5, 5, "reopen after the first Flush")
	checkBlocks(t, s2, want, "v5 read")
	for _, name := range s2.BackingFiles() {
		if data, _ := h.ReadFile(name); data[7] != formatV5 {
			t.Fatalf("%s's header says format %d after the migration", name, data[7])
		}
	}
	want[12] = blockFill(12, 1)
	if err := s2.WriteBlock(12, want[12]); err != nil {
		t.Fatal(err)
	}
	if err := s2.Flush(); err != nil {
		t.Fatal(err)
	}
	s3, err := OpenStore(h, v4FixtureName, v4FixtureKey)
	if err != nil {
		t.Fatal(err)
	}
	wantFormat(t, s3, formatV5, 6, "reopen after a v5 write")
	checkBlocks(t, s3, want, "v5 read after a write")
}

// TestCrashAtEveryWriteOfTheV5Migration cuts the v4 fixture's first
// Flush — headers, table stripe, records — at every host write, in both
// cut modes. Each cut reopens to exactly the v4 commit (format 4, epoch
// 4, the fixture's blocks) or the v5 one (format 5, epoch 5, with the
// block written before the Flush), and the recovered store then commits
// v5 and reopens to it. The record is the commit point: a torn v5
// commit falls back to the v4 one.
func TestCrashAtEveryWriteOfTheV5Migration(t *testing.T) {
	v4, _ := v3FixturePlain(t)
	v5 := append([][]byte(nil), v4...)
	v5[12] = blockFill(12, 1)
	fixture := hostfault.CopyFiles(loadFixture(t, "v4", v4FixtureName), v4FixtureName+".s*")
	for _, mode := range cutModes {
		t.Run(mode.name, func(t *testing.T) {
			cuts := 0
			for cut := 0; ; cut++ {
				host := hostos.New()
				hostfault.PutFiles(host, fixture)
				h := hostfault.New(host)
				s, err := OpenStore(h, v4FixtureName, v4FixtureKey)
				if err != nil {
					t.Fatal(err)
				}
				if err := s.WriteBlock(12, v5[12]); err != nil {
					t.Fatal(err)
				}
				h.Inject(v4FixtureName+".s*", mode.cut(cut))
				err = s.Flush()
				tripped := h.Heal(v4FixtureName + ".s*")
				what := fmt.Sprintf("cut %d", cut)
				checkCut(t, mode.name, what, s, tripped, err)

				s2, err := OpenStore(h, v4FixtureName, v4FixtureKey)
				if err != nil {
					t.Fatalf("%s: reopen: %v", what, err)
				}
				want := v4
				if s2.Epoch() == 5 {
					wantFormat(t, s2, formatV5, 5, what)
					want = v5
				} else {
					wantFormat(t, s2, formatV4, 4, what)
				}
				if !tripped && s2.Epoch() != 5 {
					t.Fatalf("%s: an uncut migration did not commit", what)
				}
				checkBlocks(t, s2, want, what)

				if err := s2.Flush(); err != nil {
					t.Fatal(err)
				}
				s3, err := OpenStore(h, v4FixtureName, v4FixtureKey)
				if err != nil {
					t.Fatalf("%s: reopen after recommit: %v", what, err)
				}
				wantFormat(t, s3, formatV5, s2.Epoch(), what+" + recommit")
				checkBlocks(t, s3, want, what+" + recommit")
				cuts++
				if !tripped {
					break
				}
			}
			t.Logf("%d cut points of the v4 → v5 commit all consistent", cuts)
		})
	}
}
