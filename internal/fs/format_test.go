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

// This file holds the on-disk format's two promises: a seal's nonce
// never repeats under a key, and a store written in the previous format
// (v3) still opens, reads, scrubs, repairs and upgrades.

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

// v3FixtureScript is the golden script cut to 16 blocks: full and short
// writes, a flush, rewrites (one twice in an epoch, one to zero length)
// and a second flush.
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

// loadV3Fixture copies testdata/v3 into an in-memory host.
func loadV3Fixture(t *testing.T) *hostos.Host {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("testdata", "v3", v3FixtureName+".s*"))
	if err != nil || len(paths) != 6 {
		t.Fatalf("v3 fixture: %d shard files (%v), want 6", len(paths), err)
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
// ciphertext; Upgrade copies it into a v4 store that reads the same and
// takes writes.
func TestOpenV3Fixture(t *testing.T) {
	want, written := v3FixturePlain(t)
	h := loadV3Fixture(t)
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

	// Upgrade into v4; the v3 files are left as they were.
	up, copied, err := Upgrade(s, h, "v4.img", v3FixtureKey)
	if err != nil {
		t.Fatal(err)
	}
	if copied != written {
		t.Fatalf("upgrade copied %d blocks, want the %d written", copied, written)
	}
	assertFiles(t, h, pristine, "after upgrade")
	up, err = OpenStore(h, "v4.img", v3FixtureKey)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := up.Format(); v != 4 {
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
