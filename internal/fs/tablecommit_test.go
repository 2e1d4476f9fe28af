package fs

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/hostos"
	"repro/internal/hostos/hostfault"
)

// A Flush writes the table stripes that changed since its A/B table slot
// was last whole, and every one of them when it cannot know. These
// tests hold that by count (Stats().TableStripesWritten) and by crash.

// blockFill is a block's content in the commit scripts below: a pure
// function of (block, generation), so a reopened store can be checked
// against a model that is just a generation per block.
func blockFill(i, gen int) []byte {
	return bytes.Repeat([]byte{byte(gen), byte(i), byte(i >> 8), 0xC3}, BlockSize/4)
}

// flushedStripes runs Flush and returns how many table stripes it wrote.
func flushedStripes(t *testing.T, s *BlockStore) int {
	t.Helper()
	before := Stats()
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	return int(Stats().Sub(before).TableStripesWritten)
}

func writeRange(t *testing.T, s *BlockStore, lo, n, gen int) {
	t.Helper()
	for i := lo; i < lo+n; i++ {
		if err := s.WriteBlock(i, blockFill(i, gen)); err != nil {
			t.Fatal(err)
		}
	}
}

func TestFlushWritesTheTableStripesThatChanged(t *testing.T) {
	h := hostos.New()
	key := KeyFromString("table-commit")
	const maxBlocks = 16384 // the benchmark's device: T = 128 table stripes
	before := Stats()
	s, err := CreateStore(h, "img", key, maxBlocks)
	if err != nil {
		t.Fatal(err)
	}
	T := s.tableStripes()
	if got := int(Stats().Sub(before).TableStripesWritten); got != T {
		t.Fatalf("CreateStore's commit wrote %d table stripes, want all %d", got, T)
	}
	writeRange(t, s, 1000, 512, 1)
	if got := flushedStripes(t, s); got != T {
		t.Fatalf("first commit into the slot CreateStore never wrote: %d stripes, want all %d", got, T)
	}

	// Reopen: the loaded slot is whole, the other unknown.
	s, err = OpenStore(h, "img", key)
	if err != nil {
		t.Fatal(err)
	}
	writeRange(t, s, 1000, 512, 2)
	if got := flushedStripes(t, s); got != T {
		t.Fatalf("first commit after reopen wrote %d table stripes, want all %d", got, T)
	}
	// 512 entries of 32 bytes are 4 stripes' worth; 1000..1511 is
	// unaligned, so it spans stripes 7..11.
	writeRange(t, s, 1000, 512, 3)
	if got := flushedStripes(t, s); got != 5 {
		t.Fatalf("commit of 512 rewritten contiguous blocks wrote %d table stripes, want 5 of %d", got, T)
	}
	// Somewhere else (stripes 70..74): this slot last held the table of
	// two commits ago, so the stripes of the previous commit's range go
	// out again with this commit's.
	writeRange(t, s, 9000, 512, 4)
	if got := flushedStripes(t, s); got != 10 {
		t.Fatalf("commit after moving to another range wrote %d table stripes, want 10", got)
	}
	// Nothing written: the other slot still lacks the last range.
	if got := flushedStripes(t, s); got != 5 {
		t.Fatalf("empty commit wrote %d table stripes, want the previous commit's 5", got)
	}
	if got := flushedStripes(t, s); got != 0 {
		t.Fatalf("second empty commit wrote %d table stripes, want 0", got)
	}

	// 128 entries fill a stripe exactly: the last entry of stripe 0,
	// table bytes [4064, 4096), marks stripe 0 alone.
	writeRange(t, s, 127, 1, 5)
	if got := flushedStripes(t, s); got != 1 {
		t.Fatalf("commit of one entry at a stripe's end wrote %d table stripes, want 1", got)
	}

	// And all of it is what a fresh open reads back.
	s2, err := OpenStore(h, "img", key)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ i, gen int }{{1000, 3}, {1511, 3}, {9000, 4}, {9511, 4}, {127, 5}} {
		got, err := s2.ReadBlock(c.i)
		if err != nil || !bytes.Equal(got, blockFill(c.i, c.gen)) {
			t.Fatalf("block %d after reopen: err %v, generation %d want %d", c.i, err, got[0], c.gen)
		}
	}
}

// TestFlushMACsTheStripesThatChanged: the v5 root is a MAC over one MAC
// per table stripe, and a Flush recomputes only the stripe MACs whose
// entries changed since the previous Flush. Create and open MAC all T
// (open trusts nothing it did not just read); a commit MACs exactly the
// stripes its writes touched, and never more than it writes.
func TestFlushMACsTheStripesThatChanged(t *testing.T) {
	h := hostos.New()
	key := KeyFromString("table-mac")
	const maxBlocks = 16384 // the benchmark's device: T = 128 table stripes
	before := Stats()
	s, err := CreateStore(h, "img", key, maxBlocks)
	if err != nil {
		t.Fatal(err)
	}
	T := s.tableStripes()
	if got := int(Stats().Sub(before).TableStripesMACed); got != T {
		t.Fatalf("CreateStore MACed %d table stripes, want all %d", got, T)
	}
	before = Stats()
	if s, err = OpenStore(h, "img", key); err != nil {
		t.Fatal(err)
	}
	if got := int(Stats().Sub(before).TableStripesMACed); got != T {
		t.Fatalf("OpenStore MACed %d table stripes, want all %d", got, T)
	}
	// 1000..1511 spans stripes 7..11. This commit writes all T (the slot
	// open did not load is unknown) and MACs 5.
	writeRange(t, s, 1000, 512, 1)
	before = Stats()
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if d := Stats().Sub(before); d.TableStripesMACed != 5 || int(d.TableStripesWritten) != T {
		t.Fatalf("commit of blocks 1000..1511 MACed %d and wrote %d table stripes, want 5 and %d",
			d.TableStripesMACed, d.TableStripesWritten, T)
	}
	before = Stats()
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := Stats().Sub(before).TableStripesMACed; got != 0 {
		t.Fatalf("empty commit MACed %d table stripes, want 0", got)
	}

	// Along the commit script, on a live store: MACed ≤ written, and
	// MACed is exactly the stripes the commit's blocks fall in.
	s2, err := CreateStore(hostos.New(), "img", key, scriptBlocks)
	if err != nil {
		t.Fatal(err)
	}
	for c, blocks := range commitScript {
		applyCommit(t, s2, make([]int, scriptBlocks), c)
		touched := map[int]bool{}
		for _, i := range blocks {
			touched[i*entrySize/BlockSize] = true
		}
		before := Stats()
		if err := s2.Flush(); err != nil {
			t.Fatal(err)
		}
		d := Stats().Sub(before)
		if int(d.TableStripesMACed) != len(touched) || d.TableStripesMACed > d.TableStripesWritten {
			t.Fatalf("script commit %d MACed %d table stripes and wrote %d, want %d MACed and no more than written",
				c, d.TableStripesMACed, d.TableStripesWritten, len(touched))
		}
	}
}

// TestSyncOfARewrittenFileWritesFewTableStripes is the same count where
// the benchmark takes it: an EncFS file of 512 blocks rewritten in
// place, then Sync.
func TestSyncOfARewrittenFileWritesFewTableStripes(t *testing.T) {
	h := hostos.New()
	store, err := CreateStore(h, "img", KeyFromString("sync-count"), 16384)
	if err != nil {
		t.Fatal(err)
	}
	if err := Mkfs(store); err != nil {
		t.Fatal(err)
	}
	efs, err := Mount(store)
	if err != nil {
		t.Fatal(err)
	}
	f, err := efs.Open("/data", ORdWr|OCreate)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 512*BlockSize)
	for round := 0; round < 4; round++ {
		for i := range payload {
			payload[i] = byte(i) ^ byte(round)
		}
		if _, err := f.WriteAt(payload, 0); err != nil {
			t.Fatal(err)
		}
		before := Stats()
		if err := efs.Sync(); err != nil {
			t.Fatal(err)
		}
		got := int(Stats().Sub(before).TableStripesWritten)
		if round >= 2 && got > 16 {
			t.Fatalf("round %d: Sync of 512 rewritten blocks wrote %d table stripes, want <= 16 of %d", round, got, store.tableStripes())
		}
	}
}

// commitScript is a run of consecutive commits on one live store (no
// reopen in between, so the slots stay known) in which different table
// stripes are dirty in different epochs. With maxBlocks = 640 the table
// is 5 stripes of 128 entries.
var commitScript = [][]int{
	{0, 1, 2, 639},       // stripes 0 and 4
	{130, 131, 300},      // stripes 1 and 2
	{3, 400},             // stripes 0 and 3: 1 and 2 changed last epoch, not this one
	{},                   // nothing: 0 and 3 changed last epoch, not this one
	{127, 128, 255, 256}, // both sides of the 0|1 and 1|2 boundaries
	{639, 0, 384, 42},    // stripes 4, 0 and 3
}

const scriptBlocks = 640

// runCommits replays commits [0, n) of the script on a fresh store and
// returns it with the model (generation per block, 0: never written).
func runCommits(t *testing.T, h hostos.Disk, key Key, n int) (*BlockStore, []int) {
	t.Helper()
	s, err := CreateStore(h, "img", key, scriptBlocks)
	if err != nil {
		t.Fatal(err)
	}
	model := make([]int, scriptBlocks)
	for c := 0; c < n; c++ {
		applyCommit(t, s, model, c)
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	return s, model
}

// applyCommit writes commit c's blocks (not the Flush).
func applyCommit(t *testing.T, s *BlockStore, model []int, c int) {
	t.Helper()
	for _, i := range commitScript[c%len(commitScript)] {
		model[i] = c + 1
		if err := s.WriteBlock(i, blockFill(i, c+1)); err != nil {
			t.Fatal(err)
		}
	}
}

func checkModel(t *testing.T, s *BlockStore, model []int, what string) {
	t.Helper()
	zero := make([]byte, BlockSize)
	for i, gen := range model {
		got, err := s.ReadBlock(i)
		if err != nil {
			t.Fatalf("%s: block %d: %v", what, i, err)
		}
		want := zero
		if gen != 0 {
			want = blockFill(i, gen)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: block %d holds generation %d, want %d", what, i, got[0], gen)
		}
	}
}

// TestCrashAtEveryWriteAcrossTableCommits cuts the host-write sequence of
// each of the script's commits (block writes, table stripes, records) at
// every point. The store is live across the commits before the cut, so
// every Flush but the first two writes a strict subset of the table. A
// reopen must find exactly the previous commit or the interrupted one,
// and the recovered store must then commit twice more, each commit
// surviving its own reopen.
func TestCrashAtEveryWriteAcrossTableCommits(t *testing.T) {
	key := KeyFromString("crash-table")
	cuts := 0
	for c := 0; c < len(commitScript); c++ {
		for cut := 0; ; cut++ {
			h := hostfault.New(hostos.New())
			s, model := runCommits(t, h, key, c)
			prev := append([]int(nil), model...)
			prevEpoch := s.Epoch()

			h.Inject("img.s*", hostfault.CrashAfter(cut))
			applyCommit(t, s, model, c)
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
			tripped := h.Heal("img.s*")

			s2, err := OpenStore(h, "img", key)
			if err != nil {
				t.Fatalf("commit %d cut %d: reopen: %v", c, cut, err)
			}
			what := fmt.Sprintf("commit %d cut %d", c, cut)
			switch s2.Epoch() {
			case prevEpoch:
				copy(model, prev)
			case prevEpoch + 1:
			default:
				t.Fatalf("%s: reopened at epoch %d, want %d or %d", what, s2.Epoch(), prevEpoch, prevEpoch+1)
			}
			if !tripped && s2.Epoch() != prevEpoch+1 {
				t.Fatalf("%s: an uncut commit did not advance the epoch", what)
			}
			checkModel(t, s2, model, what)

			for more := 1; more <= 2; more++ {
				applyCommit(t, s2, model, c+more)
				if err := s2.Flush(); err != nil {
					t.Fatal(err)
				}
				s3, err := OpenStore(h, "img", key)
				if err != nil {
					t.Fatalf("%s: reopen after %d more commits: %v", what, more, err)
				}
				checkModel(t, s3, model, fmt.Sprintf("%s + %d commits", what, more))
			}
			cuts++
			if !tripped {
				break
			}
		}
	}
	t.Logf("%d cut points across %d commits all consistent", cuts, len(commitScript))
}

// rotTableStripe flips bits in table stripe j of A/B table slot `slot`
// in the first n backing files.
func rotTableStripe(h *hostos.Host, s *BlockStore, slot, j, n int) {
	off := s.cellOff(slot*s.tableStripes() + j)
	for f := 0; f < n; f++ {
		hostfault.CorruptFiles(h, s.fileName(f), off, off+s.shardSize(), 8, int64(f)+7)
	}
}

// TestFallbackOpenLeavesTheOtherSlotUnknown: when the newest commit's
// table does not load and OpenStore falls back one epoch, the slot it
// fell back from is a torn table. The next Flush goes into exactly that
// slot and must rewrite all of it, not the stripes it believes changed.
func TestFallbackOpenLeavesTheOtherSlotUnknown(t *testing.T) {
	h := hostos.New()
	key := KeyFromString("fallback")
	s, model := runCommits(t, h, key, 3)
	prev := append([]int(nil), model...)
	applyCommit(t, s, model, 3)
	applyCommit(t, s, model, 4)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	newest := s.Epoch()
	_, m := s.Geometry()
	// Beyond parity, in a stripe the fallen-back-to epoch's successor
	// does not touch.
	rotTableStripe(h, s, int(newest&1), 3, m+1)

	s2, err := OpenStore(h, "img", key)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Epoch() != newest-1 {
		t.Fatalf("opened epoch %d, want the fallback %d", s2.Epoch(), newest-1)
	}
	checkModel(t, s2, prev, "fallback open")
	copy(model, prev)
	applyCommit(t, s2, model, 1) // stripes 1 and 2 only
	if got, T := flushedStripes(t, s2), s2.tableStripes(); got != T {
		t.Fatalf("commit into the torn slot wrote %d table stripes, want all %d", got, T)
	}
	s3, err := OpenStore(h, "img", key)
	if err != nil {
		t.Fatal(err)
	}
	if s3.Epoch() != newest {
		t.Fatalf("reopened at epoch %d, want %d", s3.Epoch(), newest)
	}
	checkModel(t, s3, model, "after recommit")
}

// TestScrubHealsAStripeTheCommitDidNotWrite: rot lands in a stripe of the
// inactive table slot; the next commit into that slot does not touch the
// stripe (it has not changed), so the rot is now in the committed table.
// The scrub pass that follows must find and heal it — the table scrub
// covers the whole table, not the stripes the commit wrote.
func TestScrubHealsAStripeTheCommitDidNotWrite(t *testing.T) {
	h := hostos.New()
	key := KeyFromString("scrub-table")
	s, model := runCommits(t, h, key, 3)
	inactive := int(s.Epoch()&1) ^ 1
	const stripe = 4 // untouched by script commits 1..4
	off := s.cellOff(inactive*s.tableStripes() + stripe)
	pristine := make([]byte, s.cellSize())
	if n, err := h.ReadFileAt(s.fileName(0), off, pristine); err != nil || n < len(pristine) {
		t.Fatal("short read of the pristine cell")
	}
	rotTableStripe(h, s, inactive, stripe, 1)

	applyCommit(t, s, model, 3)
	if got := flushedStripes(t, s); got >= s.tableStripes() {
		t.Fatalf("commit wrote all %d table stripes; the test needs one that skips stripe %d", got, stripe)
	}
	cell := make([]byte, s.cellSize())
	h.ReadFileAt(s.fileName(0), off, cell)
	if bytes.Equal(cell, pristine) {
		t.Fatal("the commit rewrote the rotted stripe; nothing left for the scrub to prove")
	}

	before := Stats()
	if _, err := s.Scrub(); err != nil {
		t.Fatal(err)
	}
	if d := Stats().Sub(before); d.RepairedShards == 0 {
		t.Fatal("scrub pass after the commit repaired nothing")
	}
	h.ReadFileAt(s.fileName(0), off, cell)
	if !bytes.Equal(cell, pristine) {
		t.Fatal("rotted table cell not restored by the scrub pass")
	}
	s2, err := OpenStore(h, "img", key)
	if err != nil {
		t.Fatal(err)
	}
	before = Stats()
	checkModel(t, s2, model, "after scrub")
	if d := Stats().Sub(before); d.RepairedShards != 0 {
		t.Fatalf("reopen after the scrub still repaired %d shards", d.RepairedShards)
	}
}

// opLog is a Disk that records the order of writes and Syncs: "w" for a
// stripe cell, "r" for a commit record, "s" for a Sync.
type opLog struct {
	hostos.Disk
	ops []byte
}

func (l *opLog) WriteFileAt(name string, off int, p []byte) error {
	op := byte('w')
	if off >= fileHeaderSize && off < shardDataStart {
		op = 'r'
	}
	l.ops = append(l.ops, op)
	return l.Disk.WriteFileAt(name, off, p)
}

func (l *opLog) Sync(name string) error {
	l.ops = append(l.ops, 's')
	return l.Disk.Sync(name)
}

// TestFlushSyncBarriers: Flush syncs every shard file after the table
// stripes and before the commit records, and again after the records.
func TestFlushSyncBarriers(t *testing.T) {
	l := &opLog{Disk: hostos.New()}
	s, err := CreateStore(l, "img", KeyFromString("barrier"), 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WriteBlock(3, []byte("x")); err != nil {
		t.Fatal(err)
	}
	l.ops = l.ops[:0]
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if got, want := string(l.ops), "wwwwwwssssssrrrrrrssssss"; got != want {
		t.Fatalf("Flush issued %s, want %s (one table stripe over 6 files, sync, records, sync)", got, want)
	}
}
