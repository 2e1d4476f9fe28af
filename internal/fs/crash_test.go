package fs

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/hostos"
	"repro/internal/hostos/hostfault"
)

// cutModes are the two ways the crash batteries cut a host write
// sequence: drop (power loss: later writes vanish and the store cannot
// tell) and fail (the host refuses later writes with an I/O error).
var cutModes = []struct {
	name string
	cut  func(n int) *hostfault.Fault
}{
	{"drop", hostfault.CrashAfter},
	{"fail", func(n int) *hostfault.Fault { return hostfault.FailWrites(n, hostos.ErrIO) }},
}

// checkCut asserts what the interrupted operation returned. A dropped
// write is invisible, so in drop mode nothing may be reported. In fail
// mode the op reports hostos.ErrIO exactly when the fault tripped, and
// from then on the store is fail-stopped: every WriteBlock and Flush
// returns that error, with the fault already healed.
func checkCut(t *testing.T, mode, what string, s *BlockStore, tripped bool, err error) {
	t.Helper()
	failed := errors.Is(err, hostos.ErrIO)
	if mode == "drop" && err != nil || mode == "fail" && failed != tripped {
		t.Fatalf("%s %s: op returned %v, fault tripped %v", mode, what, err, tripped)
	}
	if !failed {
		return
	}
	if werr := s.WriteBlock(0, nil); !errors.Is(werr, hostos.ErrIO) {
		t.Fatalf("%s: WriteBlock after a refused write returned %v", what, werr)
	}
	if ferr := s.Flush(); !errors.Is(ferr, hostos.ErrIO) {
		t.Fatalf("%s: Flush after a refused write returned %v", what, ferr)
	}
}

// TestCrashMidSyncConsistency cuts the host-write sequence of a Sync at
// every possible point (the fault-injecting host drops, or refuses, all
// writes after the Nth) and remounts from host storage alone. Whatever
// the cut point, the remounted filesystem must:
//
//   - open and mount cleanly (the atomic header+table commit means the
//     host always holds a fully-consistent committed state);
//   - pass fsck (no leaked or double-allocated blocks, tree intact);
//   - equal exactly the tree at the last completed Sync, or — when the
//     cut spared the commit write — the tree at the interrupted Sync.
//
// The A/B block slots are what makes this hold: data writes of the
// interrupted epoch land on shadow slots, leaving every ciphertext the
// committed MAC table references untouched. The battery runs both cut
// modes on the in-memory host, and drop mode once on real files.
func TestCrashMidSyncConsistency(t *testing.T) {
	for _, mode := range cutModes {
		t.Run(mode.name, func(t *testing.T) {
			for _, seed := range []int64{5, 99} {
				crashMidSync(t, mode.name, mode.cut, seed, hostos.New())
			}
		})
	}
	t.Run("dir", func(t *testing.T) {
		crashMidSync(t, "drop", hostfault.CrashAfter, 5, hostos.Dir(t.TempDir()))
	})
}

// crashMidSync is one seed of TestCrashMidSyncConsistency on disk. Every
// cut starts from a fresh store: CreateStore removes the last cut's
// files.
func crashMidSync(t *testing.T, mode string, cutAt func(int) *hostfault.Fault, seed int64, disk hostos.Disk) {
	h := hostfault.New(disk)
	maxCut := 1 << 30
	for cut := 0; cut <= maxCut; cut++ {
		key := KeyFromString("crash")
		store, err := CreateStore(h, "img", key, 2048)
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
		d := &diffState{t: t, rng: rand.New(rand.NewSource(seed)), fs: efs, model: newModel()}
		d.applyOps(120)
		if err := efs.Sync(); err != nil {
			t.Fatal(err)
		}
		committed := d.model.clone()
		epochA := store.Epoch()
		d.applyOps(80)
		interrupted := d.model.clone()

		h.Inject("img*", cutAt(cut))
		err = efs.Sync()
		tripped := h.Heal("img*")
		checkCut(t, mode, fmt.Sprintf("seed %d cut %d sync", seed, cut), store, tripped, err)

		// Remount purely from (possibly cut) host storage.
		store2, err := OpenStore(h, "img", key)
		if err != nil {
			t.Fatalf("seed %d cut %d: remount failed: %v", seed, cut, err)
		}
		efs2, err := Mount(store2)
		if err != nil {
			t.Fatalf("seed %d cut %d: %v", seed, cut, err)
		}
		if err := efs2.Fsck(); err != nil {
			t.Fatalf("seed %d cut %d: %v", seed, cut, err)
		}
		want := committed
		if store2.Epoch() != epochA {
			want = interrupted // the commit write made it through
		}
		chk := &diffState{t: t, fs: efs2, model: want, ops: cut}
		chk.compareTree()

		if !tripped {
			// The whole sync fit under the budget: larger cuts are
			// identical. Done with this seed.
			if store2.Epoch() == epochA {
				t.Fatalf("seed %d: full sync did not advance the epoch", seed)
			}
			t.Logf("seed %d: %d cut points all consistent", seed, cut)
			maxCut = -1
		}
	}
}

// TestCrashRecoveredFSRemainsUsable goes one step further: after a
// mid-sync crash and remount, the filesystem must keep working — more
// random ops, another (complete) sync, another remount, still
// fsck-clean.
func TestCrashRecoveredFSRemainsUsable(t *testing.T) {
	h := hostfault.New(hostos.New())
	key := KeyFromString("crash2")
	store, err := CreateStore(h, "img", key, 2048)
	if err != nil {
		t.Fatal(err)
	}
	if err := Mkfs(store); err != nil {
		t.Fatal(err)
	}
	efs, _ := Mount(store)
	d := &diffState{t: t, rng: rand.New(rand.NewSource(17)), fs: efs, model: newModel()}
	d.applyOps(150)
	if err := efs.Sync(); err != nil {
		t.Fatal(err)
	}
	committed := d.model.clone()
	d.applyOps(60)
	h.Inject("img*", hostfault.CrashAfter(2))
	_ = efs.Sync()
	if !h.Heal("img*") {
		t.Fatal("crash plan never tripped — cut too late to mean anything")
	}

	store2, err := OpenStore(h, "img", key)
	if err != nil {
		t.Fatal(err)
	}
	efs2, err := Mount(store2)
	if err != nil {
		t.Fatal(err)
	}
	d2 := &diffState{t: t, rng: rand.New(rand.NewSource(18)), fs: efs2, model: committed}
	d2.compareTree()
	d2.applyOps(150)
	if err := efs2.Sync(); err != nil {
		t.Fatal(err)
	}
	store3, err := OpenStore(h, "img", key)
	if err != nil {
		t.Fatal(err)
	}
	efs3, err := Mount(store3)
	if err != nil {
		t.Fatal(err)
	}
	if err := efs3.Fsck(); err != nil {
		t.Fatal(err)
	}
	d3 := &diffState{t: t, fs: efs3, model: d2.model}
	d3.compareTree()
}

// TestCrashMidSyncNeverServesCorruptData asserts the fail-closed side:
// across all cut points, no file read after remount may ever return
// bytes that differ from one of the two legitimate states — compareTree
// in TestCrashMidSyncConsistency proves equality, and this test spells
// out the integrity-error path by also exercising reads under a cut
// where shadow-slot data was partially written.
func TestCrashMidSyncNeverServesCorruptData(t *testing.T) {
	h := hostfault.New(hostos.New())
	key := KeyFromString("crash3")
	store, _ := CreateStore(h, "img", key, 512)
	if err := Mkfs(store); err != nil {
		t.Fatal(err)
	}
	efs, _ := Mount(store)
	f, err := efs.Open("/x", ORdWr|OCreate)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 5*BlockSize)
	for i := range payload {
		payload[i] = 0xA1
	}
	if _, err := f.WriteAt(payload, 0); err != nil {
		t.Fatal(err)
	}
	if err := efs.Sync(); err != nil {
		t.Fatal(err)
	}
	// Overwrite with a second pattern, crash after 3 block writes.
	for i := range payload {
		payload[i] = 0xB2
	}
	if _, err := f.WriteAt(payload, 0); err != nil {
		t.Fatal(err)
	}
	h.Inject("img*", hostfault.CrashAfter(3))
	_ = efs.Sync()
	h.Heal("img*")

	store2, err := OpenStore(h, "img", key)
	if err != nil {
		t.Fatal(err)
	}
	efs2, err := Mount(store2)
	if err != nil {
		t.Fatal(err)
	}
	g, err := efs2.Open("/x", ORdOnly)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(payload))
	if _, err := g.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	for i, b := range got {
		if b != 0xA1 {
			t.Fatalf("byte %d = %#x: interrupted sync leaked half-new data", i, b)
		}
	}
}

// seedBigFiles adds count multi-block files (model kept in sync) so the
// repair/scrub crash batteries have a meaningful number of committed
// stripes to cut through.
func seedBigFiles(t *testing.T, d *diffState, efs *EncFS, count, blocksEach int) {
	t.Helper()
	for i := 0; i < count; i++ {
		p := fmt.Sprintf("/big%d", i)
		data := make([]byte, blocksEach*BlockSize)
		d.rng.Read(data)
		n, err := efs.Open(p, ORdWr|OCreate)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := n.WriteAt(data, 0); err != nil {
			t.Fatal(err)
		}
		n.Close()
		if _, err := d.model.create(p, false); err != nil {
			t.Fatal(err)
		}
		if err := d.model.write(p, 0, data); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCrashDuringRepair cuts the host-write sequence of an offline
// Repair at every possible point, in both cut modes. Repair only ever
// rewrites shards to the values the committed MAC table already
// authenticates, so a crash mid-repair must never change logical
// content: whatever the cut, a remount must fsck clean and equal the
// committed tree exactly — and a completed repair must leave the lost
// backing file fully rebuilt.
func TestCrashDuringRepair(t *testing.T) {
	for _, mode := range cutModes {
		t.Run(mode.name, func(t *testing.T) {
			host := hostos.New()
			h := hostfault.New(host)
			key := KeyFromString("crash-repair")
			_, committed := seedCrashStore(t, h, key, 23)

			// The host loses one backing file; snapshot the damaged state
			// so every cut starts from it.
			hostfault.DropFiles(host, "img.s2")
			damaged := hostfault.CopyFiles(host, "img.s*")

			maxCut := 1 << 30
			for cut := 0; cut <= maxCut; cut++ {
				hostfault.DropFiles(host, "img.s*")
				hostfault.PutFiles(host, damaged)
				s2, err := OpenStore(h, "img", key)
				if err != nil {
					t.Fatalf("cut %d: open damaged image: %v", cut, err)
				}
				h.Inject("img.s*", mode.cut(cut))
				_, err = s2.Repair()
				tripped := h.Heal("img.s*")
				checkCut(t, mode.name, fmt.Sprintf("cut %d repair", cut), s2, tripped, err)
				checkRemount(t, h, key, committed, cut)

				if !tripped {
					// The whole repair fit under the budget: the lost file
					// must be back, and the store must survive losing a
					// DIFFERENT file.
					if h.FileSize("img.s2") == 0 {
						t.Fatal("completed repair did not rebuild the lost file")
					}
					hostfault.DropFiles(host, "img.s4")
					s4, err := OpenStore(h, "img", key)
					if err != nil {
						t.Fatal(err)
					}
					efs4, err := Mount(s4)
					if err != nil {
						t.Fatal(err)
					}
					chk2 := &diffState{t: t, fs: efs4, model: committed}
					chk2.compareTree()
					t.Logf("%d repair cut points all consistent", cut)
					maxCut = -1
				}
			}
		})
	}
}

// TestCrashDuringScrub is the same property for the background
// scrubber: rot within the parity envelope, then cut the scrub's repair
// writes at every point, in both cut modes. Any cut must leave a
// remountable, fsck-clean image equal to the committed tree.
func TestCrashDuringScrub(t *testing.T) {
	for _, mode := range cutModes {
		t.Run(mode.name, func(t *testing.T) {
			host := hostos.New()
			h := hostfault.New(host)
			key := KeyFromString("crash-scrub")
			store, committed := seedCrashStore(t, h, key, 29)

			// Bit-rot across two backing files (= m, inside the envelope).
			dataStart := store.cellOff(store.blockStripe(0, 0))
			hostfault.CorruptFiles(host, "img.s1", dataStart, 0, 256, 31)
			hostfault.CorruptFiles(host, "img.s3", dataStart, 0, 256, 37)
			damaged := hostfault.CopyFiles(host, "img.s*")

			maxCut := 1 << 30
			for cut := 0; cut <= maxCut; cut++ {
				hostfault.DropFiles(host, "img.s*")
				hostfault.PutFiles(host, damaged)
				s2, err := OpenStore(h, "img", key)
				if err != nil {
					t.Fatalf("cut %d: open rotted image: %v", cut, err)
				}
				h.Inject("img.s*", mode.cut(cut))
				_, err = s2.Scrub()
				tripped := h.Heal("img.s*")
				checkCut(t, mode.name, fmt.Sprintf("cut %d scrub", cut), s2, tripped, err)
				checkRemount(t, h, key, committed, cut)

				if !tripped {
					t.Logf("%d scrub cut points all consistent", cut)
					maxCut = -1
				}
			}
		})
	}
}

// seedCrashStore builds the repair and scrub batteries' starting image:
// a 512-block store with random ops and five multi-block files, synced.
// It returns the store and the committed tree.
func seedCrashStore(t *testing.T, h hostos.Disk, key Key, seed int64) (*BlockStore, *mnode) {
	t.Helper()
	store, err := CreateStore(h, "img", key, 512)
	if err != nil {
		t.Fatal(err)
	}
	if err := Mkfs(store); err != nil {
		t.Fatal(err)
	}
	efs, _ := Mount(store)
	d := &diffState{t: t, rng: rand.New(rand.NewSource(seed)), fs: efs, model: newModel()}
	d.applyOps(120)
	seedBigFiles(t, d, efs, 5, 8)
	if err := efs.Sync(); err != nil {
		t.Fatal(err)
	}
	return store, d.model.clone()
}

// checkRemount reopens the image from host storage alone and requires
// an fsck-clean tree equal to want.
func checkRemount(t *testing.T, h hostos.Disk, key Key, want *mnode, cut int) {
	t.Helper()
	s3, err := OpenStore(h, "img", key)
	if err != nil {
		t.Fatalf("cut %d: reopen: %v", cut, err)
	}
	efs3, err := Mount(s3)
	if err != nil {
		t.Fatalf("cut %d: %v", cut, err)
	}
	if err := efs3.Fsck(); err != nil {
		t.Fatalf("cut %d: fsck: %v", cut, err)
	}
	chk := &diffState{t: t, fs: efs3, model: want, ops: cut}
	chk.compareTree()
}

// errAny asserts err wraps one of the given sentinels (helper for the
// tamper battery).
func errAny(t *testing.T, err error, sentinels ...error) {
	t.Helper()
	if err == nil {
		t.Fatal("expected a verification error, got success")
	}
	for _, s := range sentinels {
		if errors.Is(err, s) {
			return
		}
	}
	t.Fatalf("unexpected error class: %v", err)
}

// TestSyncReportsNoSpace: a host that is out of space refuses the next
// Sync's first write. The refusal reaches the caller as
// hostos.ErrNoSpace, the store stays fail-stopped, and a fresh mount
// shows the last committed tree.
func TestSyncReportsNoSpace(t *testing.T) {
	h := hostfault.New(hostos.New())
	key := KeyFromString("enospc")
	store, err := CreateStore(h, "img", key, 512)
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
	d := &diffState{t: t, rng: rand.New(rand.NewSource(41)), fs: efs, model: newModel()}
	d.applyOps(80)
	if err := efs.Sync(); err != nil {
		t.Fatal(err)
	}
	committed := d.model.clone()
	d.applyOps(40)

	h.Inject("img*", hostfault.FailWrites(0, hostos.ErrNoSpace))
	if err := efs.Sync(); !errors.Is(err, hostos.ErrNoSpace) {
		t.Fatalf("Sync on a full host returned %v, want ErrNoSpace", err)
	}
	if !h.Heal("img*") {
		t.Fatal("the full host refused nothing")
	}
	if err := efs.Sync(); !errors.Is(err, hostos.ErrNoSpace) {
		t.Fatalf("Sync after the refusal returned %v: the store did not fail-stop", err)
	}
	checkRemount(t, h, key, committed, 0)
}

// TestRefusedRepairOnReadStillServes: with a backing file lost and the
// host refusing writes, a read still serves the authenticated bytes and
// does not see the refused repair; the scrubber retries the rewrite and
// reports the refusal. Once the host heals, a reopened store repairs.
func TestRefusedRepairOnReadStillServes(t *testing.T) {
	host, _, key := newTamperStore(t)
	h := hostfault.New(host)
	hostfault.DropFiles(host, "dev.s1")
	s, err := OpenStore(h, "dev", key)
	if err != nil {
		t.Fatal(err)
	}
	h.Inject("dev.s*", hostfault.FailWrites(0, hostos.ErrIO))
	for i := 0; i < 8; i++ {
		wantBlock(t, s, i)
	}
	if _, err := s.Scrub(); !errors.Is(err, hostos.ErrIO) {
		t.Fatalf("scrub over refused repairs returned %v, want ErrIO", err)
	}
	if err := s.Flush(); !errors.Is(err, hostos.ErrIO) {
		t.Fatalf("Flush after a refused scrub write returned %v, want ErrIO", err)
	}
	h.Heal("dev.s*")
	s2, err := OpenStore(h, "dev", key)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Repair(); err != nil {
		t.Fatal(err)
	}
	if h.FileSize("dev.s1") == 0 {
		t.Fatal("repair after healing did not rebuild the lost file")
	}
	for i := 0; i < 8; i++ {
		wantBlock(t, s2, i)
	}
}
