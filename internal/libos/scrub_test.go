package libos_test

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/fs"
	"repro/internal/hostos/hostfault"
)

// waitFS polls the package-global fs counters until cond sees the delta
// it wants or the deadline passes.
func waitFS(t *testing.T, before fs.StatCounters, what string, cond func(fs.StatCounters) bool) fs.StatCounters {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		d := fs.Stats().Sub(before)
		if cond(d) {
			return d
		}
		if time.Now().After(deadline) {
			t.Fatalf("idle scrubber never %s (delta %+v)", what, d)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestIdleScrubberHealsRot boots a LibOS, lets the idle harts scrub the
// encrypted store in the background, rots two backing files on the host
// and checks the scrubber finds and repairs the damage without any
// foreground I/O asking for those blocks — then reads the data back to
// prove the repair preserved content.
func TestIdleScrubberHealsRot(t *testing.T) {
	// Counters are package-global: snapshot before boot so nothing the
	// background scrubber does can slip under the baseline.
	before := fs.Stats()

	var out bytes.Buffer
	sys, _ := bootSys(t, &out)
	defer sys.OS.Shutdown()

	// Commit some real data so scrubbing has committed blocks to walk.
	payload := bytes.Repeat([]byte{0xAB, 0xCD}, 8<<10)
	f, err := sys.OS.VFS().Open("/data", fs.OWrOnly|fs.OCreate|fs.OTrunc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(payload, 0); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := sys.OS.Sync(); err != nil {
		t.Fatal(err)
	}

	// The harts are idle now; the scrubber starts walking on its own.
	waitFS(t, before, "walked any blocks", func(d fs.StatCounters) bool {
		return d.ScrubbedBlocks > 0
	})

	// Rot two of the six backing files (within parity: m = 2) across the
	// file tails, where the freshly written /data block cells live — the
	// table region would be rewritten wholesale by the next Flush, which
	// would launder the damage before the scrubber could be credited with
	// it. The next scrub pass must spot the rot via the MAC layer and
	// rewrite the bad shards from parity.
	files := sys.OS.Store().BackingFiles()
	host := sys.OS.Host()
	rotted := 0
	for _, name := range files[1:3] {
		size := host.FileSize(name)
		rotted += hostfault.CorruptFiles(host, name, size-8192, size, 64, 7)
	}
	if rotted == 0 {
		t.Fatal("fixture corrupted no bits")
	}

	// A host-side mutation is invisible to scrubGen, so nudge the store
	// out of its clean-pass latch the way a real workload would: write.
	poke, err := sys.OS.VFS().Open("/poke", fs.OWrOnly|fs.OCreate|fs.OTrunc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := poke.WriteAt([]byte("x"), 0); err != nil {
		t.Fatal(err)
	}
	poke.Close()
	if err := sys.OS.Sync(); err != nil {
		t.Fatal(err)
	}

	waitFS(t, before, "repaired the rot", func(d fs.StatCounters) bool {
		return d.RepairedShards > 0
	})

	// Content survived the damage and the repair.
	g, err := sys.OS.VFS().Open("/data", fs.ORdOnly)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	got := make([]byte, len(payload))
	if _, err := g.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("data diverged after background repair")
	}
}
