package libos_test

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fs"
	"repro/internal/hostos/hostfault"
	"repro/internal/libos"
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

// waitScrubQuiet waits until the scrub counters hold still for 50 ms:
// the store has latched clean. A scrubber that never latches re-reads
// every written block on each pass and fails it.
func waitScrubQuiet(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		s0 := fs.Stats()
		time.Sleep(50 * time.Millisecond)
		d := fs.Stats().Sub(s0)
		if d.ScrubbedBlocks == 0 && d.RepairedShards == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("scrub counters never stopped growing (last 50 ms: %+v)", d)
		}
	}
}

// oneHart boots a LibOS with a single hart over an fsBlocks-block store
// and installs the hello SIP at /bin/hello.
func oneHart(t *testing.T, fsBlocks int) *core.System {
	t.Helper()
	cfg := libos.DefaultConfig()
	cfg.MaxThreads = 1
	cfg.FSBlocks = fsBlocks
	sys, err := core.BootSystem(core.SystemConfig{LibOS: cfg, Stdout: &bytes.Buffer{}})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Install(core.NewToolchain(), "/bin/hello", "hello", buildProg(t, helloProgram("hi\n", 0))); err != nil {
		t.Fatal(err)
	}
	return sys
}

// writeAndSync writes data to path and commits it.
func writeAndSync(t *testing.T, sys *core.System, path string, data []byte) {
	t.Helper()
	f, err := sys.OS.VFS().Open(path, fs.OWrOnly|fs.OCreate|fs.OTrunc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := sys.OS.Sync(); err != nil {
		t.Fatal(err)
	}
}

// spawnHello runs the hello SIP to completion.
func spawnHello(t *testing.T, sys *core.System) {
	t.Helper()
	p, err := sys.OS.Spawn("/bin/hello", nil, libos.SpawnOpt{})
	if err != nil {
		t.Fatal(err)
	}
	if st := p.Wait(); st != 0 {
		t.Fatalf("hello exited %d", st)
	}
}

// TestSIPExitDoesNotWaitForScrubPass: on one hart and one P, a SIP's
// exit readies the goroutine in Wait, and the hart lets it run after at
// most one scrub window, not after the whole pass a 1 MiB write left
// behind. Each round starts from a store latched clean and counts from
// Spawn's return, so no window already in flight (one the hart began
// while the test goroutine was preempted, say) is charged to the exit.
// Not parallel: it changes GOMAXPROCS.
func TestSIPExitDoesNotWaitForScrubPass(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	sys := oneHart(t, 1024)
	defer sys.OS.Shutdown()

	payload := bytes.Repeat([]byte{0x5A}, 1<<20)
	for round := 0; round < 3; round++ {
		waitScrubQuiet(t)
		writeAndSync(t, sys, "/big", payload)
		p, err := sys.OS.Spawn("/bin/hello", nil, libos.SpawnOpt{})
		if err != nil {
			t.Fatal(err)
		}
		before := fs.Stats()
		if st := p.Wait(); st != 0 {
			t.Fatalf("hello exited %d", st)
		}
		n := fs.Stats().Sub(before).ScrubbedBlocks
		t.Logf("round %d: %d blocks scrubbed from Spawn returning to Wait returning", round, n)
		if n > libos.ScrubWindow {
			t.Fatalf("round %d: %d blocks scrubbed between Spawn and Wait returning, want <= %d", round, n, libos.ScrubWindow)
		}
	}
}

// TestScrubProgressesUnderLoad: yielding after each window must not
// starve the scrubber. Under a closed loop of write, Sync, spawn and
// Wait on one hart and one P, rot within parity is repaired within
// ceil(FSBlocks/ScrubWindow)+1 iterations, and once the loop stops the
// store latches clean and the scrub counters stop growing. Not
// parallel: it changes GOMAXPROCS.
func TestScrubProgressesUnderLoad(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const blocks = 1024
	sys := oneHart(t, blocks)
	defer sys.OS.Shutdown()

	// /fill takes the low three quarters of the block space, so /data
	// lands near its end: a cursor that restarted at every mutation
	// would never reach it under the load below.
	writeAndSync(t, sys, "/fill", bytes.Repeat([]byte{0x11}, 3<<20))
	writeAndSync(t, sys, "/data", bytes.Repeat([]byte{0xAB, 0xCD}, 8<<10))
	waitScrubQuiet(t)

	// Rot two of the six backing files within parity, across the file
	// tails where /data's block cells live (see TestIdleScrubberHealsRot).
	host := sys.OS.Host()
	rotted := 0
	for _, name := range sys.OS.Store().BackingFiles()[1:3] {
		size := host.FileSize(name)
		rotted += hostfault.CorruptFiles(host, name, size-8192, size, 64, 7)
	}
	if rotted == 0 {
		t.Fatal("fixture corrupted no bits")
	}

	base := fs.Stats()
	maxIters := (blocks+libos.ScrubWindow-1)/libos.ScrubWindow + 1
	iters := 0
	for fs.Stats().Sub(base).RepairedShards == 0 {
		if iters == maxIters {
			t.Fatalf("no repair after %d iterations of write/Sync/spawn/Wait (delta %+v)", iters, fs.Stats().Sub(base))
		}
		writeAndSync(t, sys, "/poke", []byte{byte(iters)})
		spawnHello(t, sys)
		iters++
	}
	t.Logf("repaired after %d iterations", iters)

	// With the load gone, the pass in flight and one clean pass finish,
	// the store latches clean and the scrubber stops.
	waitScrubQuiet(t)
}
