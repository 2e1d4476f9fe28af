package libos_test

import (
	"bytes"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/libos"
	"repro/internal/oelf"
	"repro/internal/ulib"
)

// This file is the warm-slot battery: a domain keeps its CPU, the
// verified image in its code region and the translations of that image
// across exit→spawn, and serves them only to the same image, unchanged
// and unwritten since the loader laid it out. The package's TestMain
// keeps libos.CheckTeardownZero on, so every exit here also checks that
// the data region reads zero and the code region holds exactly its
// resident image.

// oneDomain boots a LibOS with a single domain, so every spawn lands in
// the same slot.
func oneDomain(t testing.TB, harts int) (*core.System, *core.Toolchain) {
	t.Helper()
	cfg := libos.DefaultConfig()
	cfg.NumDomains = 1
	cfg.MaxThreads = harts
	sys, err := core.BootSystem(core.SystemConfig{LibOS: cfg})
	if err != nil {
		t.Fatal(err)
	}
	return sys, core.NewToolchain()
}

// loopProg counts R7 down from n, then exits with code: enough blocks
// for a translation cache to have something to keep.
func loopProg(code, n int64) func(b *asm.Builder) {
	return func(b *asm.Builder) {
		b.Entry("_start")
		ulib.Prologue(b)
		b.MovRI(isa.R7, n)
		b.Label("loop")
		b.SubI(isa.R7, 1)
		b.CmpI(isa.R7, 0)
		b.Jg("loop")
		ulib.Exit(b, code)
	}
}

// TestWarmSlotRepeatSpawn: a repeat spawn into the slot that holds its
// image copies the data segment alone and decodes no block, on the very
// CPU the first spawn ran on.
func TestWarmSlotRepeatSpawn(t *testing.T) {
	sys, tc := oneDomain(t, 1)
	defer sys.OS.Shutdown()
	os := sys.OS
	bin := compile(t, tc, "x", loopProg(11, 5000))
	if err := sys.InstallBinary("/bin/x", bin); err != nil {
		t.Fatal(err)
	}
	d := os.Domain(0)
	if first := mustRun(t, os, "/bin/x", 11); first.SlotHits != 0 || first.ImageBytesLoaded != uint64(len(bin.Image.Code)+len(bin.Image.Data)) {
		t.Fatalf("first spawn: %+v, want a cold load of the whole image", first)
	}
	cpu := os.DomainCPU(d)
	decoded := cpu.CacheStats().Blocks
	if decoded == 0 {
		t.Fatal("fixture: the first spawn decoded nothing")
	}
	for i := 0; i < 3; i++ {
		again := mustRun(t, os, "/bin/x", 11)
		if again.SlotHits != 1 || again.ImageBytesLoaded != uint64(len(bin.Image.Data)) {
			t.Errorf("repeat %d: %+v, want 1 slot hit loading %d data bytes", i, again, len(bin.Image.Data))
		}
		if os.DomainCPU(d) != cpu {
			t.Fatalf("repeat %d ran on a new CPU", i)
		}
		if n := cpu.CacheStats().Blocks; n != decoded {
			t.Errorf("repeat %d decoded %d blocks, want 0", i, n-decoded)
		}
	}
}

// TestWarmSlotPrefersItsImage: with two domains, two binaries spawned in
// turn each keep to the domain that holds their image — a spawn takes an
// empty domain before it displaces another image.
func TestWarmSlotPrefersItsImage(t *testing.T) {
	cfg := libos.DefaultConfig()
	cfg.NumDomains = 2
	sys, err := core.BootSystem(core.SystemConfig{LibOS: cfg})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.OS.Shutdown()
	tc := core.NewToolchain()
	for i, path := range []string{"/bin/a", "/bin/b"} {
		if err := sys.InstallBinary(path, compile(t, tc, path[5:], exitProg(int64(i+1), 0))); err != nil {
			t.Fatal(err)
		}
	}
	var hits []uint64
	for _, path := range []string{"/bin/a", "/bin/b", "/bin/a", "/bin/b", "/bin/b", "/bin/a"} {
		hits = append(hits, mustRun(t, sys.OS, path, int(path[5]-'a')+1).SlotHits)
	}
	if want := []uint64{0, 0, 1, 1, 1, 1}; !slices.Equal(hits, want) {
		t.Errorf("a b a b b a: slot hits %v, want %v", hits, want)
	}
}

// TestWarmSlotTrustedWriteForcesColdLoad: a trusted write to a resident
// code page between two spawns — here one that turns "exit 11" into
// "exit 99" — fails the slot's span check. The next spawn loads the
// image again and runs the verified bytes the loader wrote, not the
// written ones nor translations of either.
func TestWarmSlotTrustedWriteForcesColdLoad(t *testing.T) {
	sys, tc := oneDomain(t, 1)
	defer sys.OS.Shutdown()
	os := sys.OS
	bin := compile(t, tc, "x", loopProg(11, 100))
	if err := sys.InstallBinary("/bin/x", bin); err != nil {
		t.Fatal(err)
	}
	exit11, _ := isa.Encode(nil, isa.Inst{Op: isa.OpMovRI, R1: isa.R1, Imm: 11})
	exit99, _ := isa.Encode(nil, isa.Inst{Op: isa.OpMovRI, R1: isa.R1, Imm: 99})
	off := bytes.Index(bin.Image.Code, exit11)
	if off < 0 || bytes.LastIndex(bin.Image.Code, exit11) != off {
		t.Fatalf("fixture: %d copies of the exit instruction", bytes.Count(bin.Image.Code, exit11))
	}
	d := os.Domain(0)
	at := d.CodeBase + d.CodeSize - bin.Image.CodeSpan() + uint64(off)

	mustRun(t, os, "/bin/x", 11)
	if warm := mustRun(t, os, "/bin/x", 11); warm.SlotHits != 1 {
		t.Fatalf("fixture: the repeat spawn was no slot hit: %+v", warm)
	}
	if err := os.WriteDirect(at, exit99); err != nil {
		t.Fatal(err)
	}
	if got, want := os.CodeRegion(d); bytes.Equal(got, want) {
		t.Fatal("fixture: the write did not change the code region")
	}
	cold := mustRun(t, os, "/bin/x", 11)
	if cold.SlotHits != 0 || cold.ImageBytesLoaded != uint64(len(bin.Image.Code)+len(bin.Image.Data)) {
		t.Errorf("spawn after the write: %+v, want a cold load of the whole image", cold)
	}
	if got, want := os.CodeRegion(d); !bytes.Equal(got, want) {
		t.Error("the code region does not hold the image the loader laid out")
	}
	if again := mustRun(t, os, "/bin/x", 11); again.SlotHits != 1 {
		t.Errorf("the reloaded image is not warm in turn: %+v", again)
	}
}

// TestWarmSlotSmallAfterLarge: an image loaded into a slot that held a
// larger one leaves no byte of the larger one behind.
func TestWarmSlotSmallAfterLarge(t *testing.T) {
	sys, tc := oneDomain(t, 1)
	defer sys.OS.Shutdown()
	os := sys.OS
	const pattern = 0x7e5a7e5a7e5a7e5a
	large := compile(t, tc, "large", func(b *asm.Builder) {
		b.Entry("_start")
		ulib.Prologue(b)
		for i := 0; i < 2000; i++ { // 20 KB of code
			b.MovRI(isa.R7, pattern)
		}
		ulib.Exit(b, 5)
	})
	small := compile(t, tc, "small", exitProg(3, 0))
	for path, bin := range map[string]*oelf.Binary{"/bin/large": large, "/bin/small": small} {
		if err := sys.InstallBinary(path, bin); err != nil {
			t.Fatal(err)
		}
	}
	mark, _ := isa.Encode(nil, isa.Inst{Op: isa.OpMovRI, R1: isa.R7, Imm: pattern})
	d := os.Domain(0)

	mustRun(t, os, "/bin/large", 5)
	if got, _ := os.CodeRegion(d); bytes.Count(got, mark) != 2000 {
		t.Fatalf("fixture: the large image is not resident (%d marks)", bytes.Count(got, mark))
	}
	s := mustRun(t, os, "/bin/small", 3)
	if largePages := uint64(len(large.Image.Code))/4096 + 1; s.PagesScrubbed < largePages {
		t.Errorf("small after large scrubbed %d pages, want ≥ the large image's %d code pages", s.PagesScrubbed, largePages)
	}
	got, want := os.CodeRegion(d)
	if n := bytes.Count(got, mark); n != 0 {
		t.Errorf("%d instructions of the large image survived the small one's load", n)
	}
	if !bytes.Equal(got, want) {
		t.Error("the code region does not hold exactly the small image")
	}
}

// TestWarmSlotConcurrentSpawns: two harts spawn one path over and over.
// Each spawn takes a slot holding the image whenever one is free: with the
// image verified beforehand, the one slot that holds it and at most one
// more (for the spawn that finds it taken) are ever loaded. Under -race
// this is the slot fields' data-race check.
func TestWarmSlotConcurrentSpawns(t *testing.T) {
	cfg := libos.DefaultConfig()
	cfg.NumDomains = 4
	cfg.MaxThreads = 2
	sys, err := core.BootSystem(core.SystemConfig{LibOS: cfg})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.OS.Shutdown()
	os := sys.OS
	bin := compile(t, core.NewToolchain(), "x", loopProg(11, 500))
	if err := sys.InstallBinary("/bin/x", bin); err != nil {
		t.Fatal(err)
	}
	mustRun(t, os, "/bin/x", 11)
	before := os.SpawnStats()
	const spawners, each = 2, 40
	var wg sync.WaitGroup
	for g := 0; g < spawners; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				p, err := os.Spawn("/bin/x", nil, libos.SpawnOpt{})
				if err != nil {
					t.Error(err)
					return
				}
				if st := p.Wait(); st != 11 {
					t.Errorf("a SIP exited %d, want 11", st)
					return
				}
			}
		}()
	}
	wg.Wait()
	s := os.SpawnStats().Sub(before)
	cold := spawners*each - s.SlotHits
	if s.ImagesVerified != 0 || cold > 1 {
		t.Errorf("%+v: want no verify and at most 1 cold load", s)
	}
	if want := spawners*each*uint64(len(bin.Image.Data)) + cold*uint64(len(bin.Image.Code)); s.ImageBytesLoaded != want {
		t.Errorf("loaded %d bytes, want %d", s.ImageBytesLoaded, want)
	}
}

// TestKillRacingExitNeverReachesNextTenant: Kill reads its target under
// the LibOS lock but asks the target's CPU to yield after dropping it,
// and the target may exit in between. With one domain, that CPU is the
// next SIP's; the request must cost the next SIP nothing but a yield —
// never its exit status.
func TestKillRacingExitNeverReachesNextTenant(t *testing.T) {
	sys, tc := oneDomain(t, 2)
	defer sys.OS.Shutdown()
	os := sys.OS
	if err := sys.InstallBinary("/bin/a", compile(t, tc, "a", exitProg(7, 0))); err != nil {
		t.Fatal(err)
	}
	if err := sys.InstallBinary("/bin/b", compile(t, tc, "b", loopProg(9, 2000))); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		a, err := os.Spawn("/bin/a", nil, libos.SpawnOpt{})
		if err != nil {
			t.Fatal(err)
		}
		killed := make(chan struct{})
		go func() {
			defer close(killed)
			// An error only says a was gone before Kill found it.
			_ = os.Kill(a.PID(), libos.SIGTERM)
		}()
		if st := waitTimeout(t, a, 30*time.Second, "a"); st != 7 && st != 128+libos.SIGTERM {
			t.Fatalf("round %d: a exited %d", i, st)
		}
		b, err := os.Spawn("/bin/b", nil, libos.SpawnOpt{})
		if err != nil {
			t.Fatal(err)
		}
		if st := waitTimeout(t, b, 30*time.Second, "b"); st != 9 {
			t.Fatalf("round %d: b exited %d, want its own 9", i, st)
		}
		<-killed
	}
}

// TestImageCacheEvictionIsDeterministic: over the cache bound, which
// image is evicted depends on the spawn sequence alone (least recently
// used first), so two fresh boots running one sequence count the same.
func TestImageCacheEvictionIsDeterministic(t *testing.T) {
	tc := core.NewToolchain()
	bins := map[string]*oelf.Binary{}
	for i, name := range []string{"a", "b", "c", "d"} {
		bins["/bin/"+name] = compile(t, tc, name, exitProg(int64(i+1), 150<<10))
	}
	// Room for three of the four: a b c fill it, a is used again, so d
	// evicts b and b then evicts c.
	seq := []string{"/bin/a", "/bin/b", "/bin/c", "/bin/a", "/bin/d", "/bin/b"}
	var runs [2]libos.SpawnSnapshot
	for r := range runs {
		sys, _ := smallDomains(t, nil)
		for path, bin := range bins {
			if err := sys.InstallBinary(path, bin); err != nil {
				t.Fatal(err)
			}
		}
		for _, path := range seq {
			mustRun(t, sys.OS, path, int(path[5]-'a')+1)
		}
		runs[r] = sys.OS.SpawnStats()
		sys.OS.Shutdown()
	}
	if runs[0] != runs[1] {
		t.Errorf("two boots, one sequence: %+v and %+v", runs[0], runs[1])
	}
	if s := runs[0]; s.ImagesVerified != 5 || s.ImageCacheHits != 1 {
		t.Errorf("a b c a d b: %d verified, %d hits; want 5 and 1", s.ImagesVerified, s.ImageCacheHits)
	}
}
