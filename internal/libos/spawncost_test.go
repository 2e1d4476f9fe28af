package libos_test

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/fs"
	"repro/internal/hostos"
	"repro/internal/isa"
	"repro/internal/libos"
	"repro/internal/mem"
	"repro/internal/oelf"
	"repro/internal/ulib"
)

// This file holds the two batteries behind "spawn and exit pay for what
// the SIP touched": the teardown scrub (pages zeroed per exit follow the
// SIP's writes, for every way a SIP can end) and the verified-image cache
// (a repeat spawn verifies and reads nothing; no change to the file, made
// from a guest or from the host-side VFS, lets a stale image run). The
// package's TestMain keeps libos.CheckTeardownZero on, so every exit in
// here also re-reads its whole domain.

// exitProg exits with code; pad bytes of static data size the binary.
func exitProg(code int64, pad int) func(b *asm.Builder) {
	return func(b *asm.Builder) {
		if pad > 0 {
			b.Bytes("pad", make([]byte, pad))
		}
		b.Entry("_start")
		ulib.Prologue(b)
		ulib.Exit(b, code)
	}
}

func compile(t testing.TB, tc *core.Toolchain, name string, f func(b *asm.Builder)) *oelf.Binary {
	t.Helper()
	bin, err := tc.Compile(name, buildProg(t, f))
	if err != nil {
		t.Fatal(err)
	}
	return bin
}

func spawnWait(t *testing.T, os *libos.Occlum, path string) (int, error) {
	t.Helper()
	p, err := os.Spawn(path, nil, libos.SpawnOpt{})
	if err != nil {
		return 0, err
	}
	return waitTimeout(t, p, 30*time.Second, path), nil
}

// mustRun spawns path, requires the exit status and returns what the
// spawn and exit cost.
func mustRun(t *testing.T, os *libos.Occlum, path string, want int) libos.SpawnSnapshot {
	t.Helper()
	before := os.SpawnStats()
	status, err := spawnWait(t, os, path)
	if err != nil {
		t.Fatalf("spawn %s: %v", path, err)
	}
	if status != want {
		t.Fatalf("%s exited %d, want %d", path, status, want)
	}
	return os.SpawnStats().Sub(before)
}

func domainPages(cfg libos.Config) uint64 {
	return (cfg.DomainCodeSize + cfg.DomainDataSize) / mem.PageSize
}

// TestTeardownScrubFollowsTheSIP checks, for each way a SIP can end, that
// the exit is counted, that the pages it scrubs track what the SIP wrote
// and not the 1280-page reservation — and, through CheckTeardownZero,
// that the whole domain nevertheless reads zero afterwards.
func TestTeardownScrubFollowsTheSIP(t *testing.T) {
	var out bytes.Buffer
	sys, tc := bootSys(t, &out)
	defer sys.OS.Shutdown()
	os := sys.OS
	reserved := domainPages(libos.DefaultConfig())

	const touched = 100
	progs := map[string]func(b *asm.Builder){
		"/bin/clean": exitProg(3, 0),
		"/bin/dirty": func(b *asm.Builder) { // one store to each of 100 heap pages
			b.Entry("_start")
			ulib.Prologue(b)
			b.Load(isa.R6, isa.Mem(isa.R10, libos.AuxHeapBase))
			b.MovRI(isa.R7, touched)
			b.Label("touch")
			b.Store(isa.Mem(isa.R6, 0), isa.R7)
			b.AddI(isa.R6, mem.PageSize)
			b.SubI(isa.R7, 1)
			b.CmpI(isa.R7, 0)
			b.Jg("touch")
			ulib.Exit(b, 4)
		},
		"/bin/wild": func(b *asm.Builder) { // dies on the MMDSFI bound check
			b.Entry("_start")
			ulib.Prologue(b)
			b.MovRI(isa.R1, 0x10000000)
			b.Store(isa.Mem(isa.R1, 0), isa.R1)
			ulib.Exit(b, 0)
		},
		"/bin/spin": func(b *asm.Builder) { // runs until killed
			b.Entry("_start")
			ulib.Prologue(b)
			b.Label("spin")
			ulib.Syscall(b, libos.SysYield)
			b.Jmp("spin")
		},
		// Fits the filesystem, not a 4 MiB data region: the load fails
		// after the domain was allocated.
		"/bin/huge": exitProg(0, 5<<20),
	}
	for path, f := range progs {
		if err := sys.Install(tc, path, path[5:], buildProg(t, f)); err != nil {
			t.Fatal(err)
		}
	}

	clean := mustRun(t, os, "/bin/clean", 3)
	if clean.Exits != 1 || clean.PagesScrubbed == 0 || clean.PagesScrubbed > 16 {
		t.Errorf("clean exit: %+v, want 1 exit scrubbing 1..16 pages (code, trampoline, stack)", clean)
	}
	dirty := mustRun(t, os, "/bin/dirty", 4)
	if got, lo, hi := dirty.PagesScrubbed, uint64(touched), clean.PagesScrubbed+touched+1; got < lo || got > hi {
		t.Errorf("exit after touching %d heap pages scrubbed %d, want %d..%d", touched, got, lo, hi)
	}
	if wild := mustRun(t, os, "/bin/wild", 128+libos.SIGSEGV); wild.Exits != 1 || wild.PagesScrubbed > 16 {
		t.Errorf("bound-fault exit: %+v, want 1 exit scrubbing ≤ 16 pages", wild)
	}

	before := os.SpawnStats()
	p, err := os.Spawn("/bin/spin", nil, libos.SpawnOpt{})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Kill(p.PID(), libos.SIGKILL); err != nil {
		t.Fatal(err)
	}
	if status := waitTimeout(t, p, 30*time.Second, "killed SIP"); status != 128+libos.SIGKILL {
		t.Fatalf("killed SIP status = %d", status)
	}
	if killed := os.SpawnStats().Sub(before); killed.Exits != 1 || killed.PagesScrubbed == 0 || killed.PagesScrubbed > 16 {
		t.Errorf("signal exit: %+v, want 1 exit scrubbing 1..16 pages", killed)
	}

	before = os.SpawnStats()
	if _, err := os.Spawn("/bin/huge", nil, libos.SpawnOpt{}); !errors.Is(err, libos.ErrTooBig) {
		t.Fatalf("oversized binary: %v, want ErrTooBig", err)
	}
	if torn := os.SpawnStats().Sub(before); torn.Exits != 1 || torn.ImageBytesLoaded != 0 || torn.PagesScrubbed > 16 {
		t.Errorf("teardown mid-load: %+v, want 1 exit, nothing loaded, ≤ 16 pages scrubbed", torn)
	}

	total := os.SpawnStats()
	if total.Exits != 5 || total.PagesScrubbed*4 > total.Exits*reserved {
		t.Errorf("%d exits scrubbed %d pages of a %d-page domain each: not ≪ the reservation",
			total.Exits, total.PagesScrubbed, reserved)
	}
	// All eight domains were handed out and taken back at most once so
	// far; run enough SIPs to reuse every one on top of what the five
	// above left behind.
	for i := 0; i < 2*libos.DefaultConfig().NumDomains; i++ {
		mustRun(t, os, "/bin/clean", 3)
	}
}

// TestImageCacheRepeatSpawn is the cache's reason to exist: the second
// spawn of an unchanged file verifies nothing and reads nothing, and
// still loads the whole image into its domain.
func TestImageCacheRepeatSpawn(t *testing.T) {
	var out bytes.Buffer
	sys, tc := bootSys(t, &out)
	defer sys.OS.Shutdown()
	os := sys.OS

	bin := compile(t, tc, "x", exitProg(11, 256<<10))
	if err := sys.InstallBinary("/bin/x", bin); err != nil {
		t.Fatal(err)
	}
	fileSize := uint64(len(bin.Marshal()))
	imageSize := uint64(len(bin.Image.Code) + len(bin.Image.Data))

	first := mustRun(t, os, "/bin/x", 11)
	want := libos.SpawnSnapshot{ImagesVerified: 1, ImageBytesRead: fileSize, ImageBytesLoaded: imageSize, Exits: 1}
	first.PagesScrubbed = 0
	if first != want {
		t.Errorf("first spawn: %+v, want %+v", first, want)
	}
	for i := 0; i < 3; i++ {
		again := mustRun(t, os, "/bin/x", 11)
		want := libos.SpawnSnapshot{ImageCacheHits: 1, ImageBytesLoaded: imageSize, Exits: 1}
		if pages := again.PagesScrubbed; pages < imageSize/mem.PageSize || pages > imageSize/mem.PageSize+16 {
			t.Errorf("repeat spawn scrubbed %d pages for a %d-page image", pages, imageSize/mem.PageSize)
		}
		again.PagesScrubbed = 0
		if again != want {
			t.Errorf("repeat spawn %d: %+v, want %+v", i, again, want)
		}
	}

	// The same numbers are the guest's to read.
	f, err := os.VFS().Open("/proc/occlum", fs.ORdOnly)
	if err != nil {
		t.Fatal(err)
	}
	text := make([]byte, f.Size())
	if _, err := f.ReadAt(text, 0); err != nil {
		t.Fatal(err)
	}
	s := os.SpawnStats()
	for _, line := range []string{
		fmt.Sprintf("ImagesVerified: %d\n", s.ImagesVerified),
		fmt.Sprintf("ImageCacheHits: %d\n", s.ImageCacheHits),
		fmt.Sprintf("ImageBytesRead: %d\n", s.ImageBytesRead),
		fmt.Sprintf("ImageBytesLoaded: %d\n", s.ImageBytesLoaded),
		fmt.Sprintf("PagesScrubbed: %d\n", s.PagesScrubbed),
		fmt.Sprintf("Exits: %d\n", s.Exits),
	} {
		if !strings.Contains(string(text), line) {
			t.Errorf("/proc/occlum lacks %q:\n%s", line, text)
		}
	}
}

// guestTamper builds a SIP that runs steps (each leaves ≥ 0 in R0 on
// success), then spawns /bin/x itself: it exits 0 when the steps worked
// and the spawn was refused with EACCES, 1 when a step failed, 2 when
// the spawn was not refused.
func guestTamper(steps func(b *asm.Builder, fail string), data func(b *asm.Builder)) func(b *asm.Builder) {
	return func(b *asm.Builder) {
		b.String("x", "/bin/x")
		b.String("evilpath", "/tmp/evil")
		data(b)
		b.Entry("_start")
		ulib.Prologue(b)
		steps(b, "fail")
		ulib.SpawnPath(b, "x", 6, "", 0)
		b.CmpI(isa.R0, -libos.EACCES)
		b.Jne("ran")
		ulib.Exit(b, 0)
		b.Label("fail")
		b.Nop()
		ulib.Exit(b, 1)
		b.Label("ran")
		b.Nop()
		ulib.Exit(b, 2)
	}
}

// guestWriteAll emits open(pathSym, flags); lseek(fd, off); write(fd,
// dataSym, n); close(fd), jumping to fail on any error.
func guestWriteAll(b *asm.Builder, fail, pathSym string, pathLen, flags, off int64, dataSym string, n int64) {
	ulib.OpenPath(b, pathSym, pathLen, flags)
	b.MovRR(isa.R7, isa.R0)
	b.CmpI(isa.R7, 0)
	b.Jl(fail)
	b.MovRR(isa.R1, isa.R7)
	b.MovRI(isa.R2, off)
	b.MovRI(isa.R3, libos.SeekSet)
	ulib.Syscall(b, libos.SysLseek)
	b.CmpI(isa.R0, 0)
	b.Jl(fail)
	b.MovRR(isa.R1, isa.R7)
	b.LeaData(isa.R2, dataSym)
	b.MovRI(isa.R3, n)
	ulib.Syscall(b, libos.SysWrite)
	b.CmpI(isa.R0, int32(n))
	b.Jne(fail)
	ulib.Close(b, isa.R7)
}

func inoOf(t testing.TB, os *libos.Occlum, path string) int {
	t.Helper()
	f, err := os.VFS().Open(path, fs.ORdOnly)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	return f.(fs.Versioned).Version().Ino
}

func hostWrite(t testing.TB, os *libos.Occlum, path string, flags fs.OpenFlag, off int64, data []byte) {
	t.Helper()
	f, err := os.VFS().Open(path, flags)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAt(data, off); err != nil {
		t.Fatal(err)
	}
}

// TestImageCacheNeverServesAChangedFile replaces a cached /bin/x in the
// four ways a file can stop being the file that was verified — one byte
// overwritten in place, truncated and rewritten, unlinked and recreated on
// the same inode number, renamed over — each from the host-side VFS and
// from inside a SIP. The next spawn must go back through the verifier:
// refused with ErrNotSigned when the new content is unsigned, and running
// the new program (never the cached one) when it is signed.
func TestImageCacheNeverServesAChangedFile(t *testing.T) {
	tc := core.NewToolchain()
	orig := compile(t, tc, "x", exitProg(11, 0))
	signed := compile(t, tc, "x2", exitProg(22, 0))
	evilBin, err := tc.CompileUnverified("evil", buildProg(t, exitProg(66, 0)))
	if err != nil {
		t.Fatal(err)
	}
	evil := evilBin.Marshal()
	// The first code byte of the encoded original, inverted.
	enc := orig.Marshal()
	codeOff := int64(len(enc) - 4 - len(orig.Sig) - len(orig.Image.Data) - len(orig.Image.Code))
	flipped := []byte{^enc[codeOff]}
	evilData := func(b *asm.Builder) { b.Bytes("evil", evil) }

	cases := []struct {
		name string
		// replacement is what /tmp/evil holds before the change.
		replacement []byte
		host        func(t *testing.T, os *libos.Occlum)
		guest       func(b *asm.Builder) // nil: host only
		// sameIno: the changed /bin/x must sit on the inode the cached
		// image was keyed by (the case is void otherwise).
		sameIno bool
		// wantStatus < 0: the spawn must fail with ErrNotSigned.
		wantStatus int
	}{
		{
			name: "overwrite one byte",
			host: func(t *testing.T, os *libos.Occlum) { hostWrite(t, os, "/bin/x", fs.OWrOnly, codeOff, flipped) },
			guest: guestTamper(func(b *asm.Builder, fail string) {
				guestWriteAll(b, fail, "x", 6, libos.OWrOnly, codeOff, "byte", 1)
			}, func(b *asm.Builder) { b.Bytes("byte", flipped) }),
			sameIno: true, wantStatus: -1,
		},
		{
			name: "O_TRUNC and rewrite unsigned",
			host: func(t *testing.T, os *libos.Occlum) { hostWrite(t, os, "/bin/x", fs.OWrOnly|fs.OTrunc, 0, evil) },
			guest: guestTamper(func(b *asm.Builder, fail string) {
				guestWriteAll(b, fail, "x", 6, libos.OWrOnly|libos.OTrunc, 0, "evil", int64(len(evil)))
			}, evilData),
			sameIno: true, wantStatus: -1,
		},
		{
			name: "unlink and recreate on the same inode",
			host: func(t *testing.T, os *libos.Occlum) {
				if err := os.VFS().Unlink("/bin/x"); err != nil {
					t.Fatal(err)
				}
				hostWrite(t, os, "/bin/x", fs.OWrOnly|fs.OCreate, 0, evil)
			},
			guest: guestTamper(func(b *asm.Builder, fail string) {
				b.LeaData(isa.R1, "x")
				b.MovRI(isa.R2, 6)
				ulib.Syscall(b, libos.SysUnlink)
				b.CmpI(isa.R0, 0)
				b.Jl(fail)
				guestWriteAll(b, fail, "x", 6, libos.OWrOnly|libos.OCreate, 0, "evil", int64(len(evil)))
			}, evilData),
			sameIno: true, wantStatus: -1,
		},
		{
			name:        "rename an unsigned file over it",
			replacement: evil,
			host: func(t *testing.T, os *libos.Occlum) {
				if err := os.VFS().Rename("/tmp/evil", "/bin/x"); err != nil {
					t.Fatal(err)
				}
			},
			guest: guestTamper(func(b *asm.Builder, fail string) {
				ulib.RenamePath(b, "evilpath", 9, "x", 6)
				b.CmpI(isa.R0, 0)
				b.Jl(fail)
			}, func(b *asm.Builder) {}),
			wantStatus: -1,
		},
		{
			name: "O_TRUNC and rewrite signed",
			host: func(t *testing.T, os *libos.Occlum) {
				hostWrite(t, os, "/bin/x", fs.OWrOnly|fs.OTrunc, 0, signed.Marshal())
			},
			sameIno: true, wantStatus: 22,
		},
		{
			name:        "rename a signed file over it",
			replacement: signed.Marshal(),
			host: func(t *testing.T, os *libos.Occlum) {
				if err := os.VFS().Rename("/tmp/evil", "/bin/x"); err != nil {
					t.Fatal(err)
				}
			},
			wantStatus: 22,
		},
	}
	for _, c := range cases {
		for _, from := range []string{"host", "guest"} {
			if from == "guest" && c.guest == nil {
				continue
			}
			t.Run(c.name+"/"+from, func(t *testing.T) {
				var out bytes.Buffer
				sys, _ := bootSys(t, &out)
				defer sys.OS.Shutdown()
				os := sys.OS
				if err := sys.InstallBinary("/bin/x", orig); err != nil {
					t.Fatal(err)
				}
				if c.replacement != nil {
					if err := sys.WriteFile("/tmp/evil", c.replacement); err != nil {
						t.Fatal(err)
					}
				}
				if from == "guest" {
					if err := sys.InstallBinary("/bin/tamper", compile(t, tc, "tamper", c.guest)); err != nil {
						t.Fatal(err)
					}
				}
				mustRun(t, os, "/bin/x", 11)
				if warm := mustRun(t, os, "/bin/x", 11); warm.ImageCacheHits != 1 || warm.ImagesVerified != 0 {
					t.Fatalf("fixture: /bin/x not cached before the change: %+v", warm)
				}
				ino := inoOf(t, os, "/bin/x")

				if from == "host" {
					c.host(t, os)
				} else if d := mustRun(t, os, "/bin/tamper", 0); c.wantStatus < 0 && d.Exits != 1 {
					t.Fatalf("guest tamper: %+v, want no child to have run", d)
				}
				if c.sameIno && inoOf(t, os, "/bin/x") != ino {
					t.Fatalf("fixture: /bin/x moved from inode %d to %d", ino, inoOf(t, os, "/bin/x"))
				}

				before := os.SpawnStats()
				status, err := spawnWait(t, os, "/bin/x")
				d := os.SpawnStats().Sub(before)
				if d.ImageCacheHits != 0 || d.ImageBytesRead == 0 {
					t.Errorf("spawn after the change did not re-read the file: %+v", d)
				}
				if c.wantStatus < 0 {
					if !errors.Is(err, libos.ErrNotSigned) {
						t.Fatalf("spawn after the change: status %d, err %v; want ErrNotSigned", status, err)
					}
					if d.ImagesVerified != 0 || d.ImageBytesLoaded != 0 {
						t.Errorf("refused spawn loaded something: %+v", d)
					}
					// Refused again, not cached as refused-then-accepted.
					if _, err := spawnWait(t, os, "/bin/x"); !errors.Is(err, libos.ErrNotSigned) {
						t.Fatalf("second spawn after the change: %v, want ErrNotSigned", err)
					}
					return
				}
				if err != nil || status != c.wantStatus || d.ImagesVerified != 1 {
					t.Fatalf("spawn after the change: status %d, err %v, %+v; want the new program (%d), verified once",
						status, err, d, c.wantStatus)
				}
				if again := mustRun(t, os, "/bin/x", c.wantStatus); again.ImageCacheHits != 1 {
					t.Errorf("the new version was not cached in turn: %+v", again)
				}
			})
		}
	}
}

// smallDomains is a LibOS whose cache bound (NumDomains × domain size)
// is 576 KiB: room for one 300 KiB-padded image, not two.
func smallDomains(t testing.TB, host map[string][]byte) (*core.System, *core.Toolchain) {
	t.Helper()
	tc := core.NewToolchain()
	cfg := libos.DefaultConfig()
	cfg.NumDomains = 1
	cfg.DomainCodeSize = 64 << 10
	cfg.DomainDataSize = 512 << 10
	cfg.StackSize = 64 << 10
	cfg.MaxThreads = 2
	sys, err := core.BootSystem(core.SystemConfig{LibOS: cfg, HostFiles: host})
	if err != nil {
		t.Fatal(err)
	}
	return sys, tc
}

// TestImageCacheIsBounded: with room for one image, alternating two
// evicts each time, while back-to-back spawns still hit.
func TestImageCacheIsBounded(t *testing.T) {
	sys, tc := smallDomains(t, nil)
	defer sys.OS.Shutdown()
	for i, path := range []string{"/bin/a", "/bin/b"} {
		if err := sys.InstallBinary(path, compile(t, tc, path[5:], exitProg(int64(i+1), 300<<10))); err != nil {
			t.Fatal(err)
		}
	}
	before := sys.OS.SpawnStats()
	for _, path := range []string{"/bin/a", "/bin/b", "/bin/a", "/bin/b", "/bin/b", "/bin/b"} {
		mustRun(t, sys.OS, path, int(path[5]-'a')+1)
	}
	if d := sys.OS.SpawnStats().Sub(before); d.ImagesVerified != 4 || d.ImageCacheHits != 2 {
		t.Errorf("a b a b b b: %d verified, %d hits; want 4 and 2", d.ImagesVerified, d.ImageCacheHits)
	}
}

// TestImageCacheOutlivesTheStore: once verified, an image no longer
// depends on the untrusted store — with the backing files rotted past
// what parity can heal, the cached spawn still runs the authenticated
// program. Once the image is evicted the file must come back through
// EncFS, whose MAC check now refuses it: the cache neither launders nor
// hides tampering, it only postpones the next read.
func TestImageCacheOutlivesTheStore(t *testing.T) {
	// Prepare the image on one kernel and boot a second from its files,
	// so EncFS starts cold and its reads really reach the store.
	prep, tc := smallDomains(t, nil)
	for i, path := range []string{"/bin/x", "/bin/y"} {
		if err := prep.InstallBinary(path, compile(t, tc, path[5:], exitProg(int64(11*(i+1)), 300<<10))); err != nil {
			t.Fatal(err)
		}
	}
	if err := prep.OS.Shutdown(); err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{}
	for _, name := range prep.OS.Store().BackingFiles() {
		data, err := prep.Host.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		files[name] = data
	}
	sys, _ := smallDomains(t, files)
	defer sys.OS.Shutdown()
	os := sys.OS

	mustRun(t, os, "/bin/x", 11)
	for _, name := range os.Store().BackingFiles() {
		if sys.Host.CorruptFiles(name, 0, 0, 1<<16, 3) == 0 {
			t.Fatalf("fixture corrupted nothing in %s", name)
		}
	}
	if d := mustRun(t, os, "/bin/x", 11); d.ImageCacheHits != 1 || d.ImageBytesRead != 0 {
		t.Errorf("cached spawn over a rotted store: %+v, want a hit that reads nothing", d)
	}
	// /bin/y was never read on this kernel: loading it reaches the store.
	if status, err := spawnWait(t, os, "/bin/y"); !errors.Is(err, fs.ErrCorrupt) {
		t.Fatalf("/bin/y from the rotted store: status %d, err %v; want fs.ErrCorrupt", status, err)
	}
}

// TestImageCacheUnionCopyUp: on a union root the cache is keyed by the
// layer that answers. A binary served from the immutable base image is
// cached under the image's version; the first write copies it up, the
// upper layer answers from then on, and the new content goes back
// through the verifier.
func TestImageCacheUnionCopyUp(t *testing.T) {
	tc := core.NewToolchain()
	orig := compile(t, tc, "x", exitProg(11, 0))
	evil, err := tc.CompileUnverified("evil", buildProg(t, exitProg(66, 0)))
	if err != nil {
		t.Fatal(err)
	}
	ib := fs.NewImageBuilder()
	if err := ib.AddFile("/bin/x", orig.Marshal()); err != nil {
		t.Fatal(err)
	}
	blob, root, err := ib.Build()
	if err != nil {
		t.Fatal(err)
	}
	host := hostos.New()
	host.WriteFile("base.img", blob)
	var out bytes.Buffer
	os, _ := bootFromImage(t, host, &out, root)
	defer os.Shutdown()

	if d := mustRun(t, os, "/bin/x", 11); d.ImagesVerified != 1 {
		t.Fatalf("first spawn from the base image: %+v", d)
	}
	if d := mustRun(t, os, "/bin/x", 11); d.ImageCacheHits != 1 || d.ImagesVerified != 0 {
		t.Fatalf("repeat spawn from the base image: %+v", d)
	}
	hostWrite(t, os, "/bin/x", fs.OWrOnly|fs.OTrunc, 0, evil.Marshal())
	before := os.SpawnStats()
	if _, err := spawnWait(t, os, "/bin/x"); !errors.Is(err, libos.ErrNotSigned) {
		t.Fatalf("spawn after copy-up of unsigned content: %v, want ErrNotSigned", err)
	}
	if d := os.SpawnStats().Sub(before); d.ImageCacheHits != 0 || d.ImageBytesRead == 0 {
		t.Errorf("spawn after copy-up did not re-read: %+v", d)
	}
}

// TestImageCacheConcurrentSpawns hammers one path from two host threads
// on two harts while a third keeps replacing the file with one of two
// signed programs (truncate, then write: the file is transiently empty
// or half-written). Under -race this is the cache's data-race check; in
// any build, a spawn may be refused mid-replacement but one that runs
// must be one of the two programs, and once the writer stops the last
// version written is the one that runs.
func TestImageCacheConcurrentSpawns(t *testing.T) {
	tc := core.NewToolchain()
	cfg := libos.DefaultConfig()
	cfg.MaxThreads = 2
	sys, err := core.BootSystem(core.SystemConfig{LibOS: cfg})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.OS.Shutdown()
	os := sys.OS
	versions := [][]byte{
		compile(t, tc, "a", exitProg(11, 8<<10)).Marshal(),
		compile(t, tc, "b", exitProg(22, 24<<10)).Marshal(),
	}
	hostWrite(t, os, "/x", fs.OWrOnly|fs.OCreate|fs.OTrunc, 0, versions[0])

	stop := make(chan struct{})
	var writer, spawners sync.WaitGroup
	writer.Add(1)
	last := 0
	var attempts atomic.Int64
	go func() {
		defer writer.Done()
		for i := 1; ; i++ {
			// One replacement per few spawns, so both cache hits and
			// spawns that overlap a replacement occur.
			for next := attempts.Load() + 4; attempts.Load() < next; runtime.Gosched() {
				select {
				case <-stop:
					return
				default:
				}
			}
			last = i % 2
			f, err := os.VFS().Open("/x", fs.OWrOnly|fs.OTrunc)
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := f.WriteAt(versions[last], 0); err != nil {
				t.Error(err)
			}
			f.Close()
		}
	}()
	var ran, refused [2]int
	for g := 0; g < 2; g++ {
		spawners.Add(1)
		go func(g int) {
			defer spawners.Done()
			for i := 0; i < 60; i++ {
				attempts.Add(1)
				p, err := os.Spawn("/x", nil, libos.SpawnOpt{})
				if err != nil {
					if errors.Is(err, libos.ErrNoDomains) {
						t.Errorf("spawner %d: %v", g, err)
						return
					}
					refused[g]++
					continue
				}
				if status := p.Wait(); status != 11 && status != 22 {
					t.Errorf("spawner %d: a SIP exited %d: neither version of the file", g, status)
					return
				}
				ran[g]++
			}
		}(g)
	}
	spawners.Wait()
	close(stop)
	writer.Wait()
	if ran[0]+ran[1] == 0 {
		t.Fatalf("no spawn ever ran (%v refused)", refused)
	}
	if want := []int{11, 22}[last]; mustRun(t, os, "/x", want).Exits != 1 {
		t.Fatal("unreachable")
	}
	s := os.SpawnStats()
	t.Logf("ran %v, refused mid-replacement %v; %d verified, %d cache hits", ran, refused, s.ImagesVerified, s.ImageCacheHits)
}
