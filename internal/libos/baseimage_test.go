package libos_test

import (
	"bytes"
	"testing"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/fs"
	"repro/internal/hostos"
	"repro/internal/hostos/hostfault"
	"repro/internal/isa"
	"repro/internal/libos"
	"repro/internal/sgx"
	"repro/internal/ulib"
)

// packBase builds a little trusted base image holding config the SIP
// will read and then mutate (through copy-up).
func packBase(t testing.TB) (blob []byte, root [32]byte) {
	t.Helper()
	b := fs.NewImageBuilder()
	if err := b.AddFile("/app/motd", []byte("read-only greeting")); err != nil {
		t.Fatal(err)
	}
	if err := b.AddFile("/app/todelete", []byte("x")); err != nil {
		t.Fatal(err)
	}
	blob, root, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return blob, root
}

func bootFromImage(t testing.TB, host *hostos.Host, out *bytes.Buffer, root [32]byte) (*libos.Occlum, *core.Toolchain) {
	t.Helper()
	tc := core.NewToolchain()
	cfg := libos.DefaultConfig()
	cfg.VerifierKey = tc.Key()
	cfg.BaseImage = "base.img"
	cfg.BaseImageRoot = root
	cfg.Stdout = out
	os, err := libos.Boot(sgx.NewPlatform(512<<20), host, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return os, tc
}

// TestBootFromBaseImage is the tentpole's end-to-end path: the LibOS
// mounts a union of the packed integrity-verified image (lower) and the
// encrypted filesystem (upper); a SIP reads trusted base content,
// overwrites it (copy-up), and unlinks another image file (whiteout) —
// all through the unchanged open/read/write/stat/unlink syscalls.
func TestBootFromBaseImage(t *testing.T) {
	blob, root := packBase(t)
	host := hostos.New()
	host.WriteFile("base.img", blob)
	var out bytes.Buffer
	os, tc := bootFromImage(t, host, &out, root)
	defer os.Shutdown()

	app := func(b *asm.Builder) {
		b.String("motd", "/app/motd")
		b.String("gone", "/app/todelete")
		b.Zero("buf", 32)
		b.Entry("_start")
		ulib.Prologue(b)
		// fd = open("/app/motd", O_RDONLY); read; write to stdout.
		ulib.OpenPath(b, "motd", 9, libos.ORdOnly)
		b.MovRR(isa.R6, isa.R0)
		b.CmpI(isa.R6, 0)
		b.Jl("fail")
		b.MovRR(isa.R1, isa.R6)
		b.LeaData(isa.R2, "buf")
		b.MovRI(isa.R3, 18)
		ulib.Syscall(b, libos.SysRead)
		b.MovRI(isa.R1, 1)
		b.LeaData(isa.R2, "buf")
		b.MovRI(isa.R3, 18)
		ulib.Syscall(b, libos.SysWrite)
		ulib.Close(b, isa.R6)
		// Overwrite the same path → copy-up into the encrypted layer.
		ulib.OpenPath(b, "motd", 9, libos.ORdWr)
		b.MovRR(isa.R6, isa.R0)
		b.CmpI(isa.R6, 0)
		b.Jl("fail")
		b.MovRR(isa.R1, isa.R6)
		b.LeaData(isa.R2, "buf") // write back what we read: same bytes, new layer
		b.MovRI(isa.R3, 18)
		ulib.Syscall(b, libos.SysWrite)
		b.CmpI(isa.R0, 18)
		b.Jne("fail")
		ulib.Close(b, isa.R6)
		// Unlink the other image file → whiteout.
		b.LeaData(isa.R1, "gone")
		b.MovRI(isa.R2, 13)
		ulib.Syscall(b, libos.SysUnlink)
		b.CmpI(isa.R0, 0)
		b.Jne("fail")
		// It must be gone now.
		ulib.OpenPath(b, "gone", 13, libos.ORdOnly)
		b.CmpI(isa.R0, -libos.ENOENT)
		b.Jne("fail")
		ulib.Exit(b, 0)
		b.Label("fail")
		b.Nop()
		ulib.Exit(b, 1)
	}

	fsBefore := fs.Stats()
	p, err := buildAndSpawn(t, os, tc, "/bin/app", app)
	if err != nil {
		t.Fatal(err)
	}
	if status := p.Wait(); status != 0 {
		t.Fatalf("status = %d (stdout %q)", status, out.String())
	}
	if out.String() != "read-only greeting" {
		t.Fatalf("stdout = %q", out.String())
	}
	// Copy-up and whiteout really happened.
	if d := fs.Stats().Sub(fsBefore); d.CopyUps == 0 || d.Whiteouts == 0 {
		t.Fatalf("stats = %+v: expected copy-up and whiteout activity", d)
	}
	// The mutated file lives in the writable layer; the unlinked one is
	// dead through the VFS.
	if _, err := os.VFS().Stat("/app/todelete"); err == nil {
		t.Fatal("whiteout did not take")
	}
	if fi, err := os.VFS().Stat("/app/motd"); err != nil || fi.Size != 18 {
		t.Fatalf("motd after copy-up: %+v, %v", fi, err)
	}
}

// TestBaseImageTamperFailsClosed flips one bit in the image's content
// region host-side: a freshly booted LibOS must refuse it — at mount
// (superblock path) or at first read (data path) — and never serve the
// SIP modified bytes.
func TestBaseImageTamperFailsClosed(t *testing.T) {
	blob, root := packBase(t)
	for _, off := range []int{100, fs.BlockSize + 64, len(blob) - fs.BlockSize} {
		host := hostos.New()
		host.WriteFile("base.img", blob)
		if err := hostfault.FlipBit(host, "base.img", off); err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		tc := core.NewToolchain()
		cfg := libos.DefaultConfig()
		cfg.VerifierKey = tc.Key()
		cfg.BaseImage = "base.img"
		cfg.BaseImageRoot = root
		cfg.Stdout = &out
		os, err := libos.Boot(sgx.NewPlatform(512<<20), host, cfg)
		if err != nil {
			continue // failed closed at mount: fine
		}
		// Booted (tamper not on the superblock path): every read of the
		// affected region must error, never return flipped bytes.
		n, err := os.VFS().Open("/app/motd", fs.ORdOnly)
		if err == nil {
			buf := make([]byte, 18)
			if _, rerr := n.ReadAt(buf, 0); rerr == nil {
				if string(buf) != "read-only greeting" {
					t.Fatalf("offset %d: tampered bytes served to the enclave", off)
				}
			}
		}
		os.Shutdown()
	}
}

// buildAndSpawn compiles, installs and spawns a program on a LibOS
// booted outside core.BootSystem.
func buildAndSpawn(t testing.TB, os *libos.Occlum, tc *core.Toolchain, path string, f func(b *asm.Builder)) (*libos.Proc, error) {
	t.Helper()
	prog := buildProg(t, f)
	bin, err := tc.Compile(path, prog)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.VFS().Mkdir("/bin"); err != nil {
		t.Fatal(err)
	}
	if err := os.InstallBinary(path, bin); err != nil {
		t.Fatal(err)
	}
	return os.Spawn(path, nil, libos.SpawnOpt{})
}
