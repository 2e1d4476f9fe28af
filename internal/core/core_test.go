package core_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/fs"
	"repro/internal/libos"
	"repro/internal/mmdsfi"
	"repro/internal/oelf"
	"repro/internal/ulib"
)

func hello(t *testing.T) *asm.Program {
	t.Helper()
	b := asm.NewBuilder()
	b.String("m", "hi")
	b.Entry("_start")
	ulib.Prologue(b)
	ulib.WriteStr(b, 1, "m", 2)
	ulib.Exit(b, 0)
	p, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestCompileProducesSignedBinary(t *testing.T) {
	tc := core.NewToolchain()
	bin, err := tc.Compile("h", hello(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := tc.Key().Verify(bin); err != nil {
		t.Fatalf("compiled binary not signed: %v", err)
	}
}

func TestCompileCatchesToolchainMisconfiguration(t *testing.T) {
	// A toolchain configured without SFI emits binaries the verifier
	// rejects at Compile time — the safety net of the architecture.
	tc := core.NewToolchainWith(oelf.NewSigningKey("x"), mmdsfi.Options{})
	if _, err := tc.Compile("h", hello(t)); err == nil {
		t.Fatal("uninstrumented output must fail verification")
	}
}

func TestEndToEnd(t *testing.T) {
	var out bytes.Buffer
	tc := core.NewToolchain()
	sys, err := core.BootSystem(core.SystemConfig{Stdout: &out})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.OS.Shutdown()
	if err := sys.Install(tc, "/apps/deep/hello", "h", hello(t)); err != nil {
		t.Fatal(err)
	}
	p, err := sys.OS.Spawn("/apps/deep/hello", nil, libos.SpawnOpt{})
	if err != nil {
		t.Fatal(err)
	}
	if st := p.Wait(); st != 0 || out.String() != "hi" {
		t.Fatalf("status=%d out=%q", st, out.String())
	}
}

func TestMismatchedVerifierKeyRefused(t *testing.T) {
	// A binary signed by a verifier the LibOS does not trust is
	// rejected by the loader.
	other := core.NewToolchainWith(oelf.NewSigningKey("rogue"), mmdsfi.DefaultOptions())
	bin, err := other.Compile("h", hello(t))
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.BootSystem(core.SystemConfig{}) // trusts the default key
	if err != nil {
		t.Fatal(err)
	}
	defer sys.OS.Shutdown()
	if err := sys.InstallBinary("/bin/h", bin); err != nil {
		t.Fatal(err)
	}
	_, err = sys.OS.Spawn("/bin/h", nil, libos.SpawnOpt{})
	if !errors.Is(err, oelf.ErrBadSignature) {
		t.Fatalf("err = %v, want oelf.ErrBadSignature", err)
	}
}

func TestWriteReadFile(t *testing.T) {
	sys, err := core.BootSystem(core.SystemConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.OS.Shutdown()
	if err := sys.WriteFile("/a/b/c/file.txt", []byte("nested")); err != nil {
		t.Fatal(err)
	}
	got, err := sys.ReadFile("/a/b/c/file.txt")
	if err != nil || string(got) != "nested" {
		t.Fatalf("got %q, %v", got, err)
	}
}

// TestWriteFileReportsWhyItsDirectoryIsMissing fills the inode table and
// checks that WriteFile into a new directory returns the Mkdir's
// fs.ErrFull, not the fs.ErrNotExist of the Open that follows it.
func TestWriteFileReportsWhyItsDirectoryIsMissing(t *testing.T) {
	sys, err := core.BootSystem(core.SystemConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.OS.Shutdown()
	if err := sys.WriteFile("/a/f", nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; ; i++ {
		err := sys.WriteFile(fmt.Sprintf("/f%d", i), nil)
		if errors.Is(err, fs.ErrFull) {
			break
		} else if err != nil {
			t.Fatalf("filling the inode table: %v", err)
		}
	}
	if err := sys.WriteFile("/d/f", []byte("x")); !errors.Is(err, fs.ErrFull) {
		t.Fatalf("WriteFile with the inode table full: %v, want fs.ErrFull", err)
	}
	if err := sys.MkdirAll("/a"); err != nil {
		t.Fatalf("MkdirAll of an existing directory: %v", err)
	}
}
