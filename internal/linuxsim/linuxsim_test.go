package linuxsim_test

import (
	"bytes"
	"testing"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/hostos"
	"repro/internal/isa"
	"repro/internal/libos"
	"repro/internal/linuxsim"
	"repro/internal/ulib"
)

func buildProg(t testing.TB, f func(b *asm.Builder)) *asm.Program {
	t.Helper()
	b := asm.NewBuilder()
	f(b)
	p, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// install compiles (uninstrumented — native Linux runs plain binaries)
// and installs.
func install(t testing.TB, l *linuxsim.Linux, path string, prog *asm.Program) {
	t.Helper()
	tc := core.NewToolchain()
	bin, err := tc.CompileUnverified(path, prog)
	if err != nil {
		t.Fatal(err)
	}
	l.InstallBinary(path, bin)
}

func TestNativeHello(t *testing.T) {
	l := linuxsim.New(hostos.New())
	prog := buildProg(t, func(b *asm.Builder) {
		b.String("msg", "native hello\n")
		b.Entry("_start")
		ulib.Prologue(b)
		ulib.WriteStr(b, 1, "msg", 13)
		ulib.Exit(b, 5)
	})
	install(t, l, "/bin/hello", prog)

	var out bytes.Buffer
	p, err := l.Spawn("/bin/hello", nil, linuxsim.SpawnOpt{Stdout: libos.NewWriterFile(&out)})
	if err != nil {
		t.Fatal(err)
	}
	if status := p.Wait(); status != 5 {
		t.Fatalf("status = %d", status)
	}
	if out.String() != "native hello\n" {
		t.Fatalf("stdout = %q", out.String())
	}
}

func TestNativeSpawnChain(t *testing.T) {
	l := linuxsim.New(hostos.New())
	child := buildProg(t, func(b *asm.Builder) {
		b.String("msg", "child\n")
		b.Entry("_start")
		ulib.Prologue(b)
		ulib.WriteStr(b, 1, "msg", 6)
		ulib.Exit(b, 0)
	})
	install(t, l, "/bin/child", child)

	parent := buildProg(t, func(b *asm.Builder) {
		b.String("path", "/bin/child")
		b.Entry("_start")
		ulib.Prologue(b)
		ulib.SpawnPath(b, "path", 10, "", 0)
		b.MovRR(isa.R6, isa.R0)
		ulib.Wait4(b, isa.R6)
		ulib.Exit(b, 0)
	})
	install(t, l, "/bin/parent", parent)

	var out bytes.Buffer
	p, err := l.Spawn("/bin/parent", nil, linuxsim.SpawnOpt{Stdout: libos.NewWriterFile(&out)})
	if err != nil {
		t.Fatal(err)
	}
	if status := p.Wait(); status != 0 {
		t.Fatalf("status = %d", status)
	}
	if out.String() != "child\n" {
		t.Fatalf("stdout = %q", out.String())
	}
}

func TestNativeFileIO(t *testing.T) {
	l := linuxsim.New(hostos.New())
	prog := buildProg(t, func(b *asm.Builder) {
		b.String("path", "/tmp/f")
		b.String("content", "plaintext")
		b.Zero("buf", 16)
		b.Entry("_start")
		ulib.Prologue(b)
		ulib.OpenPath(b, "path", 6, libos.ORdWr|libos.OCreate)
		b.MovRR(isa.R6, isa.R0)
		b.MovRR(isa.R1, isa.R6)
		b.LeaData(isa.R2, "content")
		b.MovRI(isa.R3, 9)
		ulib.Syscall(b, libos.SysWrite)
		b.MovRR(isa.R1, isa.R6)
		b.MovRI(isa.R2, 0)
		b.MovRI(isa.R3, libos.SeekSet)
		ulib.Syscall(b, libos.SysLseek)
		b.MovRR(isa.R1, isa.R6)
		b.LeaData(isa.R2, "buf")
		b.MovRI(isa.R3, 9)
		ulib.Syscall(b, libos.SysRead)
		b.MovRI(isa.R1, 1)
		b.LeaData(isa.R2, "buf")
		b.MovRI(isa.R3, 9)
		ulib.Syscall(b, libos.SysWrite)
		ulib.Exit(b, 0)
	})
	install(t, l, "/bin/fio", prog)

	var out bytes.Buffer
	p, err := l.Spawn("/bin/fio", nil, linuxsim.SpawnOpt{Stdout: libos.NewWriterFile(&out)})
	if err != nil {
		t.Fatal(err)
	}
	if status := p.Wait(); status != 0 {
		t.Fatalf("status = %d", status)
	}
	if out.String() != "plaintext" {
		t.Fatalf("stdout = %q", out.String())
	}
	got, err := l.ReadFile("/tmp/f")
	if err != nil || string(got) != "plaintext" {
		t.Fatalf("file = %q, %v", got, err)
	}
}

// TestNativeFDFollowsRename: an fd names its file, not the path it was
// opened by. A write after rename(a, b) lands in b and does not
// re-create a, as on Linux.
func TestNativeFDFollowsRename(t *testing.T) {
	l := linuxsim.New(hostos.New())
	prog := buildProg(t, func(b *asm.Builder) {
		b.String("a", "/tmp/a")
		b.String("b", "/tmp/b")
		b.String("content", "moved")
		b.Entry("_start")
		ulib.Prologue(b)
		ulib.OpenPath(b, "a", 6, libos.ORdWr|libos.OCreate)
		b.MovRR(isa.R6, isa.R0)
		b.CmpI(isa.R6, 0)
		b.Jl("fail")
		ulib.RenamePath(b, "a", 6, "b", 6)
		b.CmpI(isa.R0, 0)
		b.Jne("fail")
		b.MovRR(isa.R1, isa.R6)
		b.LeaData(isa.R2, "content")
		b.MovRI(isa.R3, 5)
		ulib.Syscall(b, libos.SysWrite)
		b.CmpI(isa.R0, 5)
		b.Jne("fail")
		ulib.Exit(b, 0)
		b.Label("fail")
		b.Nop()
		ulib.Exit(b, 1)
	})
	install(t, l, "/bin/mv", prog)
	p, err := l.Spawn("/bin/mv", nil, linuxsim.SpawnOpt{})
	if err != nil {
		t.Fatal(err)
	}
	if status := p.Wait(); status != 0 {
		t.Fatalf("status = %d", status)
	}
	if got, err := l.ReadFile("/tmp/a"); err == nil {
		t.Fatalf("the write re-created /tmp/a: %q", got)
	}
	if got, err := l.ReadFile("/tmp/b"); err != nil || string(got) != "moved" {
		t.Fatalf("/tmp/b = %q, %v", got, err)
	}
}

func TestNativeRunsInstrumentedBinariesToo(t *testing.T) {
	// Sanity: the same *instrumented* binary also runs on Linux (the
	// guards pass because BND registers default to an all-range bound
	// only if set; on Linux they are zero — so instead verify the
	// *uninstrumented* path is the one used for Linux in benches, and
	// that instrumented code traps #BR here, proving the measurement
	// methodology must compare like for like).
	l := linuxsim.New(hostos.New())
	tc := core.NewToolchain()
	prog := buildProg(t, func(b *asm.Builder) {
		b.Zero("buf", 16)
		b.Entry("_start")
		ulib.Prologue(b)
		b.LeaData(isa.R1, "buf")
		b.MovRI(isa.R2, 1)
		b.Store(isa.Mem(isa.R1, 0), isa.R2)
		ulib.Exit(b, 0)
	})
	bin, err := tc.Compile("instr", prog)
	if err != nil {
		t.Fatal(err)
	}
	l.InstallBinary("/bin/instr", bin)
	p, err := l.Spawn("/bin/instr", nil, linuxsim.SpawnOpt{})
	if err != nil {
		t.Fatal(err)
	}
	if status := p.Wait(); status != 128+libos.SIGSEGV {
		t.Fatalf("status = %d: instrumented code must #BR on a kernel that does not program MPX", status)
	}
}

func TestBinaryCacheMakesSpawnFlat(t *testing.T) {
	l := linuxsim.New(hostos.New())
	prog := buildProg(t, func(b *asm.Builder) {
		b.Entry("_start")
		ulib.Prologue(b)
		ulib.Exit(b, 0)
	})
	// Pad the data segment to make a "large" binary.
	big := buildProg(t, func(b *asm.Builder) {
		b.Bytes("pad", make([]byte, 2<<20))
		b.Entry("_start")
		ulib.Prologue(b)
		ulib.Exit(b, 0)
	})
	install(t, l, "/bin/small", prog)
	install(t, l, "/bin/big", big)
	for i := 0; i < 3; i++ {
		p, err := l.Spawn("/bin/big", nil, linuxsim.SpawnOpt{})
		if err != nil {
			t.Fatal(err)
		}
		if st := p.Wait(); st != 0 {
			t.Fatalf("status = %d", st)
		}
	}
}
