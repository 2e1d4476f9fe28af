package libos_test

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/libos"
	"repro/internal/oelf"
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

func bootSys(t testing.TB, out *bytes.Buffer) (*core.System, *core.Toolchain) {
	t.Helper()
	tc := core.NewToolchain()
	sys, err := core.BootSystem(core.SystemConfig{Stdout: out})
	if err != nil {
		t.Fatal(err)
	}
	return sys, tc
}

// helloProgram writes a message to stdout and exits with the given code.
func helloProgram(msg string, exitCode int64) func(b *asm.Builder) {
	return func(b *asm.Builder) {
		b.String("msg", msg)
		b.Entry("_start")
		ulib.Prologue(b)
		ulib.WriteStr(b, 1, "msg", int64(len(msg)))
		ulib.Exit(b, exitCode)
	}
}

func TestHelloWorld(t *testing.T) {
	var out bytes.Buffer
	sys, tc := bootSys(t, &out)
	defer sys.OS.Shutdown()

	prog := buildProg(t, helloProgram("hello from a SIP\n", 7))
	if err := sys.Install(tc, "/bin/hello", "hello", prog); err != nil {
		t.Fatal(err)
	}
	p, err := sys.OS.Spawn("/bin/hello", nil, libos.SpawnOpt{})
	if err != nil {
		t.Fatal(err)
	}
	if status := p.Wait(); status != 7 {
		t.Fatalf("exit status = %d, want 7", status)
	}
	if out.String() != "hello from a SIP\n" {
		t.Fatalf("stdout = %q", out.String())
	}
}

func TestUnsignedBinaryRefused(t *testing.T) {
	var out bytes.Buffer
	sys, tc := bootSys(t, &out)
	defer sys.OS.Shutdown()

	prog := buildProg(t, helloProgram("evil\n", 0))
	bin, err := tc.CompileUnverified("evil", prog)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.InstallBinary("/bin/evil", bin); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.OS.Spawn("/bin/evil", nil, libos.SpawnOpt{}); err == nil {
		t.Fatal("loader must refuse unsigned binaries")
	}
}

// TestLoaderRefusesWrongGuardSize: Boot maps every domain with oelf's
// one layout, so the loader refuses a binary whose header claims another
// guard size even when its signature is valid. The binary is signed with
// the platform key directly, bypassing the verifier (which would reject
// it at stage 0), and the failed spawn takes no domain.
func TestLoaderRefusesWrongGuardSize(t *testing.T) {
	var out bytes.Buffer
	sys, tc := bootSys(t, &out)
	defer sys.OS.Shutdown()

	doms, _ := sys.OS.Domains()
	for _, d := range doms {
		if gap := d.DataBase - (d.CodeBase + d.CodeSize); gap != oelf.GuardSize {
			t.Fatalf("domain %d: code/data gap %d, want oelf.GuardSize (%d)", d.ID, gap, oelf.GuardSize)
		}
	}

	bin, err := tc.Compile("wide", buildProg(t, helloProgram("wide\n", 0)))
	if err != nil {
		t.Fatal(err)
	}
	bin.Image.GuardSize = 8192
	tc.Key().Sign(bin)
	if err := tc.Key().Verify(bin); err != nil {
		t.Fatal(err)
	}
	if err := sys.InstallBinary("/bin/wide", bin); err != nil {
		t.Fatal(err)
	}
	_, err = sys.OS.Spawn("/bin/wide", nil, libos.SpawnOpt{})
	if err == nil || errors.Is(err, oelf.ErrBadSignature) {
		t.Fatalf("spawn of a signed binary with guard size 8192: err = %v, want a layout refusal", err)
	}
	if _, inUse := sys.OS.Domains(); inUse != 0 {
		t.Fatalf("%d domains taken after the refused spawn, want 0", inUse)
	}

	// The same binary at the layout's guard size, signed the same way,
	// runs: the refusal was the guard size and nothing else.
	bin.Image.GuardSize = oelf.GuardSize
	tc.Key().Sign(bin)
	if err := sys.InstallBinary("/bin/narrow", bin); err != nil {
		t.Fatal(err)
	}
	p, err := sys.OS.Spawn("/bin/narrow", nil, libos.SpawnOpt{})
	if err != nil {
		t.Fatal(err)
	}
	if status := p.Wait(); status != 0 || out.String() != "wide\n" {
		t.Fatalf("exit %d, stdout %q", status, out.String())
	}
}

func TestSpawnChildAndWait(t *testing.T) {
	var out bytes.Buffer
	sys, tc := bootSys(t, &out)
	defer sys.OS.Shutdown()

	child := buildProg(t, helloProgram("child says hi\n", 3))
	if err := sys.Install(tc, "/bin/child", "child", child); err != nil {
		t.Fatal(err)
	}

	parent := buildProg(t, func(b *asm.Builder) {
		b.String("path", "/bin/child")
		b.Entry("_start")
		ulib.Prologue(b)
		ulib.SpawnPath(b, "path", 10, "", 0)
		b.MovRR(isa.R6, isa.R0) // child pid
		ulib.Wait4(b, isa.R6)
		ulib.ExitR(b, isa.R0) // exit with waited pid
	})
	if err := sys.Install(tc, "/bin/parent", "parent", parent); err != nil {
		t.Fatal(err)
	}

	p, err := sys.OS.Spawn("/bin/parent", nil, libos.SpawnOpt{})
	if err != nil {
		t.Fatal(err)
	}
	status := p.Wait()
	if out.String() != "child says hi\n" {
		t.Fatalf("stdout = %q", out.String())
	}
	// The parent exits with the pid wait4 returned (child pid & 0xFF).
	if status == 0 || status > 255 {
		t.Fatalf("status = %d", status)
	}
}

func TestPipeBetweenSIPs(t *testing.T) {
	var out bytes.Buffer
	sys, tc := bootSys(t, &out)
	defer sys.OS.Shutdown()

	// Child reads from fd 0 and echoes to fd 1 uppercased by adding
	// nothing fancy — just copies.
	child := buildProg(t, func(b *asm.Builder) {
		b.Zero("buf", 64)
		b.Entry("_start")
		ulib.Prologue(b)
		b.LeaData(isa.R2, "buf")
		b.MovRI(isa.R3, 64)
		ulib.Syscall(b, libos.SysRead) // read(0 is in R1? no: set R1)
		ulib.Exit(b, 0)
	})
	_ = child

	// Parent: pipe2, spawn child with fds inherited, write into the
	// pipe, child reads. For determinism, instead have the parent
	// write and read back through its own pipe (IPC plumbing), and
	// separately spawn a child that writes to inherited stdout.
	parent := buildProg(t, func(b *asm.Builder) {
		b.Zero("fds", 16)
		b.String("hello", "through the pipe")
		b.Zero("buf", 32)
		b.Entry("_start")
		ulib.Prologue(b)
		ulib.Pipe2(b, "fds")
		// write(fds[1], hello, 16)
		b.LoadData(isa.R1, "fds")
		b.AddI(isa.R1, 0) // keep rfd in R6
		b.MovRR(isa.R6, isa.R1)
		b.LeaData(isa.R1, "fds")
		b.Load(isa.R1, isa.Mem(isa.R1, 8)) // wfd
		b.LeaData(isa.R2, "hello")
		b.MovRI(isa.R3, 16)
		ulib.Syscall(b, libos.SysWrite)
		// read(fds[0], buf, 16)
		b.MovRR(isa.R1, isa.R6)
		b.LeaData(isa.R2, "buf")
		b.MovRI(isa.R3, 16)
		ulib.Syscall(b, libos.SysRead)
		// write(1, buf, R0)
		b.MovRR(isa.R3, isa.R0)
		b.MovRI(isa.R1, 1)
		b.LeaData(isa.R2, "buf")
		ulib.Syscall(b, libos.SysWrite)
		ulib.Exit(b, 0)
	})
	if err := sys.Install(tc, "/bin/pipes", "pipes", parent); err != nil {
		t.Fatal(err)
	}
	p, err := sys.OS.Spawn("/bin/pipes", nil, libos.SpawnOpt{})
	if err != nil {
		t.Fatal(err)
	}
	if status := p.Wait(); status != 0 {
		t.Fatalf("status = %d", status)
	}
	if out.String() != "through the pipe" {
		t.Fatalf("stdout = %q", out.String())
	}
}

func TestFileSyscalls(t *testing.T) {
	var out bytes.Buffer
	sys, tc := bootSys(t, &out)
	defer sys.OS.Shutdown()

	prog := buildProg(t, func(b *asm.Builder) {
		b.String("path", "/data/out.txt")
		b.String("dir", "/data")
		b.String("content", "persisted by a SIP")
		b.Zero("buf", 32)
		b.Entry("_start")
		ulib.Prologue(b)
		// mkdir /data
		b.LeaData(isa.R1, "dir")
		b.MovRI(isa.R2, 5)
		ulib.Syscall(b, libos.SysMkdir)
		// fd = open(path, O_RDWR|O_CREATE)
		ulib.OpenPath(b, "path", 13, libos.ORdWr|libos.OCreate)
		b.MovRR(isa.R6, isa.R0)
		// write(fd, content, 18)
		b.MovRR(isa.R1, isa.R6)
		b.LeaData(isa.R2, "content")
		b.MovRI(isa.R3, 18)
		ulib.Syscall(b, libos.SysWrite)
		// lseek(fd, 0, SET)
		b.MovRR(isa.R1, isa.R6)
		b.MovRI(isa.R2, 0)
		b.MovRI(isa.R3, libos.SeekSet)
		ulib.Syscall(b, libos.SysLseek)
		// read(fd, buf, 18) and echo to stdout
		b.MovRR(isa.R1, isa.R6)
		b.LeaData(isa.R2, "buf")
		b.MovRI(isa.R3, 18)
		ulib.Syscall(b, libos.SysRead)
		b.MovRI(isa.R1, 1)
		b.LeaData(isa.R2, "buf")
		b.MovRI(isa.R3, 18)
		ulib.Syscall(b, libos.SysWrite)
		ulib.Close(b, isa.R6)
		ulib.Exit(b, 0)
	})
	if err := sys.Install(tc, "/bin/fileio", "fileio", prog); err != nil {
		t.Fatal(err)
	}
	p, err := sys.OS.Spawn("/bin/fileio", nil, libos.SpawnOpt{})
	if err != nil {
		t.Fatal(err)
	}
	if status := p.Wait(); status != 0 {
		t.Fatalf("status = %d", status)
	}
	if out.String() != "persisted by a SIP" {
		t.Fatalf("stdout = %q", out.String())
	}
	// The file is visible host-side through the LibOS (shared FS view).
	data, err := sys.ReadFile("/data/out.txt")
	if err != nil || string(data) != "persisted by a SIP" {
		t.Fatalf("ReadFile = %q, %v", data, err)
	}
}

func TestSegfaultingSIPKilledOthersSurvive(t *testing.T) {
	var out bytes.Buffer
	sys, tc := bootSys(t, &out)
	defer sys.OS.Shutdown()

	// A SIP that corrupts a pointer and dies on the mem_guard.
	crasher := buildProg(t, func(b *asm.Builder) {
		b.Entry("_start")
		ulib.Prologue(b)
		b.MovRI(isa.R1, 0x10000000) // LibOS reserve area
		b.MovRI(isa.R2, 0xBAD)
		b.Store(isa.Mem(isa.R1, 0), isa.R2)
		ulib.Exit(b, 0)
	})
	if err := sys.Install(tc, "/bin/crash", "crash", crasher); err != nil {
		t.Fatal(err)
	}
	ok := buildProg(t, helloProgram("survivor\n", 0))
	if err := sys.Install(tc, "/bin/ok", "ok", ok); err != nil {
		t.Fatal(err)
	}

	pc, err := sys.OS.Spawn("/bin/crash", nil, libos.SpawnOpt{})
	if err != nil {
		t.Fatal(err)
	}
	if status := pc.Wait(); status != 128+libos.SIGSEGV {
		t.Fatalf("crasher status = %d, want %d", status, 128+libos.SIGSEGV)
	}
	po, err := sys.OS.Spawn("/bin/ok", nil, libos.SpawnOpt{})
	if err != nil {
		t.Fatal(err)
	}
	if status := po.Wait(); status != 0 {
		t.Fatalf("survivor status = %d", status)
	}
	if out.String() != "survivor\n" {
		t.Fatalf("stdout = %q", out.String())
	}
}

func TestDomainRecycling(t *testing.T) {
	var out bytes.Buffer
	sys, tc := bootSys(t, &out)
	defer sys.OS.Shutdown()

	prog := buildProg(t, helloProgram("x", 0))
	if err := sys.Install(tc, "/bin/x", "x", prog); err != nil {
		t.Fatal(err)
	}
	// Spawn far more processes than domains; each must get a clean
	// domain after recycling.
	for i := 0; i < 25; i++ {
		p, err := sys.OS.Spawn("/bin/x", nil, libos.SpawnOpt{})
		if err != nil {
			t.Fatalf("spawn %d: %v", i, err)
		}
		if status := p.Wait(); status != 0 {
			t.Fatalf("spawn %d: status %d", i, status)
		}
	}
	if got := strings.Repeat("x", 25); out.String() != got {
		t.Fatalf("stdout = %q", out.String())
	}
}

func TestProcFS(t *testing.T) {
	var out bytes.Buffer
	sys, tc := bootSys(t, &out)
	defer sys.OS.Shutdown()

	prog := buildProg(t, func(b *asm.Builder) {
		b.String("path", "/proc/meminfo")
		b.Zero("buf", 128)
		b.Entry("_start")
		ulib.Prologue(b)
		ulib.OpenPath(b, "path", 13, libos.ORdOnly)
		b.MovRR(isa.R6, isa.R0)
		b.MovRR(isa.R1, isa.R6)
		b.LeaData(isa.R2, "buf")
		b.MovRI(isa.R3, 128)
		ulib.Syscall(b, libos.SysRead)
		b.MovRR(isa.R3, isa.R0)
		b.MovRI(isa.R1, 1)
		b.LeaData(isa.R2, "buf")
		ulib.Syscall(b, libos.SysWrite)
		ulib.Exit(b, 0)
	})
	if err := sys.Install(tc, "/bin/proc", "proc", prog); err != nil {
		t.Fatal(err)
	}
	p, err := sys.OS.Spawn("/bin/proc", nil, libos.SpawnOpt{})
	if err != nil {
		t.Fatal(err)
	}
	if status := p.Wait(); status != 0 {
		t.Fatalf("status = %d", status)
	}
	if !strings.Contains(out.String(), "Domains:") {
		t.Fatalf("meminfo = %q", out.String())
	}
}

func TestMmap(t *testing.T) {
	var out bytes.Buffer
	sys, tc := bootSys(t, &out)
	defer sys.OS.Shutdown()

	prog := buildProg(t, func(b *asm.Builder) {
		b.Entry("_start")
		ulib.Prologue(b)
		// addr = mmap(8192)
		b.MovRI(isa.R1, 8192)
		ulib.Syscall(b, libos.SysMmap)
		b.MovRR(isa.R6, isa.R0)
		// The mapping must read as zero, then accept stores.
		b.Load(isa.R2, isa.Mem(isa.R6, 0))
		b.CmpI(isa.R2, 0)
		b.Jne("fail")
		b.MovRI(isa.R2, 77)
		b.Store(isa.Mem(isa.R6, 4096), isa.R2)
		b.Load(isa.R3, isa.Mem(isa.R6, 4096))
		b.CmpI(isa.R3, 77)
		b.Jne("fail")
		ulib.Exit(b, 0)
		b.Label("fail")
		b.Nop()
		ulib.Exit(b, 1)
	})
	if err := sys.Install(tc, "/bin/mmap", "mmap", prog); err != nil {
		t.Fatal(err)
	}
	p, err := sys.OS.Spawn("/bin/mmap", nil, libos.SpawnOpt{})
	if err != nil {
		t.Fatal(err)
	}
	if status := p.Wait(); status != 0 {
		t.Fatalf("status = %d", status)
	}
}

func TestArgvDelivery(t *testing.T) {
	var out bytes.Buffer
	sys, tc := bootSys(t, &out)
	defer sys.OS.Shutdown()

	// Echo argv[1] (length 5) to stdout.
	prog := buildProg(t, func(b *asm.Builder) {
		b.Entry("_start")
		ulib.Prologue(b)
		b.Load(isa.R2, isa.Mem(isa.R10, libos.AuxArgv+8)) // argv[1]
		b.MovRI(isa.R1, 1)
		b.MovRI(isa.R3, 5)
		ulib.Syscall(b, libos.SysWrite)
		ulib.Exit(b, 0)
	})
	if err := sys.Install(tc, "/bin/echoarg", "echoarg", prog); err != nil {
		t.Fatal(err)
	}
	p, err := sys.OS.Spawn("/bin/echoarg", []string{"howdy"}, libos.SpawnOpt{})
	if err != nil {
		t.Fatal(err)
	}
	if status := p.Wait(); status != 0 {
		t.Fatalf("status = %d", status)
	}
	if out.String() != "howdy" {
		t.Fatalf("stdout = %q", out.String())
	}
}

func TestConcurrentSIPs(t *testing.T) {
	var out bytes.Buffer
	sys, tc := bootSys(t, &out)
	defer sys.OS.Shutdown()

	prog := buildProg(t, func(b *asm.Builder) {
		b.Entry("_start")
		ulib.Prologue(b)
		// Busy loop then exit with pid.
		b.MovRI(isa.R7, 50000)
		b.Label("spin")
		b.SubI(isa.R7, 1)
		b.CmpI(isa.R7, 0)
		b.Jg("spin")
		ulib.Syscall(b, libos.SysGetpid)
		ulib.ExitR(b, isa.R0)
	})
	if err := sys.Install(tc, "/bin/spin", "spin", prog); err != nil {
		t.Fatal(err)
	}
	var procs []*libos.Proc
	for i := 0; i < 8; i++ {
		p, err := sys.OS.Spawn("/bin/spin", nil, libos.SpawnOpt{})
		if err != nil {
			t.Fatalf("spawn %d: %v", i, err)
		}
		procs = append(procs, p)
	}
	seen := map[int]bool{}
	for _, p := range procs {
		st := p.Wait()
		if seen[st] {
			t.Fatalf("duplicate exit status (pid) %d", st)
		}
		seen[st] = true
	}
}

func TestKillSignal(t *testing.T) {
	var out bytes.Buffer
	sys, tc := bootSys(t, &out)
	defer sys.OS.Shutdown()

	spin := buildProg(t, func(b *asm.Builder) {
		b.Entry("_start")
		ulib.Prologue(b)
		b.Label("forever")
		b.Jmp("forever")
	})
	if err := sys.Install(tc, "/bin/forever", "forever", spin); err != nil {
		t.Fatal(err)
	}
	p, err := sys.OS.Spawn("/bin/forever", nil, libos.SpawnOpt{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.OS.Kill(p.PID(), libos.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if status := p.Wait(); status != 128+libos.SIGTERM {
		t.Fatalf("status = %d", status)
	}
}

func TestSpawnPropagatesStdout(t *testing.T) {
	// A dedicated stdout per top-level process.
	var global, mine bytes.Buffer
	sys, tc := bootSys(t, &global)
	defer sys.OS.Shutdown()

	prog := buildProg(t, helloProgram("to my writer", 0))
	if err := sys.Install(tc, "/bin/w", "w", prog); err != nil {
		t.Fatal(err)
	}
	p, err := sys.OS.Spawn("/bin/w", nil, libos.SpawnOpt{Stdout: libos.NewWriterFile(&mine)})
	if err != nil {
		t.Fatal(err)
	}
	if status := p.Wait(); status != 0 {
		t.Fatalf("status = %d", status)
	}
	if mine.String() != "to my writer" {
		t.Fatalf("mine = %q", mine.String())
	}
	if global.Len() != 0 {
		t.Fatalf("global = %q", global.String())
	}
}

// TestRenameSyscall drives SysRename end to end from a SIP: same-dir
// rename, cross-dir rename, overwrite of an existing target, and the
// error paths (missing source → ENOENT, cross-mount → EXDEV).
func TestRenameSyscall(t *testing.T) {
	var out bytes.Buffer
	sys, tc := bootSys(t, &out)
	defer sys.OS.Shutdown()

	if err := sys.WriteFile("/w/orig", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	if err := sys.WriteFile("/w/victim", []byte("to be replaced")); err != nil {
		t.Fatal(err)
	}
	if err := sys.MkdirAll("/w2"); err != nil {
		t.Fatal(err)
	}

	prog := buildProg(t, func(b *asm.Builder) {
		b.String("orig", "/w/orig")
		b.String("mid", "/w/renamed")
		b.String("victim", "/w/victim")
		b.String("far", "/w2/final")
		b.String("missing", "/w/missing")
		b.String("dev", "/dev/null")
		b.Entry("_start")
		ulib.Prologue(b)
		// Same-dir rename must succeed (R0 == 0).
		ulib.RenamePath(b, "orig", 7, "mid", 10)
		b.CmpI(isa.R0, 0)
		b.Jne("fail1")
		// Overwrite an existing file.
		ulib.RenamePath(b, "mid", 10, "victim", 9)
		b.CmpI(isa.R0, 0)
		b.Jne("fail2")
		// Cross-dir rename.
		ulib.RenamePath(b, "victim", 9, "far", 9)
		b.CmpI(isa.R0, 0)
		b.Jne("fail3")
		// Missing source → -ENOENT.
		ulib.RenamePath(b, "missing", 8, "mid", 10)
		b.CmpI(isa.R0, -libos.ENOENT)
		b.Jne("fail4")
		// Cross-mount → -EXDEV.
		ulib.RenamePath(b, "far", 9, "dev", 9)
		b.CmpI(isa.R0, -libos.EXDEV)
		b.Jne("fail5")
		ulib.Exit(b, 0)
		b.Label("fail1")
		b.Nop()
		ulib.Exit(b, 1)
		b.Label("fail2")
		b.Nop()
		ulib.Exit(b, 2)
		b.Label("fail3")
		b.Nop()
		ulib.Exit(b, 3)
		b.Label("fail4")
		b.Nop()
		ulib.Exit(b, 4)
		b.Label("fail5")
		b.Nop()
		ulib.Exit(b, 5)
	})
	if err := sys.Install(tc, "/bin/mv", "mv", prog); err != nil {
		t.Fatal(err)
	}
	p, err := sys.OS.Spawn("/bin/mv", nil, libos.SpawnOpt{})
	if err != nil {
		t.Fatal(err)
	}
	if status := p.Wait(); status != 0 {
		t.Fatalf("status = %d", status)
	}
	// The moves are visible through the shared FS view.
	if data, err := sys.ReadFile("/w2/final"); err != nil || string(data) != "payload" {
		t.Fatalf("final = %q, %v", data, err)
	}
	if _, err := sys.OS.VFS().Stat("/w/orig"); err == nil {
		t.Fatal("/w/orig survived its rename")
	}
	if _, err := sys.OS.VFS().Stat("/w/victim"); err == nil {
		t.Fatal("/w/victim survived being overwritten")
	}
}
