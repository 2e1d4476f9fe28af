package baseline_test

import (
	"errors"
	"testing"

	"repro/internal/asm"
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/eip"
	"repro/internal/hostos"
	"repro/internal/isa"
	"repro/internal/libos"
	"repro/internal/linuxsim"
	"repro/internal/sgx"
	"repro/internal/sysdispatch"
	"repro/internal/ulib"
)

// system is one model's kernel plus its image-preparation-time install.
type system struct {
	name  string
	k     *baseline.Kernel
	write func(path string, data []byte)
}

// systems builds both models; epc bounds the EIP platform.
func systems(epc uint64) []system {
	l := linuxsim.New(hostos.New())
	g := eip.New(sgx.NewPlatform(epc), hostos.New(), eip.DefaultConfig())
	return []system{{"Linux", l.Kernel, l.WriteFile}, {"Graphene-SGX", g.Kernel, g.InstallFile}}
}

func (s system) install(t *testing.T, path string, f func(b *asm.Builder)) {
	t.Helper()
	b := asm.NewBuilder()
	b.Entry("_start")
	ulib.Prologue(b)
	f(b)
	prog, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	bin, err := core.NewToolchain().CompileUnverified(path, prog)
	if err != nil {
		t.Fatal(err)
	}
	s.write(path, bin.Marshal())
}

func forEachSystem(t *testing.T, epc uint64, f func(t *testing.T, s system)) {
	for _, s := range systems(epc) {
		t.Run(s.name, func(t *testing.T) { f(t, s) })
	}
}

// A process nobody will wait4 leaves the table when it exits; the host's
// handle still answers, as often as asked.
func TestHostSpawnedProcessesLeaveTheTable(t *testing.T) {
	forEachSystem(t, 1<<30, func(t *testing.T, s system) {
		s.install(t, "/bin/exit9", func(b *asm.Builder) { ulib.Exit(b, 9) })
		var procs []*baseline.Proc
		for i := 0; i < 8; i++ {
			p, err := s.k.Spawn("/bin/exit9", nil, baseline.SpawnOpt{})
			if err != nil {
				t.Fatal(err)
			}
			procs = append(procs, p)
		}
		for _, p := range procs {
			if st := p.Wait(); st != 9 {
				t.Fatalf("pid %d: status %d, want 9", p.PID(), st)
			}
		}
		if n := s.k.TableLen(); n != 0 {
			t.Fatalf("%d table entries after every process exited, want 0", n)
		}
		if st := procs[0].Wait(); st != 9 {
			t.Fatalf("second Wait = %d, want 9", st)
		}
	})
}

// A child that exits before its parent is a zombie until the parent's
// exit reaps it; one that outlives the parent is orphaned (ppid 0) and
// forgotten when it exits itself.
func TestExitReapsAndOrphans(t *testing.T) {
	forEachSystem(t, 1<<30, func(t *testing.T, s system) {
		// readThenExit3 blocks in a one-byte read of fd, then exits 3.
		readThenExit3 := func(fd int64) func(b *asm.Builder) {
			return func(b *asm.Builder) {
				b.Zero("buf", 8)
				b.LeaData(isa.R2, "buf")
				b.MovRI(isa.R3, 1)
				ulib.Read(b, fd, isa.R2, isa.R3)
				ulib.Exit(b, 3)
			}
		}
		s.install(t, "/bin/exit0", func(b *asm.Builder) { ulib.Exit(b, 0) })
		s.install(t, "/bin/survivor", readThenExit3(2))
		// Spawns both children, says so on stdout, waits for neither.
		s.install(t, "/bin/parent", func(b *asm.Builder) {
			b.String("zombie", "/bin/exit0")
			b.String("survivor", "/bin/survivor")
			ulib.SpawnPath(b, "zombie", 10, "", 0)
			ulib.SpawnPath(b, "survivor", 13, "", 0)
			ulib.WriteStr(b, 1, "zombie", 1)
			readThenExit3(0)(b)
		})
		// The parent blocks on fd 0 and the survivor on fd 2, so the
		// host releases each on its own.
		parentIn, releaseParent := libos.NewPipe()
		survivorIn, releaseSurvivor := libos.NewPipe()
		spawned, stdout := libos.NewPipe()
		parent, err := s.k.Spawn("/bin/parent", nil, baseline.SpawnOpt{Stdin: parentIn, Stdout: stdout, Stderr: survivorIn})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := spawned.Read(make([]byte, 1)); err != nil {
			t.Fatal(err)
		}
		// Pids are handed out in order: parent 1, zombie 2, survivor 3.
		zombie, survivor := s.k.Lookup(2), s.k.Lookup(3)
		if zombie == nil || survivor == nil {
			t.Fatalf("children not in the table: live %v", s.k.Procs())
		}
		zombie.Wait()
		if live, n := s.k.Procs(), s.k.TableLen(); len(live) != 2 || n != 3 {
			t.Fatalf("live %v, %d table entries; want parent and survivor live, the zombie kept for its parent", live, n)
		}
		releaseParent.Unref()
		if st := parent.Wait(); st != 3 {
			t.Fatalf("parent status %d, want 3", st)
		}
		if live, n := s.k.Procs(), s.k.TableLen(); len(live) != 1 || live[0] != survivor.PID() || n != 1 {
			t.Fatalf("after the parent exited: live %v, %d table entries; want only the survivor", live, n)
		}
		if ppid := survivor.PPID(); ppid != 0 {
			t.Fatalf("survivor ppid = %d, want 0 (orphaned)", ppid)
		}
		releaseSurvivor.Unref()
		if st := survivor.Wait(); st != 3 {
			t.Fatalf("survivor status %d, want 3", st)
		}
		if n := s.k.TableLen(); n != 0 {
			t.Fatalf("%d table entries after the orphan exited, want 0", n)
		}
		if st := survivor.Wait(); st != 3 {
			t.Fatalf("second Wait = %d, want 3", st)
		}
	})
}

// One errno for one failure, mapped once in the skeleton from the error
// Load returns. (-ENOENT for a missing path is a row of
// TestCrossKernelConformance.)
func TestSpawnErrno(t *testing.T) {
	// spawner exits with the errno spawn answered.
	spawner := func(path string) func(b *asm.Builder) {
		return func(b *asm.Builder) {
			b.String("path", path)
			ulib.SpawnPath(b, "path", int64(len(path)), "", 0)
			b.MovRI(isa.R6, 0)
			b.Sub(isa.R6, isa.R0)
			ulib.ExitR(b, isa.R6)
		}
	}
	run := func(t *testing.T, s system, path string, wantErr error, want int) {
		t.Helper()
		if wantErr != nil {
			if _, err := s.k.Spawn(path, nil, baseline.SpawnOpt{}); !errors.Is(err, wantErr) {
				t.Errorf("host spawn of %s: %v, want %v", path, err, wantErr)
			}
		}
		s.install(t, "/bin/spawner", spawner(path))
		p, err := s.k.Spawn("/bin/spawner", nil, baseline.SpawnOpt{})
		if err != nil {
			t.Fatal(err)
		}
		if st := p.Wait(); st != want {
			t.Errorf("guest spawn of %s = -%d, want -%d", path, st, want)
		}
	}
	forEachSystem(t, 1<<30, func(t *testing.T, s system) {
		s.write("/etc/motd", []byte("not a binary"))
		run(t, s, "/etc/motd", nil, libos.EACCES)
		run(t, s, "/no/such", baseline.ErrNotExist, libos.ENOENT)
	})
	t.Run("Graphene-SGX does not fit", func(t *testing.T) {
		s := systems(1 << 30)[1]
		s.install(t, "/bin/big", func(b *asm.Builder) {
			b.ReserveBSS(8 << 20) // the whole default enclave
			ulib.Exit(b, 0)
		})
		run(t, s, "/bin/big", baseline.ErrNoRoom, libos.EAGAIN)
	})
	t.Run("Graphene-SGX out of EPC", func(t *testing.T) {
		// Room for the spawner's enclave (8 MiB) but not a second one.
		s := systems(12 << 20)[1]
		s.install(t, "/bin/exit0", func(b *asm.Builder) { ulib.Exit(b, 0) })
		run(t, s, "/bin/exit0", nil, libos.EAGAIN)
		if n := s.k.TableLen(); n != 0 {
			t.Fatalf("%d table entries, want 0", n)
		}
	})
}

// The two models register the same syscalls except for the file-system
// surface Table 1 and DESIGN.md ("Baselines") give each: a call added
// to one baseline and forgotten on the other fails here.
func TestModelsDifferOnlyInTheFileSystemSurface(t *testing.T) {
	want := map[int][2]bool{ // {Linux, Graphene-SGX}
		sysdispatch.SysLseek:  {true, false},
		sysdispatch.SysFsync:  {true, false},
		sysdispatch.SysRename: {true, false},
		sysdispatch.SysMkdir:  {false, true}, // -EACCES on the read-only FS; flat namespace on Linux
		sysdispatch.SysUnlink: {false, true},
	}
	ss := systems(1 << 30)
	linux, graphene := ss[0].k.Table(), ss[1].k.Table()
	for no := 0; no < sysdispatch.SysMax; no++ {
		got := [2]bool{linux.Has(no), graphene.Has(no)}
		w, differs := want[no]
		if !differs {
			w = [2]bool{got[0], got[0]}
		}
		if got != w {
			t.Errorf("syscall %d: registered on Linux %v, on Graphene-SGX %v; want %v, %v", no, got[0], got[1], w[0], w[1])
		}
	}
	if !linux.Has(sysdispatch.SysExit) || linux.Has(sysdispatch.SysKill) {
		t.Fatal("Has does not see the table: exit is registered, kill (signals are not modeled) is not")
	}
}

// A pipe2 whose fd array is outside user memory fails with EFAULT and
// leaves the fd table as it was: the next pipe2 hands out fds 3 and 4,
// not 5 and 6 behind two ends nobody can name or close. The guest exits
// with the second pair packed as rfd<<4 | wfd, or 1 if the first call
// did not fail with EFAULT.
func TestPipe2FaultLeavesNoFDs(t *testing.T) {
	forEachSystem(t, 1<<30, func(t *testing.T, s system) {
		s.install(t, "/bin/pipe2fault", func(b *asm.Builder) {
			b.Zero("fds", 16)
			b.MovRI(isa.R1, -5) // fds+16 wraps the address space
			ulib.Syscall(b, libos.SysPipe2)
			b.CmpI(isa.R0, -libos.EFAULT)
			b.Jne("wrong")
			ulib.Pipe2(b, "fds")
			b.LeaData(isa.R3, "fds")
			b.Load(isa.R1, isa.Mem(isa.R3, 0))
			b.Load(isa.R2, isa.Mem(isa.R3, 8))
			b.ShlI(isa.R1, 4)
			b.Alu(isa.OpOrRR, isa.R1, isa.R2)
			ulib.ExitR(b, isa.R1)
			b.Label("wrong")
			ulib.Exit(b, 1)
		})
		p, err := s.k.Spawn("/bin/pipe2fault", nil, baseline.SpawnOpt{})
		if err != nil {
			t.Fatal(err)
		}
		if st := p.Wait(); st != 3<<4|4 {
			t.Fatalf("status %#x, want 0x34: pipe2 after the EFAULT got fds %d and %d", st, st>>4, st&15)
		}
	})
}
