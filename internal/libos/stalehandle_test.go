package libos_test

import (
	"bytes"
	"testing"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/fs"
	"repro/internal/isa"
	"repro/internal/libos"
	"repro/internal/ulib"
)

// TestStaleFDNeverReachesAnotherSIPsFile: SIP A opens /data/a and keeps
// the fd; SIP B unlinks /data/a and creates /data/secret, which reuses
// the freed inode. A's read and write through the old fd must fail: the
// read returns none of B's bytes and answers -ENOENT, the errno of the
// node's ErrNotExist (A exits with it), the write changes none of B's
// bytes, and the filesystem is consistent (Fsck) once synced.
func TestStaleFDNeverReachesAnotherSIPsFile(t *testing.T) {
	var out bytes.Buffer
	cfg := smallConfig(4, 2, 0, &out)
	sys, err := core.BootSystem(core.SystemConfig{LibOS: cfg})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.OS.Shutdown()
	tc := core.NewToolchain()

	progB := buildProg(t, func(b *asm.Builder) {
		b.String("path", "/data/a")
		b.String("secret", "/data/secret")
		b.String("msg", "TOPSECRET")
		b.Entry("_start")
		ulib.Prologue(b)
		b.LeaData(isa.R1, "path")
		b.MovRI(isa.R2, 7)
		ulib.Syscall(b, libos.SysUnlink)
		b.CmpI(isa.R0, 0)
		b.Jne("fail")
		ulib.OpenPath(b, "secret", 12, libos.ORdWr|libos.OCreate)
		b.MovRR(isa.R6, isa.R0)
		b.CmpI(isa.R6, 0)
		b.Jl("fail")
		b.MovRR(isa.R1, isa.R6)
		b.LeaData(isa.R2, "msg")
		b.MovRI(isa.R3, 9)
		ulib.Syscall(b, libos.SysWrite)
		b.CmpI(isa.R0, 9)
		b.Jne("fail")
		ulib.Exit(b, 0)
		b.Label("fail")
		b.Nop()
		ulib.Exit(b, 1)
	})
	progA := buildProg(t, func(b *asm.Builder) {
		b.String("path", "/data/a")
		b.String("child", "/bin/b")
		b.String("clobber", "CLOBBER")
		b.Zero("buf", 16)
		b.Entry("_start")
		ulib.Prologue(b)
		ulib.OpenPath(b, "path", 7, libos.ORdWr)
		b.MovRR(isa.R6, isa.R0)
		b.CmpI(isa.R6, 0)
		b.Jl("fail")
		ulib.SpawnPath(b, "child", 6, "", 0)
		b.CmpI(isa.R0, 0)
		b.Jl("fail")
		ulib.Wait4(b, isa.R0)
		// read(fd, buf, 16): anything it returns is echoed to stdout.
		b.MovRR(isa.R1, isa.R6)
		b.LeaData(isa.R2, "buf")
		b.MovRI(isa.R3, 16)
		ulib.Syscall(b, libos.SysRead)
		b.CmpI(isa.R0, 0)
		b.Jl("readfailed")
		b.MovRR(isa.R3, isa.R0)
		b.MovRI(isa.R1, 1)
		b.LeaData(isa.R2, "buf")
		ulib.Syscall(b, libos.SysWrite)
		ulib.Exit(b, 3)
		b.Label("readfailed")
		b.MovRI(isa.R7, 0)
		b.Sub(isa.R7, isa.R0)
		b.MovRR(isa.R1, isa.R6)
		b.LeaData(isa.R2, "clobber")
		b.MovRI(isa.R3, 7)
		ulib.Syscall(b, libos.SysWrite)
		b.CmpI(isa.R0, 0)
		b.Jge("wrote")
		ulib.ExitR(b, isa.R7)
		b.Label("wrote")
		ulib.Exit(b, 4)
		b.Label("fail")
		b.Nop()
		ulib.Exit(b, 1)
	})
	if err := sys.Install(tc, "/bin/a", "a", progA); err != nil {
		t.Fatal(err)
	}
	if err := sys.Install(tc, "/bin/b", "b", progB); err != nil {
		t.Fatal(err)
	}
	vfs := sys.OS.VFS()
	if err := sys.MkdirAll("/data"); err != nil {
		t.Fatal(err)
	}
	f, err := vfs.Open("/data/a", fs.ORdWr|fs.OCreate)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("public"), 0); err != nil {
		t.Fatal(err)
	}
	f.Close()
	before, _, err := vfs.Version("/data/a")
	if err != nil {
		t.Fatal(err)
	}

	p, err := sys.OS.Spawn("/bin/a", nil, libos.SpawnOpt{})
	if err != nil {
		t.Fatal(err)
	}
	switch status := p.Wait(); status {
	case libos.ENOENT:
	case 3:
		t.Fatalf("A read %q through its fd on B's file", out.String())
	case 4:
		t.Fatal("A's write through its stale fd succeeded")
	default:
		t.Fatalf("status = %d: the read through the stale fd answered -%[1]d, want -ENOENT (%d)", status, libos.ENOENT)
	}
	after, _, err := vfs.Version("/data/secret")
	if err != nil {
		t.Fatal(err)
	}
	if after.Ino != before.Ino {
		t.Fatalf("/data/secret took inode %d, not the freed %d: the test no longer reuses an inode", after.Ino, before.Ino)
	}
	g, err := vfs.Open("/data/secret", fs.ORdOnly)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 16)
	n, err := g.ReadAt(got, 0)
	if err != nil || string(got[:n]) != "TOPSECRET" {
		t.Fatalf("/data/secret = %q, %v", got[:n], err)
	}
	if err := sys.OS.Sync(); err != nil {
		t.Fatal(err)
	}
	store, err := fs.OpenStore(sys.OS.Host(), cfg.FSImage, cfg.FSKey)
	if err != nil {
		t.Fatal(err)
	}
	efs, err := fs.Mount(store)
	if err != nil {
		t.Fatal(err)
	}
	if err := efs.Fsck(); err != nil {
		t.Fatal(err)
	}
}
