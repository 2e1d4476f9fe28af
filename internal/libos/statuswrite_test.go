package libos

import (
	"testing"

	"repro/internal/hostos"
	"repro/internal/sgx"
	"repro/internal/sysdispatch"
)

// nopFile is a descriptor that does nothing, so a pipe2 made of two of
// them allocates no stream.
type nopFile struct{}

func (nopFile) Read([]byte) (int, error)       { return 0, nil }
func (nopFile) Write(p []byte) (int, error)    { return len(p), nil }
func (nopFile) Seek(int64, int) (int64, error) { return 0, nil }
func (nopFile) Ref()                           {}
func (nopFile) Unref()                         {}

var _ sysdispatch.File = nopFile{}

// TestStatusWritesAllocateNothing: wait4's status word and pipe2's two
// fds reach the SIP through Kernel.WriteU64, whose 8 bytes stay on the
// stack (staged in the spine and passed to the WriteUser interface call,
// they escaped: one allocation per word). On a booted LibOS, wait4
// reaping an exited child allocates nothing, and so does pipe2 through
// the spine's handler when its constructor hands out prebuilt ends.
func TestStatusWritesAllocateNothing(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumDomains = 1
	cfg.DomainCodeSize = 256 << 10
	cfg.DomainDataSize = 1 << 20
	cfg.StackSize = 128 << 10
	cfg.MaxThreads = 1
	cfg.FSBlocks = 4096
	o, err := Boot(sgx.NewPlatform(64<<20), hostos.New(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer o.Shutdown()
	d := o.domains[0]
	p := &Proc{os: o, pid: 100, dom: d}
	child := &Proc{os: o, pid: 101, ppid: p.pid, exited: true, status: 7}
	var a [5]uint64
	wait4 := func() {
		o.mu.Lock()
		o.procs[child.pid] = child
		o.mu.Unlock()
		a = [5]uint64{uint64(child.pid), d.DataBase}
		if r := sysTable.Dispatch(p, SysWait4, &a); r.Ret != int64(child.pid) {
			t.Fatalf("wait4 = %d, want %d", r.Ret, child.pid)
		}
	}
	pipe2 := sysdispatch.Pipe2Handler(func(sysdispatch.Kernel) (r, w sysdispatch.File) { return nopFile{}, nopFile{} })
	pipe := func() {
		a = [5]uint64{d.DataBase + 8}
		if r := pipe2(p, &a); r.Ret != 0 {
			t.Fatalf("pipe2 = %d", r.Ret)
		}
		for _, fd := range []int{3, 4} {
			if _, ok := p.fds.Remove(fd); !ok {
				t.Fatalf("pipe2 installed no fd %d", fd)
			}
		}
	}
	for name, f := range map[string]func(){"wait4": wait4, "pipe2": pipe} {
		f()
		if n := testing.AllocsPerRun(100, f); n != 0 {
			t.Errorf("%s: %.1f allocations per call, want 0", name, n)
		}
	}
	got, err := o.enclave.ReadDirect(d.DataBase, 24)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []byte{7, 3, 4} {
		if got[8*i] != want {
			t.Errorf("word %d = % x, want %d", i, got[8*i:8*i+8], want)
		}
	}
}

// TestPipe2FaultLeavesNoTrace: a pipe2 whose fd array the SIP cannot
// write fails with EFAULT and leaves the caller's fd table and the
// instance's pipe-buffer pool as they were; the next pipe2 gets fds 3
// and 4 again.
func TestPipe2FaultLeavesNoTrace(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumDomains = 1
	cfg.DomainCodeSize = 256 << 10
	cfg.DomainDataSize = 1 << 20
	cfg.StackSize = 128 << 10
	cfg.MaxThreads = 1
	cfg.FSBlocks = 4096
	o, err := Boot(sgx.NewPlatform(64<<20), hostos.New(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer o.Shutdown()
	d := o.domains[0]
	p := &Proc{os: o, pid: 100, dom: d}
	// A pipe that moved bytes and closed leaves a buffer in the pool.
	r, w := newPipe(&o.pipeBufs)
	if _, err := w.Write(make([]byte, 5000)); err != nil {
		t.Fatal(err)
	}
	r.Unref()
	w.Unref()
	held := o.pipeBufs.Held()
	if held == 0 {
		t.Fatal("pool holds nothing after a finished pipe")
	}
	for _, ptr := range []uint64{0, d.DataBase + d.DataSize - 8, ^uint64(0) - 4} {
		a := [5]uint64{ptr}
		if r := sysTable.Dispatch(p, SysPipe2, &a); r.Ret != -EFAULT {
			t.Fatalf("pipe2(%#x) = %d, want %d", ptr, r.Ret, -EFAULT)
		}
		for _, fd := range []int{3, 4} {
			if _, ok := p.fds.Get(fd); ok {
				t.Fatalf("pipe2(%#x) failed and left fd %d installed", ptr, fd)
			}
		}
		if got := o.pipeBufs.Held(); got != held {
			t.Fatalf("pipe2(%#x): pool holds %d bytes, %d before", ptr, got, held)
		}
	}
	a := [5]uint64{d.DataBase}
	if r := sysTable.Dispatch(p, SysPipe2, &a); r.Ret != 0 {
		t.Fatalf("pipe2 = %d", r.Ret)
	}
	got, err := o.enclave.ReadDirect(d.DataBase, 16)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 3 || got[8] != 4 {
		t.Fatalf("pipe2 after the faults got fds %d and %d, want 3 and 4", got[0], got[8])
	}
	p.fds.CloseAll()
}
