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
// the gate when its handler hands out prebuilt ends.
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
	var c sysdispatch.Call
	wait4 := func() {
		o.mu.Lock()
		o.procs[child.pid] = child
		o.mu.Unlock()
		c.A = [5]uint64{uint64(child.pid), d.DataBase}
		if r := sysTable.Dispatch(p, SysWait4, &c); r.Ret != int64(child.pid) {
			t.Fatalf("wait4 = %d, want %d", r.Ret, child.pid)
		}
	}
	pipe2 := sysdispatch.NewTable()
	pipe2.Register(SysPipe2, func(_ sysdispatch.Kernel, c *sysdispatch.Call) sysdispatch.Result {
		c.Out[0], c.Out[1] = nopFile{}, nopFile{}
		return sysdispatch.Ok(0)
	})
	pipe := func() {
		c.A = [5]uint64{d.DataBase + 8}
		if r := pipe2.Dispatch(p, SysPipe2, &c); r.Ret != 0 {
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
		c := sysdispatch.Call{A: [5]uint64{ptr}}
		if r := sysTable.Dispatch(p, SysPipe2, &c); r.Ret != -EFAULT {
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
	c := sysdispatch.Call{A: [5]uint64{d.DataBase}}
	if r := sysTable.Dispatch(p, SysPipe2, &c); r.Ret != 0 {
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

// TestFullFDTableIsEMFILE: with one fd below MaxFD free, pipe2 fails
// with EMFILE and leaves it free; epoll_create takes it, the next one
// fails with EMFILE, and the slot a close frees is handed out again.
// (sysdispatch's TestInstallStopsAtMaxFD counts the dropped references.)
func TestFullFDTableIsEMFILE(t *testing.T) {
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
	defer p.fds.CloseAll()
	const last = sysdispatch.MaxFD - 1
	p.fds.SetWatermarkForTest(last)
	call := func(no int, a0 uint64) int64 {
		c := sysdispatch.Call{A: [5]uint64{a0}}
		return sysTable.Dispatch(p, uint64(no), &c).Ret
	}
	if r := call(SysPipe2, d.DataBase); r != -EMFILE {
		t.Fatalf("pipe2 with one free fd = %d, want %d", r, -EMFILE)
	}
	if _, ok := p.fds.Get(last); ok {
		t.Fatalf("a failed pipe2 left fd %d installed", last)
	}
	if r := call(SysEpCreate, 0); r != last {
		t.Fatalf("epoll_create = %d, want %d", r, last)
	}
	if r := call(SysEpCreate, 0); r != -EMFILE {
		t.Fatalf("epoll_create with no free fd = %d, want %d", r, -EMFILE)
	}
	if r := call(SysClose, last); r != 0 {
		t.Fatalf("close(%d) = %d", last, r)
	}
	if r := call(SysEpCreate, 0); r != last {
		t.Fatalf("epoll_create after close = %d, want %d", r, last)
	}
}
