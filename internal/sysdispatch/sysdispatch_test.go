package sysdispatch

import (
	"encoding/binary"
	"errors"
	"maps"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeKernel backs handlers with a flat memory buffer and an fd table.
type fakeKernel struct {
	mem  []byte
	fds  *FDTable
	pid  int
	ppid int
}

func newFakeKernel() *fakeKernel {
	return &fakeKernel{mem: make([]byte, 4096), fds: NewFDTable(), pid: 7, ppid: 3}
}

func (k *fakeKernel) ReadUser(addr, n uint64) ([]byte, error) {
	if addr+n > uint64(len(k.mem)) {
		return nil, errors.New("fault")
	}
	return append([]byte(nil), k.mem[addr:addr+n]...), nil
}

func (k *fakeKernel) WriteUser(addr uint64, b []byte) error {
	if addr+uint64(len(b)) > uint64(len(k.mem)) {
		return errors.New("fault")
	}
	copy(k.mem[addr:], b)
	return nil
}

func (k *fakeKernel) WriteU64(addr, v uint64) error {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return k.WriteUser(addr, b[:])
}

func (k *fakeKernel) UserOK(addr, n uint64, _ bool) bool {
	return addr+n >= addr && addr+n <= uint64(len(k.mem))
}

func (k *fakeKernel) FDs() *FDTable  { return k.fds }
func (k *fakeKernel) PID() int       { return k.pid }
func (k *fakeKernel) PPID() int      { return k.ppid }
func (k *fakeKernel) Now() time.Time { return time.Unix(0, 0) }

// fakeFile counts refs and records data.
type fakeFile struct {
	refs int
	data []byte
	off  int
}

func (f *fakeFile) Read(p []byte) (int, error) {
	n := copy(p, f.data[f.off:])
	f.off += n
	return n, nil
}
func (f *fakeFile) Write(p []byte) (int, error) { f.data = append(f.data, p...); return len(p), nil }
func (f *fakeFile) Seek(off int64, whence int) (int64, error) {
	f.off = int(off)
	return off, nil
}
func (f *fakeFile) Ref()   { f.refs++ }
func (f *fakeFile) Unref() { f.refs-- }

func TestDispatchUnknownIsENOSYS(t *testing.T) {
	tab := NewTable()
	k := newFakeKernel()
	var c Call
	if r := tab.Dispatch(k, 999, &c); r.Ret != -ENOSYS {
		t.Fatalf("Ret = %d, want -ENOSYS", r.Ret)
	}
	if r := tab.Dispatch(k, SysOpen, &c); r.Ret != -ENOSYS {
		t.Fatalf("unregistered slot: Ret = %d, want -ENOSYS", r.Ret)
	}
	// No decoding before the number is known: a bad fd is not EBADF.
	c.A[0] = 999
	if r := tab.Dispatch(k, SysClose, &c); r.Ret != -ENOSYS {
		t.Fatalf("unregistered close(999): Ret = %d, want -ENOSYS", r.Ret)
	}
}

// TestRegisterRefusesUndescribedNumber: a handler is registered only
// against a number Specs describes; 45 has no spec.
func TestRegisterRefusesUndescribedNumber(t *testing.T) {
	for _, no := range []int{0, SysSplice + 1, SysMax - 1, SysMax} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Register(%d) with no spec did not panic", no)
				}
			}()
			NewTable().Register(no, Getpid)
		}()
	}
}

// TestSpecsFitTheGate: the gate keeps two files and two paths per call,
// installs an FdPairOut from the first argument only, and reads a
// length from a register that exists; every numbered syscall has a spec.
func TestSpecsFitTheGate(t *testing.T) {
	for no, s := range Specs {
		if s.Name == "" {
			if no >= 1 && no <= SysSplice {
				t.Errorf("syscall %d has no spec", no)
			}
			continue
		}
		fds, paths := 0, 0
		for i, kd := range s.Args {
			switch kd.Class {
			case Fd, FdClose:
				fds++
			case Path:
				paths++
			case FdPairOut:
				if i != 0 {
					t.Errorf("%s: FdPairOut in argument %d", s.Name, i+1)
				}
			case FdOut:
				t.Errorf("%s: FdOut is a result, not an argument", s.Name)
			}
			if kd.N > 5 || kd.N == uint8(i+1) {
				t.Errorf("%s: argument %d takes its length from R%d", s.Name, i+1, kd.N)
			}
			if (kd.Class == PtrIn || kd.Class == PtrOut || kd.Class == FdPairOut) && kd.Size == 0 {
				t.Errorf("%s: pointer argument %d has no size", s.Name, i+1)
			}
		}
		if fds > len(Call{}.F) || paths > len(Call{}.Path) {
			t.Errorf("%s: %d fds and %d paths overflow the Call", s.Name, fds, paths)
		}
		if s.Ret.Class != Int && s.Ret.Class != FdOut {
			t.Errorf("%s: result kind %d", s.Name, s.Ret.Class)
		}
	}
}

func TestDoubleRegistrationPanics(t *testing.T) {
	tab := NewTable()
	tab.Register(SysGetpid, Getpid)
	defer func() {
		if recover() == nil {
			t.Fatal("double registration did not panic")
		}
	}()
	tab.Register(SysGetpid, Getpid)
}

func TestFDTableLowestFree(t *testing.T) {
	tab := NewFDTable()
	a, b := &fakeFile{refs: 1}, &fakeFile{refs: 1}
	if fd := tab.Install(a); fd != 3 {
		t.Fatalf("first install = %d, want 3", fd)
	}
	if fd := tab.Install(b); fd != 4 {
		t.Fatalf("second install = %d, want 4", fd)
	}
	tab.Remove(3)
	if fd := tab.Install(&fakeFile{refs: 1}); fd != 3 {
		t.Fatalf("reuse install = %d, want 3", fd)
	}
}

func TestDup2RefCounts(t *testing.T) {
	k := newFakeKernel()
	tab := k.fds
	sys := NewTable()
	sys.Register(SysDup2, Dup2FD)
	dup2 := func(oldfd, newfd int) int64 {
		return sys.Dispatch(k, SysDup2, &Call{A: [5]uint64{uint64(oldfd), uint64(newfd)}}).Ret
	}
	a, b := &fakeFile{refs: 1}, &fakeFile{refs: 1}
	afd, bfd := tab.Install(a), tab.Install(b)
	if ret := dup2(afd, bfd); ret != int64(bfd) {
		t.Fatalf("dup2 = %d", ret)
	}
	if a.refs != 2 || b.refs != 0 {
		t.Fatalf("refs after dup2: a=%d b=%d, want 2, 0", a.refs, b.refs)
	}
	if ret := dup2(afd, afd); ret != int64(afd) || a.refs != 2 {
		t.Fatalf("self-dup2 changed refs: %d (ret %d)", a.refs, ret)
	}
	if ret := dup2(99, 5); ret != -EBADF {
		t.Fatalf("dup2 of bad fd = %d, want -EBADF", ret)
	}
	// A target outside [0, MaxFD) is EBADF and moves no reference.
	files, next := maps.Clone(tab.files), tab.next
	for _, newfd := range []int{-7, 1 << 40, MaxFD} {
		if ret := dup2(afd, newfd); ret != -EBADF {
			t.Errorf("dup2(%d, %d) = %d, want -EBADF", afd, newfd, ret)
		}
	}
	if !maps.Equal(tab.files, files) || tab.next != next || a.refs != 2 || b.refs != 0 {
		t.Fatalf("a bad dup2 target changed the table (%d fds, next %d) or refs (a=%d b=%d)", len(tab.files), tab.next, a.refs, b.refs)
	}
}

// TestInstallStopsAtMaxFD: with every slot below MaxFD taken, Install
// hands out nothing, and the gate fails an FdOut or FdPairOut call with
// EMFILE, drops the handler's references and leaves the table as it was.
func TestInstallStopsAtMaxFD(t *testing.T) {
	k := newFakeKernel()
	tab := k.fds
	tab.SetWatermarkForTest(MaxFD - 1)
	var out [2]*fakeFile
	sys := NewTable()
	sys.Register(SysOpen, func(k Kernel, c *Call) Result {
		out[0] = &fakeFile{refs: 1}
		c.Out[0] = out[0]
		return Ok(0)
	})
	sys.Register(SysPipe2, func(k Kernel, c *Call) Result {
		out[0], out[1] = &fakeFile{refs: 1}, &fakeFile{refs: 1}
		c.Out[0], c.Out[1] = out[0], out[1]
		return Ok(0)
	})
	copy(k.mem[100:], "/f")
	open := func() int64 { return sys.Dispatch(k, SysOpen, &Call{A: [5]uint64{100, 2}}).Ret }
	pipe2 := func() int64 { return sys.Dispatch(k, SysPipe2, &Call{A: [5]uint64{8}}).Ret }

	if fd := open(); fd != MaxFD-1 || out[0].refs != 1 {
		t.Fatalf("open below MaxFD = %d (refs %d), want %d", fd, out[0].refs, MaxFD-1)
	}
	if fd := open(); fd != -EMFILE || out[0].refs != 0 {
		t.Fatalf("open at MaxFD = %d (refs %d), want %d and the file dropped", fd, out[0].refs, -EMFILE)
	}
	if fd := tab.Install(&fakeFile{refs: 1}); fd != -1 {
		t.Fatalf("Install at MaxFD = %d, want -1", fd)
	}
	// One slot free: pipe2's first end fits, its second does not, and the
	// first leaves the table again.
	tab.Remove(MaxFD - 1)
	files := maps.Clone(tab.files)
	k.mem[8] = 0xAA
	if r := pipe2(); r != -EMFILE || out[0].refs != 0 || out[1].refs != 0 {
		t.Fatalf("pipe2 with one slot = %d (refs %d, %d), want %d and both ends dropped", r, out[0].refs, out[1].refs, -EMFILE)
	}
	if !maps.Equal(tab.files, files) || k.mem[8] != 0xAA {
		t.Fatalf("a failed pipe2 changed the table (%d fds) or wrote its fd words", len(tab.files))
	}
	if fd := open(); fd != MaxFD-1 {
		t.Fatalf("open after the failed pipe2 = %d, want %d", fd, MaxFD-1)
	}
}

func TestInheritAndCloseAll(t *testing.T) {
	parent := NewFDTable()
	f := &fakeFile{refs: 1}
	parent.Install(f)
	child := NewFDTable()
	child.InheritFrom(parent)
	if f.refs != 2 {
		t.Fatalf("refs after inherit = %d, want 2", f.refs)
	}
	child.CloseAll()
	parent.CloseAll()
	if f.refs != 0 {
		t.Fatalf("refs after close = %d, want 0", f.refs)
	}
}

// TestSpawnHandlerMarshalling: the gate reads spawn's path and checks
// its argv block before the handler runs, and Argv splits the block.
func TestSpawnHandlerMarshalling(t *testing.T) {
	k := newFakeKernel()
	copy(k.mem[100:], "/bin/x")
	copy(k.mem[200:], "a\x00bc\x00")
	var gotPath string
	var gotArgv []string
	sys := NewTable()
	sys.Register(SysSpawn, func(k Kernel, c *Call) Result {
		gotPath, gotArgv = c.Path[0], Argv(k, c)
		return Ok(42)
	})
	c := Call{A: [5]uint64{100, 6, 200, 5}}
	if r := sys.Dispatch(k, SysSpawn, &c); r.Ret != 42 {
		t.Fatalf("Ret = %d", r.Ret)
	}
	if gotPath != "/bin/x" || len(gotArgv) != 2 || gotArgv[0] != "a" || gotArgv[1] != "bc" {
		t.Fatalf("parsed %q %v", gotPath, gotArgv)
	}
	// Unreadable path faults.
	c = Call{A: [5]uint64{4000, 500}}
	if r := sys.Dispatch(k, SysSpawn, &c); r.Ret != -EFAULT {
		t.Fatalf("fault Ret = %d, want -EFAULT", r.Ret)
	}
}

// TestWait4HandlerWritesStatus: a wait4 whose status pointer passes the
// gate reaches the handler, which writes the status; a parked wait4 is
// reported; a status pointer outside user memory fails with EFAULT
// before the handler could reap.
func TestWait4HandlerWritesStatus(t *testing.T) {
	k := newFakeKernel()
	parked, reaped := false, 0
	sys := NewTable()
	sys.Register(SysWait4, func(k Kernel, c *Call) Result {
		if parked {
			return ParkedResult
		}
		reaped++
		if c.A[1] != 0 {
			k.WriteU64(c.A[1], 17)
		}
		return Ok(5)
	})
	c := Call{A: [5]uint64{^uint64(0), 64}}
	if r := sys.Dispatch(k, SysWait4, &c); r.Ret != 5 {
		t.Fatalf("Ret = %d, want 5", r.Ret)
	}
	if got := binary.LittleEndian.Uint64(k.mem[64:]); got != 17 {
		t.Fatalf("status = %d, want 17", got)
	}
	parked = true
	if r := sys.Dispatch(k, SysWait4, &c); !r.Parked {
		t.Fatal("parked wait4 not reported")
	}
	parked = false
	c.A[1] = 0
	if r := sys.Dispatch(k, SysWait4, &c); r.Ret != 5 {
		t.Fatalf("wait4 with no status pointer = %d, want 5", r.Ret)
	}
	c.A[1] = uint64(len(k.mem)) - 4
	if r := sys.Dispatch(k, SysWait4, &c); r.Ret != -EFAULT || reaped != 2 {
		t.Fatalf("wait4 with a bad status pointer = %d after %d reaps, want %d after 2", r.Ret, reaped, -EFAULT)
	}
}

func TestBlockingReadWrite(t *testing.T) {
	k := newFakeKernel()
	f := &fakeFile{refs: 1}
	fd := k.fds.Install(f)
	copy(k.mem[10:], "hello")
	sys := NewTable()
	sys.Register(SysWrite, BlockingWrite)
	sys.Register(SysRead, BlockingRead)
	c := Call{A: [5]uint64{uint64(fd), 10, 5}}
	if r := sys.Dispatch(k, SysWrite, &c); r.Ret != 5 {
		t.Fatalf("write Ret = %d", r.Ret)
	}
	c = Call{A: [5]uint64{uint64(fd), 300, 5}}
	if r := sys.Dispatch(k, SysRead, &c); r.Ret != 5 {
		t.Fatalf("read Ret = %d", r.Ret)
	}
	if string(k.mem[300:305]) != "hello" {
		t.Fatalf("read back %q", k.mem[300:305])
	}
}

// TestFDTableRandomLowestFree drives the table and a model map with a
// random Install/Remove/Set stream and checks that Install always
// returns the POSIX lowest free slot ≥ 3 — the invariant the
// allocator's watermark+heap must preserve even when Set (dup2's
// primitive) occupies slots it never handed out.
func TestFDTableRandomLowestFree(t *testing.T) {
	tab := NewFDTable()
	model := map[int]bool{}
	lowestFree := func() int {
		for fd := 3; ; fd++ {
			if !model[fd] {
				return fd
			}
		}
	}
	rnd := uint32(12345)
	next := func(n int) int {
		rnd = rnd*1664525 + 1013904223
		return int(rnd>>16) % n
	}
	for op := 0; op < 5000; op++ {
		switch next(4) {
		case 0, 1: // install
			want := lowestFree()
			if fd := tab.Install(&fakeFile{refs: 1}); fd != want {
				t.Fatalf("op %d: install = %d, want %d", op, fd, want)
			}
			model[want] = true
		case 2: // remove a random-ish fd
			fd := 3 + next(40)
			_, ok := tab.Remove(fd)
			if ok != model[fd] {
				t.Fatalf("op %d: remove(%d) = %v, model %v", op, fd, ok, model[fd])
			}
			delete(model, fd)
		case 3: // occupy an arbitrary slot behind the allocator's back
			fd := 3 + next(40)
			tab.Set(fd, &fakeFile{refs: 1})
			model[fd] = true
		}
	}
}

// TestFDTableConcurrent hammers the table from many goroutines; run
// under -race this checks the lock discipline, and the final sweep over
// every fd handed out checks none was left behind.
func TestFDTableConcurrent(t *testing.T) {
	tab := NewFDTable()
	const workers = 8
	var wg sync.WaitGroup
	maxFD := make([]int, workers)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			var mine []int
			for i := 0; i < 500; i++ {
				fd := tab.Install(&fakeFile{refs: 1})
				tab.Get(fd)
				maxFD[w] = max(maxFD[w], fd)
				mine = append(mine, fd)
				if len(mine) > 4 {
					victim := mine[0]
					mine = mine[1:]
					if f, ok := tab.Remove(victim); ok {
						f.Unref()
					}
				}
			}
			for _, fd := range mine {
				if f, ok := tab.Remove(fd); ok {
					f.Unref()
				}
			}
		}()
	}
	wg.Wait()
	for fd := 0; fd <= slices.Max(maxFD); fd++ {
		if _, ok := tab.Get(fd); ok {
			t.Fatalf("orphan fd %d after concurrent churn", fd)
		}
	}
}

// sharedFile is a File whose reference count several goroutines move at
// once, as descriptions shared by dup2 and spawn are.
type sharedFile struct{ refs atomic.Int64 }

func (f *sharedFile) Read(p []byte) (int, error)                { return 0, nil }
func (f *sharedFile) Write(p []byte) (int, error)               { return len(p), nil }
func (f *sharedFile) Seek(off int64, whence int) (int64, error) { return 0, nil }
func (f *sharedFile) Ref()                                      { f.refs.Add(1) }
func (f *sharedFile) Unref()                                    { f.refs.Add(-1) }

// TestFDTableMutexSerializesEveryOp drives one table from six goroutines
// at once with every operation that takes its lock: Install, Get,
// Set of a second reference onto a slot of the goroutine's own (dup2),
// Remove, and InheritFrom into
// a child table that is then closed. Every Install returns an fd ≥ 3;
// once the workers are done, the next Install gets 3, the lowest free
// slot, and after CloseAll every file's count is back to 0: no
// reference was lost or dropped twice. Run under -race it checks that
// FDTable.mu covers the map, the freed heap and the watermark.
func TestFDTableMutexSerializesEveryOp(t *testing.T) {
	const workers, rounds = 6, 400
	tab := NewFDTable()
	var mu sync.Mutex
	var all []*sharedFile
	newFile := func() *sharedFile {
		f := new(sharedFile)
		f.refs.Store(1)
		mu.Lock()
		all = append(all, f)
		mu.Unlock()
		return f
	}
	for fd := 0; fd < 3; fd++ {
		tab.Set(fd, newFile())
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				fd := tab.Install(newFile())
				if fd < 3 {
					t.Errorf("Install returned fd %d, want >= 3", fd)
					return
				}
				f, ok := tab.Get(fd)
				if !ok {
					t.Errorf("fd %d missing right after Install", fd)
					return
				}
				f.Ref()
				tab.Set(1000+w, f)
				if i%8 == 0 {
					child := NewFDTable()
					child.InheritFrom(tab)
					child.CloseAll()
				}
				if f, ok := tab.Remove(fd); ok {
					f.Unref()
				} else {
					t.Errorf("fd %d gone before its owner removed it", fd)
					return
				}
			}
		}()
	}
	wg.Wait()
	if fd := tab.Install(newFile()); fd != 3 {
		t.Errorf("Install after the churn = %d, want 3 (the lowest free slot)", fd)
	}
	tab.CloseAll()
	for i, f := range all {
		if n := f.refs.Load(); n != 0 {
			t.Fatalf("file %d of %d holds %d references after CloseAll, want 0", i, len(all), n)
		}
	}
}
