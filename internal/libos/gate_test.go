package libos

// The syscall gate's confinement, driven on a booted LibOS by calling
// the dispatch path of a Proc that runs no code: each test plants the
// state a SIP would have and reads back what the call left.

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/fs"
	"repro/internal/hostos"
	"repro/internal/isa"
	"repro/internal/sgx"
	"repro/internal/sysdispatch"
	"repro/internal/vm"
)

// gateOS boots a LibOS with n small domains.
func gateOS(t *testing.T, n int) *Occlum {
	t.Helper()
	cfg := DefaultConfig()
	cfg.NumDomains = n
	cfg.DomainCodeSize = 256 << 10
	cfg.DomainDataSize = 1 << 20
	cfg.StackSize = 128 << 10
	cfg.MaxThreads = 1
	cfg.FSBlocks = 4096
	o, err := Boot(sgx.NewPlatform(64<<20), hostos.New(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { o.Shutdown() })
	return o
}

// gateProc is a SIP of pid in d that runs no code; call dispatches one
// syscall for it as the trap path does and returns R0.
func gateProc(o *Occlum, d *Domain, pid int) (p *Proc, call func(no uint64, a [5]uint64) int64) {
	p = &Proc{os: o, pid: pid, dom: d, cpu: new(vm.CPU), wake: func() {}}
	return p, func(no uint64, a [5]uint64) int64 {
		p.dispatch(p.newSyscall(no, a, 0))
		if p.blocked != nil {
			p.blocked.cancel()
			p.blocked = nil
		}
		return int64(p.cpu.Regs[isa.R0])
	}
}

// TestMmapStaysInHeap: a length that wraps the heap pointer fails with
// ENOMEM and moves nothing, so the next mapping is the heap's next page,
// and a neighbour domain's data stays as it was. Before the bump was
// overflow-safe, the first call moved the pointer into domain 0's data
// and the second zeroed the canary there.
func TestMmapStaysInHeap(t *testing.T) {
	o := gateOS(t, 2)
	victim, d := o.domains[0], o.domains[1]
	canary := victim.DataBase + 64<<10
	if err := o.enclave.WriteDirect(canary, []byte("canary!!")); err != nil {
		t.Fatal(err)
	}
	heap := d.DataBase + 256<<10
	p, call := gateProc(o, d, 100)
	p.heapBase, p.heapPtr, p.heapEnd = heap, heap, heap+256<<10
	for _, n := range []uint64{canary - heap, ^uint64(0), p.heapEnd - heap + 1} {
		if r := call(SysMmap, [5]uint64{n}); r != -ENOMEM {
			t.Errorf("mmap(%#x) = %#x, want %d", n, r, -ENOMEM)
		}
	}
	if r := call(SysMmap, [5]uint64{4096}); r != int64(heap) {
		t.Errorf("mmap(4096) after the refusals = %#x, want the heap base %#x", r, heap)
	}
	if b, _ := o.enclave.ReadDirect(canary, 8); string(b) != "canary!!" {
		t.Errorf("domain 0's canary reads %q", b)
	}
}

// TestFutexStaysInDataRegion: a futex word outside the caller's data
// region is EFAULT for both operations, so a SIP cannot wake a waiter
// parked on another SIP's word.
func TestFutexStaysInDataRegion(t *testing.T) {
	o := gateOS(t, 2)
	word := o.domains[0].DataBase + 64
	woken := 0
	reg := o.host.FutexSubscribe(word, func() { woken++ }) // SIP A's parked wait
	defer reg.Cancel()
	_, call := gateProc(o, o.domains[1], 101) // SIP B
	for _, op := range []uint64{FutexWake, FutexWait} {
		if r := call(SysFutex, [5]uint64{op, word, 1}); r != -EFAULT {
			t.Errorf("futex(%d) on another domain's word = %d, want %d", op, r, -EFAULT)
		}
	}
	if woken != 0 {
		t.Errorf("SIP B woke SIP A's waiter %d times", woken)
	}
}

// TestFailedPointerSyscallLeavesNoTrace: every registered syscall with a
// pointer or path argument, called with that argument at D.begin−1,
// straddling D.end, and wrapping the address space, fails with EFAULT
// and leaves the fd table and the bytes of D as they were; wait4's
// child can still be reaped afterwards. Before the gate checked PtrOut
// spans, stat wrote the size word inside D and then faulted.
func TestFailedPointerSyscallLeavesNoTrace(t *testing.T) {
	o := gateOS(t, 1)
	d := o.domains[0]
	p, call := gateProc(o, d, 100)
	o.mu.Lock()
	o.procs[101] = &Proc{os: o, pid: 101, ppid: p.pid, exited: true, status: 7}
	o.mu.Unlock()
	valid := d.DataBase + 64
	if call(SysPipe2, [5]uint64{d.DataBase}) != 0 || call(SysEpCreate, [5]uint64{}) != 5 {
		t.Fatal("set-up: pipe2 or epoll_create failed")
	}
	f, err := o.vfs.Open("/x", fs.OCreate|fs.ORdWr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("hello"), 0); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := p.WriteUser(valid, []byte("/x")); err != nil {
		t.Fatal(err)
	}
	fdArg := map[uint64]uint64{SysRead: 3, SysRecv: 3, SysReadv: 3, SysWrite: 4, SysSend: 4, SysWritev: 4, SysEpWait: 5}
	image := func() []byte {
		b, err := o.enclave.ReadDirect(d.DataBase, int(d.DataSize))
		if err != nil {
			t.Fatal(err)
		}
		return bytes.Clone(b)
	}
	before, fds := image(), fdSnapshot(&p.fds)
	forEachBadPointer(sysTable, d.DataBase, d.DataBase+d.DataSize, valid, func(no uint64, a [5]uint64, what string) {
		if sysdispatch.Specs[no].Args[0].Class == sysdispatch.Fd {
			a[0] = fdArg[no]
		}
		if no == SysWait4 {
			a[0] = ^uint64(0) // any child
		}
		if r := call(no, a); r != -EFAULT {
			t.Errorf("%s: %d, want %d", what, r, -EFAULT)
		}
		if !bytes.Equal(image(), before) {
			t.Fatalf("%s changed the bytes of D", what)
		}
		if fdSnapshot(&p.fds) != fds {
			t.Fatalf("%s changed the fd table", what)
		}
	})
	if r := call(SysWait4, [5]uint64{^uint64(0)}); r != 101 {
		t.Errorf("wait4 after the faults = %d, want the child 101", r)
	}
	p.fds.CloseAll()
}

// fdSnapshot is what fds 0-15 of t hold.
func fdSnapshot(t *sysdispatch.FDTable) (out [16]sysdispatch.File) {
	for fd := range out {
		out[fd], _ = t.Get(fd)
	}
	return out
}

// forEachBadPointer calls f once for each pointer or path argument of
// each syscall tab registers, with the argument at each of three bad
// pointers for D = [begin, end): one byte below D, straddling D's end,
// and wrapping the address space. The argument spans 16 bytes or one
// entry. The call's other pointer and path arguments point at valid,
// which holds a two-byte path; the rest of the registers are 0.
func forEachBadPointer(tab *sysdispatch.Table, begin, end, valid uint64, f func(no uint64, a [5]uint64, what string)) {
	unit := func(k sysdispatch.Kind) uint64 {
		switch k.Class {
		case sysdispatch.Path, sysdispatch.Buf:
			return 1
		case sysdispatch.Iov:
			return sysdispatch.IovEntrySize
		case sysdispatch.PtrIn, sysdispatch.PtrOut, sysdispatch.FdPairOut:
			return uint64(k.Size)
		}
		return 0
	}
	for no, s := range sysdispatch.Specs {
		if !tab.Has(no) {
			continue
		}
		for i, k := range s.Args {
			u := unit(k)
			if u == 0 {
				continue
			}
			n := uint64(1)
			if k.N > 0 {
				n = max(1, 16/u)
			}
			for _, bad := range [3]uint64{begin - 1, end - u*n/2, -(u * n / 2)} {
				var a [5]uint64
				for j, other := range s.Args {
					if unit(other) > 0 {
						a[j] = valid
						if other.N > 0 {
							a[other.N-1] = 2
						}
					}
				}
				a[i] = bad
				if k.N > 0 {
					a[k.N-1] = n
				}
				f(uint64(no), a, fmt.Sprintf("%s: argument %d at %#x", s.Name, i+1, bad))
			}
		}
	}
}
