package linuxsim

import (
	"errors"
	"runtime"
	"sync"

	"repro/internal/asm"
	"repro/internal/hostos"
	"repro/internal/isa"
	"repro/internal/libos"
	"repro/internal/mem"
	"repro/internal/sysdispatch"
)

// loadTrampoline writes the syscall gate page at the base of the address
// space. Linux has no MMDSFI domains, so the cfi_label domain ID is 0.
func loadTrampoline(as *mem.Paged, base uint64) error {
	return as.WriteDirect(base, libos.EncodeTrampoline(0))
}

func setupStack(p *Proc, as *mem.Paged, base uint64, img *asm.Image, argv []string,
	dataBase, dataSize, stackSize uint64, heapBase, heapEnd *uint64) error {
	hb, he, err := libos.SetupUserStack(as, p.cpu, base, dataBase, dataSize,
		stackSize, img.MinDataSize(), argv)
	if err != nil {
		return err
	}
	*heapBase, *heapEnd = hb, he
	p.cpu.PC = base + mem.PageSize + uint64(img.Entry)
	return nil
}

// sysTable is the native baseline's registration into the shared syscall
// spine. Where the LibOS parks, the baseline blocks: each native process
// owns a goroutine (kernel threads are cheap outside an enclave), so the
// spine's blocking read/write/wait handlers apply directly. Signals are
// not modeled, so SysKill/SysSigact/SysSigret stay unregistered and
// answer -ENOSYS from the table. Built lazily: the handlers close over
// Spawn, whose process loop dispatches through the table, and a package
// initializer would make that reference cycle ill-formed.
var (
	sysTableOnce sync.Once
	sysTableVal  *sysdispatch.Table
)

func sysTable() *sysdispatch.Table {
	sysTableOnce.Do(func() { sysTableVal = newSysTable() })
	return sysTableVal
}

var errNoFile = errors.New("linuxsim: no such file")

func newSysTable() *sysdispatch.Table {
	t := sysdispatch.NewTable()
	t.Register(libos.SysExit, sysdispatch.ExitHandler(func(k sysdispatch.Kernel, status int) {
		k.(*Proc).exit(status)
	}))
	t.Register(libos.SysWrite, sysdispatch.BlockingWrite)
	t.Register(libos.SysSend, sysdispatch.BlockingWrite)
	t.Register(libos.SysRead, sysdispatch.BlockingRead)
	t.Register(libos.SysRecv, sysdispatch.BlockingRead)
	t.Register(libos.SysWritev, sysdispatch.BlockingWritev)
	t.Register(libos.SysReadv, sysdispatch.BlockingReadv)
	t.Register(libos.SysOpen, sysdispatch.OpenHandler(func(k sysdispatch.Kernel, path string, flags uint64) (sysdispatch.File, int64) {
		of, err := k.(*Proc).l.openPlain(path, int(flags))
		if err != nil {
			return nil, libos.ENOENT
		}
		return of, 0
	}))
	t.Register(libos.SysClose, sysdispatch.CloseFD)
	t.Register(libos.SysSpawn, sysdispatch.SpawnHandler(func(k sysdispatch.Kernel, path string, argv []string) int64 {
		p := k.(*Proc)
		child, err := p.l.Spawn(path, argv, SpawnOpt{Parent: p})
		if err != nil {
			return -libos.ENOENT
		}
		return int64(child.pid)
	}))
	t.Register(libos.SysWait4, sysdispatch.Wait4Handler(func(k sysdispatch.Kernel, pid int) (int, int, int64, bool) {
		cpid, status, errno := k.(*Proc).wait4(pid)
		return cpid, status, int64(errno), false
	}))
	t.Register(libos.SysPipe2, sysdispatch.Pipe2Handler(func(sysdispatch.Kernel) (sysdispatch.File, sysdispatch.File) {
		r, w := libos.NewPipe()
		return r, w
	}))
	t.Register(libos.SysDup2, sysdispatch.Dup2FD)
	t.Register(libos.SysGetpid, sysdispatch.Getpid)
	t.Register(libos.SysGetppid, sysdispatch.Getppid)
	t.Register(libos.SysMmap, func(k sysdispatch.Kernel, a *[5]uint64) sysdispatch.Result {
		p := k.(*Proc)
		length := (a[0] + 4095) &^ 4095
		if p.heapPtr+length > p.heapEnd {
			return sysdispatch.Errno(libos.ENOMEM)
		}
		addr := p.heapPtr
		p.heapPtr += length
		return sysdispatch.Ok(int64(addr))
	})
	t.Register(libos.SysMunmap, sysdispatch.Munmap)
	t.Register(libos.SysFutex, func(k sysdispatch.Kernel, a *[5]uint64) sysdispatch.Result {
		return sysdispatch.Ok(k.(*Proc).sysFutex(a[0], a[1], a[2]))
	})
	libos.RegisterHostSockets(t, func(k sysdispatch.Kernel) *hostos.Host { return k.(*Proc).l.host })
	t.Register(libos.SysLseek, sysdispatch.Lseek)
	t.Register(libos.SysClock, sysdispatch.Clock)
	t.Register(libos.SysYield, func(sysdispatch.Kernel, *[5]uint64) sysdispatch.Result {
		runtime.Gosched()
		return sysdispatch.Ok(0)
	})
	t.Register(libos.SysFsync, func(sysdispatch.Kernel, *[5]uint64) sysdispatch.Result {
		return sysdispatch.Ok(0) // plaintext FS: no deferred integrity state
	})
	t.Register(libos.SysRename, func(k sysdispatch.Kernel, a *[5]uint64) sysdispatch.Result {
		oldp, ok := sysdispatch.ReadPath(k, a[0], a[1])
		if !ok {
			return sysdispatch.Errno(libos.EFAULT)
		}
		newp, ok := sysdispatch.ReadPath(k, a[2], a[3])
		if !ok {
			return sysdispatch.Errno(libos.EFAULT)
		}
		if err := k.(*Proc).l.renamePlain(oldp, newp); err != nil {
			return sysdispatch.Errno(libos.ENOENT)
		}
		return sysdispatch.Ok(0)
	})
	return t
}

// syscall dispatches one trap through the shared table. Returns true
// when the process exited.
func (p *Proc) syscall() bool {
	// Pop the return address (no cfi_label requirement on native Linux).
	sp := p.cpu.Regs[isa.SP]
	retAddr, f := p.cpu.Mem.Load(sp, 8)
	if f != nil {
		p.exit(128 + libos.SIGSEGV)
		return true
	}
	p.cpu.Regs[isa.SP] = sp + 8

	a := [5]uint64{
		p.cpu.Regs[isa.R1], p.cpu.Regs[isa.R2], p.cpu.Regs[isa.R3],
		p.cpu.Regs[isa.R4], p.cpu.Regs[isa.R5],
	}
	res := sysTable().Dispatch(p, p.cpu.Regs[isa.R0], &a)
	if res.Exited {
		return true
	}
	p.cpu.Regs[isa.R0] = uint64(res.Ret)
	p.cpu.PC = retAddr
	return false
}

func (p *Proc) wait4(pid int) (int, int, int) {
	l := p.l
	l.mu.Lock()
	defer l.mu.Unlock()
	for {
		found := false
		for cpid, c := range l.procs {
			if c.ppid != p.pid {
				continue
			}
			if pid >= 0 && cpid != pid {
				continue
			}
			found = true
			if c.exited {
				delete(l.procs, cpid)
				return cpid, c.status, 0
			}
		}
		if !found {
			return 0, 0, libos.ECHILD
		}
		l.procCond.Wait()
	}
}

func (p *Proc) sysFutex(op, addr, val uint64) int64 {
	switch op {
	case libos.FutexWait:
		cur, f := p.cpu.Mem.Load(addr, 8)
		if f != nil {
			return -libos.EFAULT
		}
		if cur != val {
			return -libos.EAGAIN
		}
		p.l.host.FutexWait(addr)
		return 0
	case libos.FutexWake:
		return int64(p.l.host.FutexWake(addr, int(val)))
	}
	return -libos.EINVAL
}

// renamePlain moves a plaintext file (the flat-namespace rename of the
// baseline's map-backed "ext4").
func (l *Linux) renamePlain(oldp, newp string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	f, ok := l.files[oldp]
	if !ok {
		return errNoFile
	}
	if oldp == newp {
		return nil // rename to self is a legal no-op, not a delete
	}
	l.files[newp] = f
	delete(l.files, oldp)
	delete(l.binCache, oldp)
	delete(l.binCache, newp)
	return nil
}

// openPlain opens a plaintext file (the "ext4" of the baseline).
func (l *Linux) openPlain(path string, flags int) (*libos.OpenFile, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	_, ok := l.files[path]
	if !ok {
		if flags&libos.OCreate == 0 {
			return nil, errNoFile
		}
		l.files[path] = nil
	}
	if flags&libos.OTrunc != 0 {
		l.files[path] = nil
	}
	return libos.OpenNodeFile(&plainNode{l: l, path: path}, 0x2 /* rdwr */), nil
}

// plainNode adapts a map-backed file to the fs.Node interface.
type plainNode struct {
	l    *Linux
	path string
}

func (n *plainNode) ReadAt(p []byte, off int64) (int, error) {
	n.l.mu.Lock()
	defer n.l.mu.Unlock()
	f := n.l.files[n.path]
	if off >= int64(len(f)) {
		return 0, nil
	}
	return copy(p, f[off:]), nil
}

func (n *plainNode) WriteAt(p []byte, off int64) (int, error) {
	n.l.mu.Lock()
	defer n.l.mu.Unlock()
	f := n.l.files[n.path]
	if need := int(off) + len(p); need > len(f) {
		if need > cap(f) {
			nf := make([]byte, need, max(need, 2*cap(f)))
			copy(nf, f)
			f = nf
		} else {
			f = f[:need]
		}
	}
	copy(f[off:], p)
	n.l.files[n.path] = f
	delete(n.l.binCache, n.path)
	return len(p), nil
}

func (n *plainNode) Size() int64 {
	n.l.mu.Lock()
	defer n.l.mu.Unlock()
	return int64(len(n.l.files[n.path]))
}

func (n *plainNode) Close() error { return nil }
