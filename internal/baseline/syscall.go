package baseline

import (
	"runtime"

	"repro/internal/hostos"
	"repro/internal/isa"
	"repro/internal/libos"
	"repro/internal/sysdispatch"
)

// newTable is the skeleton's registration into the shared syscall spine,
// then the model's. Where the LibOS parks, a baseline blocks: each
// process owns a goroutine (kernel threads are cheap outside an enclave,
// and Graphene-SGX gives every process its own), so the spine's blocking
// read/write/wait handlers apply directly. Signals are not modeled:
// SysKill/SysSigact/SysSigret answer -ENOSYS from the table.
func (k *Kernel) newTable() *sysdispatch.Table {
	t := sysdispatch.NewTable()
	t.Register(libos.SysExit, sysdispatch.ExitHandler(func(c sysdispatch.Kernel, status int) {
		c.(*Proc).exit(status)
	}))
	t.Register(libos.SysWrite, sysdispatch.BlockingWrite)
	t.Register(libos.SysSend, sysdispatch.BlockingWrite)
	t.Register(libos.SysRead, sysdispatch.BlockingRead)
	t.Register(libos.SysRecv, sysdispatch.BlockingRead)
	t.Register(libos.SysWritev, sysdispatch.BlockingWritev)
	t.Register(libos.SysReadv, sysdispatch.BlockingReadv)
	t.Register(libos.SysOpen, sysdispatch.OpenHandler(func(c sysdispatch.Kernel, path string, flags uint64) (sysdispatch.File, int64) {
		f, err := k.model.Open(c.(*Proc), path, int(flags))
		if err != nil {
			return nil, errno(err)
		}
		return f, 0
	}))
	t.Register(libos.SysClose, sysdispatch.CloseFD)
	t.Register(libos.SysSpawn, sysdispatch.SpawnHandler(func(c sysdispatch.Kernel, path string, argv []string) int64 {
		child, err := k.Spawn(path, argv, SpawnOpt{Parent: c.(*Proc)})
		if err != nil {
			return -errno(err)
		}
		return int64(child.pid)
	}))
	t.Register(libos.SysWait4, sysdispatch.Wait4Handler(func(c sysdispatch.Kernel, pid int) (int, int, int64, bool) {
		return c.(*Proc).wait4(pid)
	}))
	t.Register(libos.SysPipe2, sysdispatch.Pipe2Handler(func(c sysdispatch.Kernel) (sysdispatch.File, sysdispatch.File) {
		return k.model.NewPipe(c.(*Proc))
	}))
	t.Register(libos.SysDup2, sysdispatch.Dup2FD)
	t.Register(libos.SysGetpid, sysdispatch.Getpid)
	t.Register(libos.SysGetppid, sysdispatch.Getppid)
	t.Register(libos.SysMmap, func(c sysdispatch.Kernel, a *[5]uint64) sysdispatch.Result {
		p := c.(*Proc)
		length := (a[0] + 4095) &^ 4095
		if p.heapPtr+length > p.heapEnd {
			return sysdispatch.Errno(libos.ENOMEM)
		}
		addr := p.heapPtr
		p.heapPtr += length
		return sysdispatch.Ok(int64(addr))
	})
	t.Register(libos.SysMunmap, sysdispatch.Munmap)
	t.Register(libos.SysFutex, k.sysFutex)
	libos.RegisterHostSockets(t, func(sysdispatch.Kernel) *hostos.Host { return k.host })
	t.Register(libos.SysClock, sysdispatch.Clock)
	t.Register(libos.SysYield, func(sysdispatch.Kernel, *[5]uint64) sysdispatch.Result {
		runtime.Gosched()
		return sysdispatch.Ok(0)
	})
	k.model.Register(t)
	return t
}

// syscall dispatches one trap through the table. Returns true when the
// process exited.
func (p *Proc) syscall() bool {
	// Pop the return address (no cfi_label requirement outside Occlum).
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
	res := p.k.table.Dispatch(p, p.cpu.Regs[isa.R0], &a)
	if res.Exited {
		return true
	}
	p.cpu.Regs[isa.R0] = uint64(res.Ret)
	p.cpu.PC = retAddr
	return false
}

// wait4 reaps a matching child, sleeping until one exits; -ECHILD when
// none can ever match. It never parks (the Wait4Handler's last result).
func (p *Proc) wait4(pid int) (cpid, status int, err int64, parked bool) {
	k := p.k
	k.mu.Lock()
	defer k.mu.Unlock()
	for {
		found := false
		for cpid, c := range k.procs {
			if c.ppid != p.pid || (pid >= 0 && cpid != pid) {
				continue
			}
			found = true
			if c.exited {
				delete(k.procs, cpid)
				return cpid, c.status, 0, false
			}
		}
		if !found {
			return 0, 0, libos.ECHILD, false
		}
		k.exits.Wait()
	}
}

// sysFutex is futex(op, addr, val) on the host's wait queues.
func (k *Kernel) sysFutex(c sysdispatch.Kernel, a *[5]uint64) sysdispatch.Result {
	op, addr, val := a[0], a[1], a[2]
	switch op {
	case libos.FutexWait:
		cur, f := c.(*Proc).cpu.Mem.Load(addr, 8)
		if f != nil {
			return sysdispatch.Errno(libos.EFAULT)
		}
		if cur != val {
			return sysdispatch.Errno(libos.EAGAIN)
		}
		k.host.FutexWait(addr)
		return sysdispatch.Ok(0)
	case libos.FutexWake:
		return sysdispatch.Ok(int64(k.host.FutexWake(addr, int(val))))
	}
	return sysdispatch.Errno(libos.EINVAL)
}
