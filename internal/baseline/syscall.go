package baseline

import (
	"runtime"

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
	t.Register(libos.SysOpen, func(p sysdispatch.Kernel, c *sysdispatch.Call) sysdispatch.Result {
		f, err := k.model.Open(p.(*Proc), c.Path[0], int(c.A[2]))
		if err != nil {
			return sysdispatch.Err(err)
		}
		c.Out[0] = f
		return sysdispatch.Ok(0)
	})
	t.Register(libos.SysClose, sysdispatch.CloseFD)
	t.Register(libos.SysSpawn, func(p sysdispatch.Kernel, c *sysdispatch.Call) sysdispatch.Result {
		child, err := k.Spawn(c.Path[0], sysdispatch.Argv(p, c), SpawnOpt{Parent: p.(*Proc)})
		if err != nil {
			return sysdispatch.Err(err)
		}
		return sysdispatch.Ok(int64(child.pid))
	})
	t.Register(libos.SysWait4, func(p sysdispatch.Kernel, c *sysdispatch.Call) sysdispatch.Result {
		return p.(*Proc).wait4(c)
	})
	t.Register(libos.SysPipe2, func(p sysdispatch.Kernel, c *sysdispatch.Call) sysdispatch.Result {
		c.Out[0], c.Out[1] = k.model.NewPipe(p.(*Proc))
		return sysdispatch.Ok(0)
	})
	t.Register(libos.SysDup2, sysdispatch.Dup2FD)
	t.Register(libos.SysGetpid, sysdispatch.Getpid)
	t.Register(libos.SysGetppid, sysdispatch.Getppid)
	t.Register(libos.SysMmap, func(p sysdispatch.Kernel, c *sysdispatch.Call) sysdispatch.Result {
		pr := p.(*Proc)
		addr, after, ok := sysdispatch.Bump(pr.heapPtr, pr.heapEnd, c.A[0])
		if !ok {
			return sysdispatch.Errno(libos.ENOMEM)
		}
		pr.heapPtr = after
		return sysdispatch.Ok(int64(addr))
	})
	t.Register(libos.SysMunmap, sysdispatch.Munmap)
	t.Register(libos.SysFutex, k.sysFutex)
	libos.RegisterHostSockets(t, k.host)
	t.Register(libos.SysClock, sysdispatch.Clock)
	t.Register(libos.SysYield, func(sysdispatch.Kernel, *sysdispatch.Call) sysdispatch.Result {
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

	c := sysdispatch.Call{A: [5]uint64{
		p.cpu.Regs[isa.R1], p.cpu.Regs[isa.R2], p.cpu.Regs[isa.R3],
		p.cpu.Regs[isa.R4], p.cpu.Regs[isa.R5],
	}}
	res := p.k.table.Dispatch(p, p.cpu.Regs[isa.R0], &c)
	if res.Exited {
		return true
	}
	p.cpu.Regs[isa.R0] = uint64(res.Ret)
	p.cpu.PC = retAddr
	return false
}

// wait4 reaps a matching child, writing its status when asked and
// sleeping until one exits; -ECHILD when none can ever match.
func (p *Proc) wait4(c *sysdispatch.Call) sysdispatch.Result {
	pid := int(int64(c.A[0]))
	k := p.k
	k.mu.Lock()
	defer k.mu.Unlock()
	for {
		found := false
		for cpid, ch := range k.procs {
			if ch.ppid != p.pid || (pid >= 0 && cpid != pid) {
				continue
			}
			found = true
			if ch.exited {
				delete(k.procs, cpid)
				if c.A[1] != 0 {
					_ = p.WriteU64(c.A[1], uint64(ch.status)) // the word passed the gate
				}
				return sysdispatch.Ok(int64(cpid))
			}
		}
		if !found {
			return sysdispatch.Errno(libos.ECHILD)
		}
		k.exits.Wait()
	}
}

// sysFutex is futex(op, addr, val) on the host's wait queues.
func (k *Kernel) sysFutex(p sysdispatch.Kernel, c *sysdispatch.Call) sysdispatch.Result {
	op, addr, val := c.A[0], c.A[1], c.A[2]
	switch op {
	case libos.FutexWait:
		cur, f := p.(*Proc).cpu.Mem.Load(addr, 8)
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
