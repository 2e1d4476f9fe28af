package eip

import (
	"crypto/sha256"
	"runtime"
	"sync"

	"repro/internal/hostos"
	"repro/internal/isa"
	"repro/internal/libos"
	"repro/internal/sysdispatch"
)

// sysTable is the EIP baseline's registration into the shared syscall
// spine. Like the native baseline it blocks where the LibOS parks (each
// EIP owns a goroutine), so the spine's blocking handlers apply; what is
// EIP-specific is what the paper charges it for: every user buffer
// crosses the enclave boundary by copy (ReadUser/WriteUser), pipes are
// AES-GCM sealed queues, files are sealed and read-only, and spawn
// creates, attests and migrates into a new enclave. lseek, rename, fsync
// and signals are not modeled and answer -ENOSYS from the table. Built
// lazily for the reason linuxsim's is: the handlers close over Spawn.
var (
	sysTableOnce sync.Once
	sysTableVal  *sysdispatch.Table
)

func sysTable() *sysdispatch.Table {
	sysTableOnce.Do(func() { sysTableVal = newSysTable() })
	return sysTableVal
}

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
	t.Register(libos.SysOpen, sysdispatch.OpenHandler(func(k sysdispatch.Kernel, path string, _ uint64) (sysdispatch.File, int64) {
		data, err := k.(*Proc).g.readProtected(path)
		if err != nil {
			return nil, libos.ENOENT
		}
		return libos.OpenNodeFile(roFile{data}, libos.ORdOnly), 0
	}))
	t.Register(libos.SysClose, sysdispatch.CloseFD)
	t.Register(libos.SysSpawn, sysdispatch.SpawnHandler(func(k sysdispatch.Kernel, path string, argv []string) int64 {
		p := k.(*Proc)
		child, err := p.g.Spawn(path, argv, SpawnOpt{Parent: p})
		if err != nil {
			return -libos.EAGAIN
		}
		return int64(child.pid)
	}))
	t.Register(libos.SysWait4, sysdispatch.Wait4Handler(func(k sysdispatch.Kernel, pid int) (int, int, int64, bool) {
		cpid, status, errno := k.(*Proc).wait4(pid)
		return cpid, status, int64(errno), false
	}))
	t.Register(libos.SysPipe2, sysdispatch.Pipe2Handler(func(k sysdispatch.Kernel) (sysdispatch.File, sysdispatch.File) {
		// The pipe key would be agreed between the enclaves via local
		// attestation; derive it from the creating enclave identity.
		p := k.(*Proc)
		meas := p.encl.Measurement()
		r, w := newEncPipe(sha256.Sum256(append(meas[:], byte(p.pid))))
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
	libos.RegisterHostSockets(t, func(k sysdispatch.Kernel) *hostos.Host { return k.(*Proc).g.host })
	t.Register(libos.SysFutex, func(k sysdispatch.Kernel, a *[5]uint64) sysdispatch.Result {
		return sysdispatch.Ok(k.(*Proc).sysFutex(a[0], a[1], a[2]))
	})
	t.Register(libos.SysClock, sysdispatch.Clock)
	t.Register(libos.SysYield, func(sysdispatch.Kernel, *[5]uint64) sysdispatch.Result {
		runtime.Gosched()
		return sysdispatch.Ok(0)
	})
	readOnlyFS := func(sysdispatch.Kernel, *[5]uint64) sysdispatch.Result {
		return sysdispatch.Errno(libos.EACCES) // read-only filesystem (Table 1)
	}
	t.Register(libos.SysMkdir, readOnlyFS)
	t.Register(libos.SysUnlink, readOnlyFS)
	return t
}

// syscall dispatches one trap through the shared table. Returns true
// when the process exited.
func (p *Proc) syscall() bool {
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
	g := p.g
	g.mu.Lock()
	defer g.mu.Unlock()
	for {
		found := false
		for cpid, c := range g.procs {
			if c.ppid != p.pid {
				continue
			}
			if pid >= 0 && cpid != pid {
				continue
			}
			found = true
			if c.exited {
				delete(g.procs, cpid)
				return cpid, c.status, 0
			}
		}
		if !found {
			return 0, 0, libos.ECHILD
		}
		g.procCond.Wait()
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
		p.g.host.FutexWait(addr)
		return 0
	case libos.FutexWake:
		return int64(p.g.host.FutexWake(addr, int(val)))
	}
	return -libos.EINVAL
}
