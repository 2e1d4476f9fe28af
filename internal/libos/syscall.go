package libos

import (
	"sync/atomic"

	"repro/internal/fs"
	"repro/internal/hostos"
	"repro/internal/mem"
	"repro/internal/sysdispatch"
)

// sysTable is the LibOS's registration into the shared syscall spine
// (internal/sysdispatch): the gate decodes each call by its spec and
// owns the fd table's installs; the handlers below supply SIP semantics
// — the encrypted VFS, signals, and the parking protocol that releases
// a hart instead of blocking it.
var sysTable = newSysTable()

func newSysTable() *sysdispatch.Table {
	t := sysdispatch.NewTable()
	t.Register(SysExit, sysdispatch.ExitHandler(func(k sysdispatch.Kernel, status int) {
		k.(*Proc).teardown(status)
	}))
	t.Register(SysWrite, sysWrite)
	t.Register(SysSend, sysWrite)
	t.Register(SysRead, sysRead)
	t.Register(SysRecv, sysRead)
	t.Register(SysWritev, sysWritev)
	t.Register(SysReadv, sysReadv)
	t.Register(SysSendfile, sysSendfile)
	t.Register(SysSplice, sysSplice)
	t.Register(SysOpen, sysOpen)
	t.Register(SysClose, sysdispatch.CloseFD)
	t.Register(SysSpawn, sysSpawn)
	t.Register(SysWait4, sysWait4)
	t.Register(SysPipe2, func(k sysdispatch.Kernel, c *sysdispatch.Call) sysdispatch.Result {
		c.Out[0], c.Out[1] = newPipe(&k.(*Proc).os.pipeBufs)
		return sysdispatch.Ok(0)
	})
	t.Register(SysDup2, sysdispatch.Dup2FD)
	t.Register(SysGetpid, sysdispatch.Getpid)
	t.Register(SysGetppid, sysdispatch.Getppid)
	t.Register(SysMmap, sysMmap)
	t.Register(SysMunmap, sysdispatch.Munmap)
	t.Register(SysFutex, sysFutex)
	t.Register(SysKill, sysKill)
	t.Register(SysSigact, sysSigaction)
	t.Register(SysSigret, sysSigreturn)
	t.Register(SysLseek, sysdispatch.Lseek)
	t.Register(SysStat, sysStat)
	t.Register(SysMkdir, func(k sysdispatch.Kernel, c *sysdispatch.Call) sysdispatch.Result {
		return sysdispatch.Err(k.(*Proc).os.vfs.Mkdir(c.Path[0]))
	})
	t.Register(SysUnlink, func(k sysdispatch.Kernel, c *sysdispatch.Call) sysdispatch.Result {
		return sysdispatch.Err(k.(*Proc).os.vfs.Unlink(c.Path[0]))
	})
	t.Register(SysRename, func(k sysdispatch.Kernel, c *sysdispatch.Call) sysdispatch.Result {
		return sysdispatch.Err(k.(*Proc).os.vfs.Rename(c.Path[0], c.Path[1]))
	})
	t.Register(SysReaddir, sysReaddir)
	registerSockets(t, func(k sysdispatch.Kernel) *hostos.Host { return k.(*Proc).os.host })
	t.Register(SysAccept, sysAccept)
	t.Register(SysClock, sysdispatch.Clock)
	t.Register(SysFcntl, sysFcntl)
	t.Register(SysPoll, sysPoll)
	t.Register(SysEpCreate, func(_ sysdispatch.Kernel, c *sysdispatch.Call) sysdispatch.Result {
		c.Out[0] = &OpenFile{refs: 1, kind: kindEpoll, ep: newEpollSet()}
		return sysdispatch.Ok(0)
	})
	t.Register(SysEpCtl, sysEpCtl)
	t.Register(SysEpWait, sysEpWait)
	t.Register(SysShutdown, sysShutdown)
	t.Register(SysYield, func(sysdispatch.Kernel, *sysdispatch.Call) sysdispatch.Result {
		return sysdispatch.Result{Yielded: true}
	})
	t.Register(SysFsync, func(k sysdispatch.Kernel, _ *sysdispatch.Call) sysdispatch.Result {
		return sysdispatch.Err(k.(*Proc).os.encfs.Sync())
	})
	t.Register(SysSpawnCPU, func(k sysdispatch.Kernel, _ *sysdispatch.Call) sysdispatch.Result {
		return sysdispatch.Ok(int64(k.(*Proc).cpu.Cycles))
	})
	return t
}

// getFD resolves an fd the specs cannot describe as an argument: a poll
// entry's, and epoll_ctl's target.
func (p *Proc) getFD(fd int) (*OpenFile, bool) {
	f, ok := p.fds.Get(fd)
	if !ok {
		return nil, false
	}
	of, ok := f.(*OpenFile)
	return of, ok
}

// sysWrite is the SIP write(2)/send(2): the one-span case of writev,
// through the same lending body (writeSpans). A count above MaxUserBuf
// fails the loan: EFAULT.
func sysWrite(k sysdispatch.Kernel, c *sysdispatch.Call) sysdispatch.Result {
	return k.(*Proc).writeSpans(c.F[0].(*OpenFile), []sysdispatch.Iovec{{Base: c.A[1], Len: c.A[2]}})
}

// sysRead is the SIP read(2)/recv(2): the one-span case of readv.
func sysRead(k sysdispatch.Kernel, c *sysdispatch.Call) sysdispatch.Result {
	return k.(*Proc).readSpans(c.F[0].(*OpenFile), []sysdispatch.Iovec{{Base: c.A[1], Len: c.A[2]}})
}

func sysOpen(k sysdispatch.Kernel, c *sysdispatch.Call) sysdispatch.Result {
	flags := fs.OpenFlag(c.A[2])
	n, err := k.(*Proc).os.vfs.Open(c.Path[0], flags)
	if err != nil {
		return sysdispatch.Err(err)
	}
	c.Out[0] = newNodeFile(n, flags)
	return sysdispatch.Ok(0)
}

func sysSpawn(k sysdispatch.Kernel, c *sysdispatch.Call) sysdispatch.Result {
	p := k.(*Proc)
	child, err := p.os.Spawn(c.Path[0], sysdispatch.Argv(p, c), SpawnOpt{Parent: p})
	if err != nil {
		return sysdispatch.Err(err)
	}
	return sysdispatch.Ok(int64(child.pid))
}

func sysMmap(k sysdispatch.Kernel, c *sysdispatch.Call) sysdispatch.Result {
	p := k.(*Proc)
	// Anonymous RW mapping from the domain's heap. The pages were
	// zeroed when the domain was recycled, and the bump pointer only
	// hands out fresh memory, so the zero-fill guarantee of §6 holds.
	p.os.mu.Lock()
	defer p.os.mu.Unlock()
	addr, after, ok := sysdispatch.Bump(p.heapPtr, p.heapEnd, c.A[0])
	if !ok {
		return sysdispatch.Errno(ENOMEM)
	}
	// mmap must return zeroed pages even if a previous user of this
	// heap range dirtied them within this process lifetime. Cleared in
	// place through a write loan: the permission check and exec-stamp
	// of WriteAt, without staging a zero buffer the size of the mapping.
	v, f := p.os.enclave.ViewBytes(addr, int(after-addr), mem.AccessWrite)
	if f != nil {
		return sysdispatch.Errno(ENOMEM)
	}
	clear(v.B)
	if !v.CommitWrite(len(v.B)) {
		return sysdispatch.Errno(ENOMEM)
	}
	p.heapPtr = after
	return sysdispatch.Ok(int64(addr))
}

// sysFutex: the value check happens inside the LibOS (semantic
// correctness); only the sleep is delegated to the host. Waiting parks
// the SIP: the wake callback latches the wake for this syscall's
// generation and unparks (wakeGen), and the retry returns 0 without
// re-checking the futex word (the waker usually changed it).
// Registrations not consumed by a wake are cancelled by
// dispatch/teardown, so no wake is ever wasted on a dead waiter.
func sysFutex(k sysdispatch.Kernel, c *sysdispatch.Call) sysdispatch.Result {
	p := k.(*Proc)
	op, addr, val := c.A[0], c.A[1], c.A[2]
	switch op {
	case FutexWait:
		cur := p.cursys
		if p.woken() {
			return sysdispatch.Ok(0)
		}
		if cur.cancel == nil {
			v, _ := p.readUserU64(addr) // the word passed the gate
			if v != val {
				return sysdispatch.Errno(EAGAIN)
			}
			gen := cur.gen
			reg := p.os.host.FutexSubscribe(addr, func() { p.wakeGen(gen) })
			cur.cancel = reg.Cancel
		}
		// Still registered (a spurious wake re-parks here).
		return sysdispatch.ParkedResult
	case FutexWake:
		return sysdispatch.Ok(int64(p.os.host.FutexWake(addr, int(val))))
	}
	return sysdispatch.Errno(EINVAL)
}

func sysKill(k sysdispatch.Kernel, c *sysdispatch.Call) sysdispatch.Result {
	p := k.(*Proc)
	return sysdispatch.Err(p.os.Kill(int(int64(c.A[0])), int(int64(c.A[1]))))
}

func sysSigaction(k sysdispatch.Kernel, c *sysdispatch.Call) sysdispatch.Result {
	p := k.(*Proc)
	sig, handler := int(int64(c.A[0])), c.A[1]
	if sig == SIGKILL {
		return sysdispatch.Errno(EINVAL)
	}
	if handler != 0 && !p.os.isDomainLabel(p.dom, handler) {
		// A handler must be a cfi_label of this domain, otherwise
		// signal delivery would be an arbitrary-jump primitive.
		return sysdispatch.Errno(EINVAL)
	}
	p.os.mu.Lock()
	if handler == 0 {
		delete(p.signals().handlers, sig)
	} else {
		p.signals().handlers[sig] = handler
	}
	p.os.mu.Unlock()
	return sysdispatch.Ok(0)
}

func sysSigreturn(k sysdispatch.Kernel, _ *sysdispatch.Call) sysdispatch.Result {
	p := k.(*Proc)
	p.os.mu.Lock()
	sg := p.sig
	if sg == nil || !sg.inHandler {
		p.os.mu.Unlock()
		return sysdispatch.Errno(EINVAL)
	}
	sg.inHandler = false
	p.os.mu.Unlock()
	// Restore the full pre-signal context; the normal syscall return
	// path must not clobber it.
	p.cpu.PC = sg.savedPC
	p.cpu.Regs = sg.savedRegs
	return sysdispatch.Result{NoWriteback: true}
}

func sysStat(k sysdispatch.Kernel, c *sysdispatch.Call) sysdispatch.Result {
	p := k.(*Proc)
	fi, err := p.os.vfs.Stat(c.Path[0])
	if err != nil {
		return sysdispatch.Err(err)
	}
	var d uint64
	if fi.IsDir {
		d = 1
	}
	// The 16 bytes passed the gate.
	_ = p.WriteU64(c.A[2], uint64(fi.Size))
	_ = p.WriteU64(c.A[2]+8, d)
	return sysdispatch.Ok(0)
}

func sysReaddir(k sysdispatch.Kernel, c *sysdispatch.Call) sysdispatch.Result {
	p := k.(*Proc)
	ents, err := p.os.vfs.ReadDir(c.Path[0])
	if err != nil {
		return sysdispatch.Err(err)
	}
	var out []byte
	for _, e := range ents {
		out = append(out, e.Name...)
		out = append(out, 0)
	}
	if uint64(len(out)) > c.A[3] {
		out = out[:c.A[3]]
	}
	_ = p.writeUserBytes(c.A[2], out) // the buffer passed the gate
	return sysdispatch.Ok(int64(len(out)))
}

// sysAccept parks the SIP until a connection is queued or the listener
// closes — the paper's Lighttpd configuration runs more workers than
// TCS entries only because a worker waiting in accept costs no hart. On
// an O_NONBLOCK listener an empty backlog returns EAGAIN instead (the
// event-driven acceptor's drain loop). A listener closed under the call
// answers EIO, as on the baselines: hostos.ErrClosed has no row in the
// errno table, on purpose.
func sysAccept(k sysdispatch.Kernel, c *sysdispatch.Call) sysdispatch.Result {
	p := k.(*Proc)
	of := c.F[0].(*OpenFile)
	if of.kind != kindListener {
		return sysdispatch.Errno(EBADF)
	}
	wait := p.wake
	if of.nonblock.Load() {
		wait = nil
	}
	o := p.os
	for {
		conn, got, closed := of.lis.TryAccept(wait)
		if closed {
			return sysdispatch.Err(hostos.ErrClosed)
		}
		if !got {
			if wait == nil {
				atomic.AddUint64(&netStats.EAgains, 1)
				return sysdispatch.Errno(EAGAIN)
			}
			atomic.AddUint64(&netStats.AcceptParks, 1)
			return sysdispatch.ParkedResult
		}
		// Backpressure: when the run queues are saturated past the
		// configured threshold, admitting another connection only grows
		// the backlog of work the harts cannot reach — shed it at the
		// door (accept-and-close, the cheapest refusal) and drain the
		// next queued one, so a burst is rejected promptly instead of
		// timing out one accept at a time.
		if o.cfg.ShedThreshold > 0 && o.sched.Runnable() >= o.cfg.ShedThreshold {
			conn.Close()
			atomic.AddUint64(&netStats.Sheds, 1)
			continue
		}
		nf := newConnFile(conn)
		if d := o.cfg.IdleTimeout; d > 0 {
			nf.armIdleReap(o.timers, d)
		}
		c.Out[0] = nf
		return sysdispatch.Ok(0)
	}
}
