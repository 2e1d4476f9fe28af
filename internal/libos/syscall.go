package libos

import (
	"errors"
	"sync/atomic"

	"repro/internal/fs"
	"repro/internal/hostos"
	"repro/internal/mem"
	"repro/internal/sysdispatch"
)

// sysTable is the LibOS's registration into the shared syscall spine
// (internal/sysdispatch): marshalling and the fd table come from the
// spine; the handlers below supply SIP semantics — domain-checked user
// memory, the encrypted VFS, signals, and the parking protocol that
// releases a hart instead of blocking it.
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
	t.Register(SysOpen, sysdispatch.OpenHandler(sysOpen))
	t.Register(SysClose, sysdispatch.CloseFD)
	t.Register(SysSpawn, sysdispatch.SpawnHandler(sysSpawn))
	t.Register(SysWait4, sysdispatch.Wait4Handler(func(k sysdispatch.Kernel, pid int) (int, int, int64, bool) {
		return k.(*Proc).sysWait4(pid)
	}))
	t.Register(SysPipe2, sysdispatch.Pipe2Handler(func(k sysdispatch.Kernel) (sysdispatch.File, sysdispatch.File) {
		r, w := newPipe(&k.(*Proc).os.pipeBufs)
		return r, w
	}))
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
	t.Register(SysMkdir, pathHandler(func(p *Proc, path string) int64 {
		return errno(p.os.vfs.Mkdir(path))
	}))
	t.Register(SysUnlink, pathHandler(func(p *Proc, path string) int64 {
		return errno(p.os.vfs.Unlink(path))
	}))
	t.Register(SysRename, sysRename)
	t.Register(SysReaddir, sysReaddir)
	t.Register(SysSocket, sysdispatch.SocketHandler(func(sysdispatch.Kernel) sysdispatch.File {
		return NewSocketFile()
	}))
	t.Register(SysBind, sysBind)
	t.Register(SysListen, sysdispatch.Listen)
	t.Register(SysAccept, sysAccept)
	t.Register(SysConnect, sysConnect)
	t.Register(SysClock, sysdispatch.Clock)
	t.Register(SysFcntl, sysFcntl)
	t.Register(SysPoll, sysPoll)
	t.Register(SysEpCreate, sysEpCreate)
	t.Register(SysEpCtl, sysEpCtl)
	t.Register(SysEpWait, sysEpWait)
	t.Register(SysShutdown, sysShutdown)
	t.Register(SysYield, func(sysdispatch.Kernel, *[5]uint64) sysdispatch.Result {
		return sysdispatch.Result{Yielded: true}
	})
	t.Register(SysFsync, func(k sysdispatch.Kernel, _ *[5]uint64) sysdispatch.Result {
		return sysdispatch.Ok(errno(k.(*Proc).os.encfs.Sync()))
	})
	t.Register(SysSpawnCPU, func(k sysdispatch.Kernel, _ *[5]uint64) sysdispatch.Result {
		return sysdispatch.Ok(int64(k.(*Proc).cpu.Cycles))
	})
	return t
}

func errno(err error) int64 {
	switch {
	case err == nil:
		return 0
	case errors.Is(err, fs.ErrNotExist):
		return -ENOENT
	case errors.Is(err, fs.ErrExist):
		return -EEXIST
	case errors.Is(err, fs.ErrIsDir):
		return -EISDIR
	case errors.Is(err, fs.ErrNotDir):
		return -ENOTDIR
	case errors.Is(err, fs.ErrNotEmpty):
		return -ENOTEMPTY
	case errors.Is(err, fs.ErrReadOnly):
		return -EACCES
	case errors.Is(err, fs.ErrFull):
		return -ENOSPC
	case errors.Is(err, fs.ErrCrossDevice):
		return -EXDEV
	case errors.Is(err, fs.ErrInvalid):
		return -EINVAL
	case errors.Is(err, fs.ErrReservedName):
		return -EACCES
	case errors.Is(err, hostos.ErrNoSpace):
		return -ENOSPC
	case errors.Is(err, hostos.ErrIO):
		return -EIO
	default:
		return -EIO
	}
}

// pathHandler adapts a path-only operation (mkdir, unlink).
func pathHandler(f func(p *Proc, path string) int64) sysdispatch.Handler {
	return func(k sysdispatch.Kernel, a *[5]uint64) sysdispatch.Result {
		path, ok := sysdispatch.ReadPath(k, a[0], a[1])
		if !ok {
			return sysdispatch.Errno(EFAULT)
		}
		return sysdispatch.Ok(f(k.(*Proc), path))
	}
}

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
func sysWrite(k sysdispatch.Kernel, a *[5]uint64) sysdispatch.Result {
	p := k.(*Proc)
	of, ok := p.getFD(int(int64(a[0])))
	if !ok {
		return sysdispatch.Errno(EBADF)
	}
	return p.writeSpans(of, []sysdispatch.Iovec{{Base: a[1], Len: a[2]}})
}

// sysRead is the SIP read(2)/recv(2): the one-span case of readv.
func sysRead(k sysdispatch.Kernel, a *[5]uint64) sysdispatch.Result {
	p := k.(*Proc)
	of, ok := p.getFD(int(int64(a[0])))
	if !ok {
		return sysdispatch.Errno(EBADF)
	}
	return p.readSpans(of, []sysdispatch.Iovec{{Base: a[1], Len: a[2]}})
}

func sysOpen(k sysdispatch.Kernel, path string, flags uint64) (sysdispatch.File, int64) {
	p := k.(*Proc)
	n, err := p.os.vfs.Open(path, fs.OpenFlag(flags))
	if err != nil {
		return nil, -errno(err)
	}
	return newNodeFile(n, fs.OpenFlag(flags)), 0
}

func sysSpawn(k sysdispatch.Kernel, path string, argv []string) int64 {
	p := k.(*Proc)
	child, err := p.os.Spawn(path, argv, SpawnOpt{Parent: p})
	if err != nil {
		switch {
		case errors.Is(err, ErrNoDomains):
			return -EAGAIN
		case errors.Is(err, fs.ErrNotExist):
			return -ENOENT
		default:
			return -EACCES
		}
	}
	return int64(child.pid)
}

func sysMmap(k sysdispatch.Kernel, a *[5]uint64) sysdispatch.Result {
	p := k.(*Proc)
	// Anonymous RW mapping from the domain's heap. The pages were
	// zeroed when the domain was recycled, and the bump pointer only
	// hands out fresh memory, so the zero-fill guarantee of §6 holds.
	length := (a[0] + 4095) &^ 4095
	p.os.mu.Lock()
	defer p.os.mu.Unlock()
	if p.heapPtr+length > p.heapEnd {
		return sysdispatch.Errno(ENOMEM)
	}
	addr := p.heapPtr
	p.heapPtr += length
	// mmap must return zeroed pages even if a previous user of this
	// heap range dirtied them within this process lifetime. Cleared in
	// place through a write loan: the permission check and exec-stamp
	// of WriteAt, without staging a zero buffer the size of the mapping.
	v, f := p.os.enclave.ViewBytes(addr, int(length), mem.AccessWrite)
	if f != nil {
		return sysdispatch.Errno(ENOMEM)
	}
	clear(v.B)
	if !v.CommitWrite(len(v.B)) {
		return sysdispatch.Errno(ENOMEM)
	}
	return sysdispatch.Ok(int64(addr))
}

// sysFutex: the value check happens inside the LibOS (semantic
// correctness); only the sleep is delegated to the host. Waiting parks
// the SIP: the wake callback latches the wake for this syscall's
// generation and unparks (wakeGen), and the retry returns 0 without
// re-checking the futex word (the waker usually changed it).
// Registrations not consumed by a wake are cancelled by
// dispatch/teardown, so no wake is ever wasted on a dead waiter.
func sysFutex(k sysdispatch.Kernel, a *[5]uint64) sysdispatch.Result {
	p := k.(*Proc)
	op, addr, val := a[0], a[1], a[2]
	switch op {
	case FutexWait:
		cur := p.cursys
		if p.woken() {
			return sysdispatch.Ok(0)
		}
		if cur.cancel == nil {
			v, err := p.readUserU64(addr)
			if err != nil {
				return sysdispatch.Errno(EFAULT)
			}
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

func sysKill(k sysdispatch.Kernel, a *[5]uint64) sysdispatch.Result {
	p := k.(*Proc)
	if err := p.os.Kill(int(int64(a[0])), int(int64(a[1]))); err != nil {
		return sysdispatch.Errno(ESRCH)
	}
	return sysdispatch.Ok(0)
}

func sysSigaction(k sysdispatch.Kernel, a *[5]uint64) sysdispatch.Result {
	p := k.(*Proc)
	sig, handler := int(int64(a[0])), a[1]
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
		delete(p.handlers, sig)
	} else {
		p.handlers[sig] = handler
	}
	p.os.mu.Unlock()
	return sysdispatch.Ok(0)
}

func sysSigreturn(k sysdispatch.Kernel, _ *[5]uint64) sysdispatch.Result {
	p := k.(*Proc)
	p.os.mu.Lock()
	if !p.inHandler {
		p.os.mu.Unlock()
		return sysdispatch.Errno(EINVAL)
	}
	p.inHandler = false
	p.os.mu.Unlock()
	// Restore the full pre-signal context; the normal syscall return
	// path must not clobber it.
	p.cpu.PC = p.savedPC
	p.cpu.Regs = p.savedRegs
	return sysdispatch.Result{NoWriteback: true}
}

// sysRename is rename(oldPath, oldLen, newPath, newLen).
func sysRename(k sysdispatch.Kernel, a *[5]uint64) sysdispatch.Result {
	p := k.(*Proc)
	oldp, ok := sysdispatch.ReadPath(p, a[0], a[1])
	if !ok {
		return sysdispatch.Errno(EFAULT)
	}
	newp, ok := sysdispatch.ReadPath(p, a[2], a[3])
	if !ok {
		return sysdispatch.Errno(EFAULT)
	}
	return sysdispatch.Ok(errno(p.os.vfs.Rename(oldp, newp)))
}

func sysStat(k sysdispatch.Kernel, a *[5]uint64) sysdispatch.Result {
	p := k.(*Proc)
	path, ok := sysdispatch.ReadPath(p, a[0], a[1])
	if !ok {
		return sysdispatch.Errno(EFAULT)
	}
	fi, serr := p.os.vfs.Stat(path)
	if serr != nil {
		return sysdispatch.Ok(errno(serr))
	}
	if err := p.writeUserU64(a[2], uint64(fi.Size)); err != nil {
		return sysdispatch.Errno(EFAULT)
	}
	var d uint64
	if fi.IsDir {
		d = 1
	}
	if err := p.writeUserU64(a[2]+8, d); err != nil {
		return sysdispatch.Errno(EFAULT)
	}
	return sysdispatch.Ok(0)
}

func sysReaddir(k sysdispatch.Kernel, a *[5]uint64) sysdispatch.Result {
	p := k.(*Proc)
	path, ok := sysdispatch.ReadPath(p, a[0], a[1])
	if !ok {
		return sysdispatch.Errno(EFAULT)
	}
	ents, derr := p.os.vfs.ReadDir(path)
	if derr != nil {
		return sysdispatch.Ok(errno(derr))
	}
	var out []byte
	for _, e := range ents {
		out = append(out, e.Name...)
		out = append(out, 0)
	}
	if uint64(len(out)) > a[3] {
		out = out[:a[3]]
	}
	if err := p.writeUserBytes(a[2], out); err != nil {
		return sysdispatch.Errno(EFAULT)
	}
	return sysdispatch.Ok(int64(len(out)))
}

func sysBind(k sysdispatch.Kernel, a *[5]uint64) sysdispatch.Result {
	p := k.(*Proc)
	of, ok := p.getFD(int(int64(a[0])))
	if !ok || of.kind != kindSock {
		return sysdispatch.Errno(EBADF)
	}
	if of.BindHost(p.os.host, uint16(a[1])) != nil {
		return sysdispatch.Errno(EACCES)
	}
	return sysdispatch.Ok(0)
}

// sysAccept parks the SIP until a connection is queued or the listener
// closes — the paper's Lighttpd configuration runs more workers than
// TCS entries only because a worker waiting in accept costs no hart. On
// an O_NONBLOCK listener an empty backlog returns EAGAIN instead (the
// event-driven acceptor's drain loop).
func sysAccept(k sysdispatch.Kernel, a *[5]uint64) sysdispatch.Result {
	p := k.(*Proc)
	of, ok := p.getFD(int(int64(a[0])))
	if !ok || of.kind != kindListener {
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
			return sysdispatch.Errno(EIO)
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
		return sysdispatch.Ok(int64(p.fds.Install(nf)))
	}
}

func sysConnect(k sysdispatch.Kernel, a *[5]uint64) sysdispatch.Result {
	p := k.(*Proc)
	of, ok := p.getFD(int(int64(a[0])))
	if !ok || of.kind != kindSock {
		return sysdispatch.Errno(EBADF)
	}
	if of.ConnectHost(p.os.host, uint16(a[1])) != nil {
		return sysdispatch.Errno(ECONNREFUSED)
	}
	return sysdispatch.Ok(0)
}
