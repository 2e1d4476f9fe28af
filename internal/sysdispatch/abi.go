// Package sysdispatch is the syscall spine shared by every simulated
// kernel: the user-visible syscall ABI (numbers, errnos, flag values), a
// table-driven dispatcher, a shared file-descriptor table, and the
// argument-marshalling halves of the handlers that are common across
// kernels.
//
// Each kernel builds one Table, registering either a spine-provided
// handler (where only the semantics primitive differs, injected as a
// closure) or its own handler (where the whole operation is
// kernel-specific, e.g. signals in the LibOS), and its trap path is one
// Dispatch call. There are two builders: the LibOS, and
// internal/baseline for the goroutine-per-process kernels.
package sysdispatch

// Syscall numbers. The calling convention (trampoline call with the
// number in R0 and arguments in R1..R5, result in R0) is documented in
// internal/libos/abi.go, which re-exports these constants to user-program
// builders.
const (
	SysExit     = 1  // exit(status)
	SysWrite    = 2  // write(fd, buf, len) → n
	SysRead     = 3  // read(fd, buf, len) → n
	SysOpen     = 4  // open(path, pathLen, flags) → fd
	SysClose    = 5  // close(fd)
	SysSpawn    = 6  // spawn(path, pathLen, argvBlock, argvLen) → pid
	SysWait4    = 7  // wait4(pid, statusPtr) → pid
	SysPipe2    = 8  // pipe2(fds[2]ptr)
	SysDup2     = 9  // dup2(oldfd, newfd)
	SysGetpid   = 10 // getpid() → pid
	SysMmap     = 11 // mmap(len) → addr (anonymous RW only)
	SysMunmap   = 12 // munmap(addr, len)
	SysFutex    = 13 // futex(op, addr, val)
	SysKill     = 14 // kill(pid, sig)
	SysSigact   = 15 // sigaction(sig, handler)
	SysSigret   = 16 // sigreturn()
	SysLseek    = 17 // lseek(fd, off, whence) → off
	SysStat     = 18 // stat(path, pathLen, statPtr{size,isdir})
	SysMkdir    = 19 // mkdir(path, pathLen)
	SysUnlink   = 20 // unlink(path, pathLen)
	SysReaddir  = 21 // readdir(path, pathLen, buf, bufLen) → n
	SysSocket   = 22 // socket() → fd
	SysBind     = 23 // bind(fd, port)
	SysListen   = 24 // listen(fd)
	SysAccept   = 25 // accept(fd) → connfd
	SysConnect  = 26 // connect(fd, port)
	SysSend     = 27 // send(fd, buf, len) → n
	SysRecv     = 28 // recv(fd, buf, len) → n
	SysClock    = 29 // clock_gettime() → ns
	SysYield    = 30 // sched_yield()
	SysGetppid  = 31 // getppid() → pid
	SysFsync    = 32 // fsync(fd)
	SysSpawnCPU = 33 // internal: report consumed cycles (diagnostics)
	SysFcntl    = 34 // fcntl(fd, cmd, arg) → flags (F_GETFL/F_SETFL)
	SysPoll     = 35 // poll(fdsPtr, nfds, timeoutMs) → ready count
	SysEpCreate = 36 // epoll_create() → epfd
	SysEpCtl    = 37 // epoll_ctl(epfd, op, fd, events)
	SysEpWait   = 38 // epoll_wait(epfd, eventsPtr, maxEvents, timeoutMs) → n
	SysShutdown = 39 // shutdown(fd, how)
	SysRename   = 40 // rename(oldPath, oldLen, newPath, newLen)
	SysWritev   = 41 // writev(fd, iovPtr, iovCnt) → n
	SysReadv    = 42 // readv(fd, iovPtr, iovCnt) → n
	SysSendfile = 43 // sendfile(outfd, infd, off, count) → n
	SysSplice   = 44 // splice(fdIn, fdOut, count) → n

	// SysMax bounds the dispatch table; numbers must stay below it.
	SysMax = 64
)

// Errno values (returned as -errno in R0).
const (
	EPERM        = 1
	ENOENT       = 2
	ESRCH        = 3
	EINTR        = 4
	EIO          = 5
	EBADF        = 9
	ECHILD       = 10
	EAGAIN       = 11
	ENOMEM       = 12
	EACCES       = 13
	EFAULT       = 14
	EEXIST       = 17
	EXDEV        = 18
	ENOTDIR      = 20
	EISDIR       = 21
	EINVAL       = 22
	EMFILE       = 24
	ENOSPC       = 28
	ESPIPE       = 29
	EPIPE        = 32
	ENOSYS       = 38
	ENOTEMPTY    = 39
	ENOTCONN     = 107
	ECONNREFUSED = 111
)

// Open flags in the user ABI (mirroring fs.OpenFlag values).
const (
	ORdOnly = 0
	OWrOnly = 1
	ORdWr   = 2
	OCreate = 0x40
	OTrunc  = 0x200
	OAppend = 0x400
)

// Futex operations.
const (
	FutexWait = 0
	FutexWake = 1
)

// Status flags set with fcntl(F_SETFL). O_NONBLOCK is a property of the
// open file description, so — as on Linux — processes sharing a
// description via dup2 or spawn inheritance share the flag.
const (
	ONonblock = 0x800
)

// Fcntl commands.
const (
	FGetFl = 3
	FSetFl = 4
)

// poll/epoll event bits (pollfd.events / epoll interest masks).
// PollErr, PollHup and PollNval are always reported regardless of the
// requested mask, as in poll(2).
const (
	PollIn   = 0x1
	PollOut  = 0x4
	PollErr  = 0x8
	PollHup  = 0x10
	PollNval = 0x20
)

// epoll_ctl operations.
const (
	EpCtlAdd = 1
	EpCtlDel = 2
	EpCtlMod = 3
)

// shutdown(2) directions.
const (
	ShutRd   = 0
	ShutWr   = 1
	ShutRdWr = 2
)

// PollMaxFDs bounds one poll set; EpMaxEvents bounds one epoll_wait
// result batch. Both keep a single syscall's user-memory traffic small.
const (
	PollMaxFDs  = 128
	EpMaxEvents = 256
)

// User-memory layouts: poll takes an array of 24-byte entries
// {fd i64, events u64, revents u64}; epoll_wait fills an array of
// 16-byte entries {fd u64, revents u64}; readv/writev take an array of
// 16-byte iovec entries {base u64, len u64}. All fields are
// little-endian 64-bit words, matching the OVM's natural load/store
// width.
const (
	PollEntrySize = 24
	EpEntrySize   = 16
	IovEntrySize  = 16
)

// IovMax bounds one readv/writev iovec array (UIO_MAXIOV's role); the
// summed spans are additionally capped at MaxUserBuf, like a scalar
// buffer.
const IovMax = 64

// Sendfile/splice semantics: sendfile(outfd, infd, off, count) reads
// [off, off+count) of the in file — the description offset is neither
// consulted nor advanced, pread-style, so concurrent servers need no
// offset locking — and sends it to the out socket, returning the byte
// count actually queued (short when the socket backpressures; 0 at
// EOF). splice(fdIn, fdOut, count) moves up to count bytes between a
// pipe and a socket (either direction) without the bytes ever entering
// guest memory; it returns as soon as at least one byte moves.

// Lseek whence values.
const (
	SeekSet = 0
	SeekCur = 1
	SeekEnd = 2
)

// MaxUserBuf caps a single read/write/path buffer, as the seed kernels
// did ad hoc.
const MaxUserBuf = 1 << 20
