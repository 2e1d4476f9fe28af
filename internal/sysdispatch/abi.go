// Package sysdispatch is the syscall spine shared by every simulated
// kernel: the user-visible syscall ABI (numbers, errnos, flag values)
// with one description of each call's arguments (Specs), the gate that
// decodes and checks every call by it (Table.Dispatch), a shared
// file-descriptor table, and the handlers common across kernels.
//
// Each kernel builds one Table, registering spine handlers or its own
// against the described numbers, and its trap path is one Dispatch
// call. There are two builders: the LibOS, and internal/baseline for
// the goroutine-per-process kernels.
package sysdispatch

// Syscall numbers. The calling convention (trampoline call with the
// number in R0 and arguments in R1..R5, result in R0) is documented in
// internal/libos/abi.go, which re-exports these constants to user-program
// builders. Each number's arguments are described in Specs.
const (
	SysExit     = 1
	SysWrite    = 2
	SysRead     = 3
	SysOpen     = 4
	SysClose    = 5
	SysSpawn    = 6
	SysWait4    = 7
	SysPipe2    = 8
	SysDup2     = 9
	SysGetpid   = 10
	SysMmap     = 11 // anonymous RW only
	SysMunmap   = 12
	SysFutex    = 13
	SysKill     = 14
	SysSigact   = 15
	SysSigret   = 16
	SysLseek    = 17
	SysStat     = 18 // statPtr receives {size, isdir}
	SysMkdir    = 19
	SysUnlink   = 20
	SysReaddir  = 21
	SysSocket   = 22
	SysBind     = 23
	SysListen   = 24
	SysAccept   = 25
	SysConnect  = 26
	SysSend     = 27
	SysRecv     = 28
	SysClock    = 29
	SysYield    = 30
	SysGetppid  = 31
	SysFsync    = 32
	SysSpawnCPU = 33 // internal: report consumed cycles (diagnostics)
	SysFcntl    = 34 // F_GETFL/F_SETFL
	SysPoll     = 35
	SysEpCreate = 36
	SysEpCtl    = 37
	SysEpWait   = 38
	SysShutdown = 39
	SysRename   = 40
	SysWritev   = 41
	SysReadv    = 42
	SysSendfile = 43
	SysSplice   = 44

	// SysMax bounds the dispatch table; numbers must stay below it.
	SysMax = 64
)

// Class is what an argument register holds, as the gate checks it.
type Class uint8

const (
	Int       Class = iota // a value, or an argument whose meaning depends on another
	Fd                     // an open fd, looked up into Call.F (EBADF)
	FdClose                // close's fd, taken out of the table into Call.F (EBADF)
	Path                   // a path of register N's length, read into Call.Path (EFAULT)
	PtrIn                  // memory the call reads, range-checked (EFAULT)
	PtrOut                 // memory the call writes, range-checked (EFAULT)
	Buf                    // a data buffer of register N's length
	Iov                    // an array of register N's count of Iovecs
	FdOut                  // a result fd: the gate installs Call.Out[0]
	FdPairOut              // two fd words: the gate installs Call.Out and writes their numbers
)

// Kind is one argument's description. A PtrIn, PtrOut or FdPairOut span
// is Size bytes, or register N's count of Size-byte entries, at most
// Max of them when Max is set; the gate checks it before the handler
// runs, so a call that fails on it leaves no trace. Buf and Iov spans
// are left to the data path, so a fault part-way returns the bytes
// moved before it, as on Linux.
type Kind struct {
	Class Class
	N     uint8 // the register R1..R5 holding a length or count; 0: none
	Null  bool  // a zero pointer passes (wait4's status)
	Size  uint32
	Max   uint32
}

// Spec describes one syscall: its arguments R1..R5 and its result.
type Spec struct {
	Name string
	Args [5]Kind
	Ret  Kind
}

var (
	fdArg   = Kind{Class: Fd}
	fdRet   = Kind{Class: FdOut}
	pathArg = Kind{Class: Path, N: 2} // a path in R1, its length in R2
	bufArg  = Kind{Class: Buf, N: 3}  // a buffer in R2, its length in R3
	iovArg  = Kind{Class: Iov, N: 3}
)

// Specs describes every syscall once; a comment names the arguments
// where the kinds do not. Table.Dispatch checks a call's arguments by it
// before the handler runs, and Register refuses a number it does not
// describe.
var Specs = [SysMax]Spec{
	SysExit:     {Name: "exit"},                                                             // (status)
	SysWrite:    {Name: "write", Args: [5]Kind{fdArg, bufArg}},                              // (fd, buf, len) → n
	SysRead:     {Name: "read", Args: [5]Kind{fdArg, bufArg}},                               // (fd, buf, len) → n
	SysOpen:     {Name: "open", Args: [5]Kind{pathArg}, Ret: fdRet},                         // (path, pathLen, flags) → fd
	SysClose:    {Name: "close", Args: [5]Kind{{Class: FdClose}}},                           // (fd)
	SysSpawn:    {Name: "spawn", Args: [5]Kind{pathArg, {}, {Class: PtrIn, N: 4, Size: 1}}}, // (path, pathLen, argvBlock, argvLen) → pid
	SysWait4:    {Name: "wait4", Args: [5]Kind{{}, {Class: PtrOut, Size: 8, Null: true}}},   // (pid, statusPtr) → pid
	SysPipe2:    {Name: "pipe2", Args: [5]Kind{{Class: FdPairOut, Size: 16}}},               // (fdsPtr)
	SysDup2:     {Name: "dup2", Args: [5]Kind{fdArg}},                                       // (oldfd, newfd)
	SysGetpid:   {Name: "getpid"},
	SysMmap:     {Name: "mmap"},                                              // (len) → addr
	SysMunmap:   {Name: "munmap"},                                            // (addr, len)
	SysFutex:    {Name: "futex", Args: [5]Kind{{}, {Class: PtrIn, Size: 8}}}, // (op, addr, val)
	SysKill:     {Name: "kill"},                                              // (pid, sig)
	SysSigact:   {Name: "sigaction"},                                         // (sig, handler)
	SysSigret:   {Name: "sigreturn"},
	SysLseek:    {Name: "lseek", Args: [5]Kind{fdArg}},                                 // (fd, off, whence) → off
	SysStat:     {Name: "stat", Args: [5]Kind{pathArg, {}, {Class: PtrOut, Size: 16}}}, // (path, pathLen, statPtr)
	SysMkdir:    {Name: "mkdir", Args: [5]Kind{pathArg}},
	SysUnlink:   {Name: "unlink", Args: [5]Kind{pathArg}},
	SysReaddir:  {Name: "readdir", Args: [5]Kind{pathArg, {}, {Class: PtrOut, N: 4, Size: 1, Max: MaxUserBuf}}}, // (path, pathLen, buf, bufLen) → n
	SysSocket:   {Name: "socket", Ret: fdRet},
	SysBind:     {Name: "bind", Args: [5]Kind{fdArg}},   // (fd, port)
	SysListen:   {Name: "listen", Args: [5]Kind{fdArg}}, // (fd, backlog)
	SysAccept:   {Name: "accept", Args: [5]Kind{fdArg}, Ret: fdRet},
	SysConnect:  {Name: "connect", Args: [5]Kind{fdArg}}, // (fd, port)
	SysSend:     {Name: "send", Args: [5]Kind{fdArg, bufArg}},
	SysRecv:     {Name: "recv", Args: [5]Kind{fdArg, bufArg}},
	SysClock:    {Name: "clock_gettime"}, // () → ns
	SysYield:    {Name: "sched_yield"},
	SysGetppid:  {Name: "getppid"},
	SysFsync:    {Name: "fsync", Args: [5]Kind{fdArg}},
	SysSpawnCPU: {Name: "spawn_cpu"},                                                                        // () → cycles
	SysFcntl:    {Name: "fcntl", Args: [5]Kind{fdArg}},                                                      // (fd, cmd, arg) → flags
	SysPoll:     {Name: "poll", Args: [5]Kind{{Class: PtrOut, N: 2, Size: PollEntrySize, Max: PollMaxFDs}}}, // (fdsPtr, nfds, timeoutMs) → ready
	SysEpCreate: {Name: "epoll_create", Ret: fdRet},
	SysEpCtl:    {Name: "epoll_ctl", Args: [5]Kind{fdArg}},                                                              // (epfd, op, fd, events)
	SysEpWait:   {Name: "epoll_wait", Args: [5]Kind{fdArg, {Class: PtrOut, N: 3, Size: EpEntrySize, Max: EpMaxEvents}}}, // (epfd, eventsPtr, maxEvents, timeoutMs) → n
	SysShutdown: {Name: "shutdown", Args: [5]Kind{fdArg}},                                                               // (fd, how)
	SysRename:   {Name: "rename", Args: [5]Kind{pathArg, {}, {Class: Path, N: 4}}},                                      // (oldPath, oldLen, newPath, newLen)
	SysWritev:   {Name: "writev", Args: [5]Kind{fdArg, iovArg}},
	SysReadv:    {Name: "readv", Args: [5]Kind{fdArg, iovArg}},
	SysSendfile: {Name: "sendfile", Args: [5]Kind{fdArg, fdArg}}, // (outfd, infd, off, count) → n
	SysSplice:   {Name: "splice", Args: [5]Kind{fdArg, fdArg}},   // (fdIn, fdOut, count) → n
}

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
	ENAMETOOLONG = 36
	ENOSYS       = 38
	ENOTEMPTY    = 39
	EADDRINUSE   = 98
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

// MaxFD bounds a process's fd numbers: dup2's target, and the slots
// FDTable.Install hands out (past it, EMFILE). It is Linux's default
// fs.nr_open. The largest table a benchmark builds (c100k) holds
// about 12.5k fds per worker.
const MaxFD = 1 << 20
