package libos

// This file defines the LibOS syscall ABI shared with user programs (the
// workload generators emit code against these constants — the role musl
// libc plays in the paper).
//
// Calling convention: the user program loads the trampoline address from
// its auxiliary vector and performs a (cfi_guard-ed) indirect call to it.
// The trampoline — injected by the loader, and the only way out of the
// MMDSFI sandbox — consists of a cfi_label and a trap. On trap, the LibOS
// pops the return address, checks it is a cfi_label of the calling SIP's
// domain, dispatches on R0, writes the result to R0 (negative errno on
// failure) and resumes at the return address.
//
// Registers: R0 = syscall number in, result out; R1..R5 = arguments.
//
// The numbers, errnos and flag values themselves live in
// internal/sysdispatch — the syscall spine shared with the baseline
// kernels — and are re-exported here so user-program builders keep a
// single import.

import "repro/internal/sysdispatch"

// Syscall numbers (see internal/sysdispatch/abi.go for the catalog).
const (
	SysExit     = sysdispatch.SysExit
	SysWrite    = sysdispatch.SysWrite
	SysRead     = sysdispatch.SysRead
	SysOpen     = sysdispatch.SysOpen
	SysClose    = sysdispatch.SysClose
	SysSpawn    = sysdispatch.SysSpawn
	SysWait4    = sysdispatch.SysWait4
	SysPipe2    = sysdispatch.SysPipe2
	SysDup2     = sysdispatch.SysDup2
	SysGetpid   = sysdispatch.SysGetpid
	SysMmap     = sysdispatch.SysMmap
	SysMunmap   = sysdispatch.SysMunmap
	SysFutex    = sysdispatch.SysFutex
	SysKill     = sysdispatch.SysKill
	SysSigact   = sysdispatch.SysSigact
	SysSigret   = sysdispatch.SysSigret
	SysLseek    = sysdispatch.SysLseek
	SysStat     = sysdispatch.SysStat
	SysMkdir    = sysdispatch.SysMkdir
	SysUnlink   = sysdispatch.SysUnlink
	SysReaddir  = sysdispatch.SysReaddir
	SysSocket   = sysdispatch.SysSocket
	SysBind     = sysdispatch.SysBind
	SysListen   = sysdispatch.SysListen
	SysAccept   = sysdispatch.SysAccept
	SysConnect  = sysdispatch.SysConnect
	SysSend     = sysdispatch.SysSend
	SysRecv     = sysdispatch.SysRecv
	SysClock    = sysdispatch.SysClock
	SysYield    = sysdispatch.SysYield
	SysGetppid  = sysdispatch.SysGetppid
	SysFsync    = sysdispatch.SysFsync
	SysSpawnCPU = sysdispatch.SysSpawnCPU
	SysFcntl    = sysdispatch.SysFcntl
	SysPoll     = sysdispatch.SysPoll
	SysEpCreate = sysdispatch.SysEpCreate
	SysEpCtl    = sysdispatch.SysEpCtl
	SysEpWait   = sysdispatch.SysEpWait
	SysShutdown = sysdispatch.SysShutdown
	SysRename   = sysdispatch.SysRename
	SysWritev   = sysdispatch.SysWritev
	SysReadv    = sysdispatch.SysReadv
	SysSendfile = sysdispatch.SysSendfile
	SysSplice   = sysdispatch.SysSplice
)

// Errno values (returned as -errno in R0).
const (
	EPERM        = sysdispatch.EPERM
	ENOENT       = sysdispatch.ENOENT
	ESRCH        = sysdispatch.ESRCH
	EINTR        = sysdispatch.EINTR
	EIO          = sysdispatch.EIO
	EBADF        = sysdispatch.EBADF
	ECHILD       = sysdispatch.ECHILD
	EAGAIN       = sysdispatch.EAGAIN
	ENOMEM       = sysdispatch.ENOMEM
	EACCES       = sysdispatch.EACCES
	EFAULT       = sysdispatch.EFAULT
	EEXIST       = sysdispatch.EEXIST
	EXDEV        = sysdispatch.EXDEV
	ENOTDIR      = sysdispatch.ENOTDIR
	EISDIR       = sysdispatch.EISDIR
	EINVAL       = sysdispatch.EINVAL
	EMFILE       = sysdispatch.EMFILE
	ENOSPC       = sysdispatch.ENOSPC
	ESPIPE       = sysdispatch.ESPIPE
	EPIPE        = sysdispatch.EPIPE
	ENAMETOOLONG = sysdispatch.ENAMETOOLONG
	ENOSYS       = sysdispatch.ENOSYS
	ENOTEMPTY    = sysdispatch.ENOTEMPTY
	EADDRINUSE   = sysdispatch.EADDRINUSE
	ENOTCONN     = sysdispatch.ENOTCONN
	ECONNREFUSED = sysdispatch.ECONNREFUSED
)

// Open flags in the user ABI (mirroring fs.OpenFlag values).
const (
	ORdOnly = sysdispatch.ORdOnly
	OWrOnly = sysdispatch.OWrOnly
	ORdWr   = sysdispatch.ORdWr
	OCreate = sysdispatch.OCreate
	OTrunc  = sysdispatch.OTrunc
	OAppend = sysdispatch.OAppend
)

// Futex operations.
const (
	FutexWait = sysdispatch.FutexWait
	FutexWake = sysdispatch.FutexWake
)

// fcntl commands and status flags.
const (
	FGetFl    = sysdispatch.FGetFl
	FSetFl    = sysdispatch.FSetFl
	ONonblock = sysdispatch.ONonblock
)

// poll/epoll event bits and epoll_ctl operations.
const (
	PollIn   = sysdispatch.PollIn
	PollOut  = sysdispatch.PollOut
	PollErr  = sysdispatch.PollErr
	PollHup  = sysdispatch.PollHup
	PollNval = sysdispatch.PollNval

	EpCtlAdd = sysdispatch.EpCtlAdd
	EpCtlDel = sysdispatch.EpCtlDel
	EpCtlMod = sysdispatch.EpCtlMod

	ShutRd   = sysdispatch.ShutRd
	ShutWr   = sysdispatch.ShutWr
	ShutRdWr = sysdispatch.ShutRdWr
)

// Signals.
const (
	SIGKILL = 9
	SIGSEGV = 11
	SIGTERM = 15
	SIGUSR1 = 10
	SIGILL  = 4
	SIGFPE  = 8
)

// Lseek whence values.
const (
	SeekSet = sysdispatch.SeekSet
	SeekCur = sysdispatch.SeekCur
	SeekEnd = sysdispatch.SeekEnd
)

// Auxiliary vector layout. At process entry, R10 points to this block in
// the data region and SP is just below it:
//
//	[ 0] trampoline address (the LibOS syscall gate)
//	[ 8] heap base
//	[16] heap end
//	[24] argc
//	[32] argv[0] pointer, argv[1] pointer, ... (each NUL-terminated)
const (
	AuxTrampoline = 0
	AuxHeapBase   = 8
	AuxHeapEnd    = 16
	AuxArgc       = 24
	AuxArgv       = 32
)
