package sysdispatch

import (
	"errors"
	"io"

	"repro/internal/fs"
	"repro/internal/hostos"
	"repro/internal/oelf"
)

// The kernels' own failures. They are declared here, beside the table
// that gives each its errno, because every kernel imports this package.
var (
	// ErrNoRoom: every MMDSFI domain is in use, or the EPC has no room
	// for another Graphene-SGX enclave. Both clear once a process
	// exits: EAGAIN.
	ErrNoRoom = errors.New("no room for another process")
	// ErrTooBig: a binary that no MMDSFI domain, or no Graphene-SGX
	// enclave of the configured size, can hold, now or later.
	ErrTooBig = errors.New("binary too big")
	// ErrNotConn: a data call on a socket that was never connected.
	ErrNotConn = errors.New("socket not connected")
	// ErrBadFD: a data call on a description not open for it.
	ErrBadFD = errors.New("descriptor not open for this call")
	// ErrNotSeekable: lseek on a pipe or a socket.
	ErrNotSeekable = errors.New("descriptor not seekable")
	// ErrNoProcess: a pid that names no live process.
	ErrNoProcess = errors.New("no such process")
)

// errnos is the one error table. A Go error reaches a guest, on every
// kernel, as the errno of the first row whose sentinel it wraps; the
// loader's refusals are the oelf rows. TestEverySentinelHasARow lists
// the sentinels no row names, which answer EIO on purpose.
var errnos = [...]struct {
	err error
	no  int64
}{
	{fs.ErrNotExist, ENOENT},
	{fs.ErrExist, EEXIST},
	{fs.ErrIsDir, EISDIR},
	{fs.ErrNotDir, ENOTDIR},
	{fs.ErrNotEmpty, ENOTEMPTY},
	{fs.ErrNameTooLong, ENAMETOOLONG},
	{fs.ErrReadOnly, EACCES},
	{fs.ErrReservedName, EACCES},
	{fs.ErrCrossDevice, EXDEV},
	{fs.ErrInvalid, EINVAL},
	{fs.ErrFull, ENOSPC},
	{hostos.ErrNoSpace, ENOSPC},
	{hostos.ErrPortInUse, EADDRINUSE},
	{hostos.ErrConnRefused, ECONNREFUSED},
	{io.ErrClosedPipe, EPIPE},
	{oelf.ErrBadFormat, EACCES},
	{oelf.ErrBadSignature, EACCES},
	{ErrNoRoom, EAGAIN},
	{ErrTooBig, ENOMEM},
	{ErrNotConn, ENOTCONN},
	{ErrBadFD, EBADF},
	{ErrNotSeekable, ESPIPE},
	{ErrNoProcess, ESRCH},
}

// Err is the result of a call that failed with err, or Ok(0) when err
// is nil: the one conversion of a Go error to a guest's errno, EIO when
// no row names it.
func Err(err error) Result {
	if err == nil {
		return Ok(0)
	}
	for _, r := range &errnos {
		if errors.Is(err, r.err) {
			return Errno(r.no)
		}
	}
	return Errno(EIO)
}
