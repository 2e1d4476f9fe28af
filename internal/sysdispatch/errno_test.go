package sysdispatch

import (
	"errors"
	"fmt"
	"io"
	"testing"

	"repro/internal/fs"
	"repro/internal/hostos"
	"repro/internal/oelf"
)

// TestErrnoTable feeds Err one input per row of the table, wrapped the
// way the store and the host wrap their errors, plus nil and an error
// no row names, and checks the errno a guest sees.
func TestErrnoTable(t *testing.T) {
	wrap := func(err error) error { return fmt.Errorf("fs: flush: %w", fmt.Errorf("%w: img.s3", err)) }
	rows := []struct {
		err  error
		want int64
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
	for _, tc := range rows {
		if got := Err(wrap(tc.err)).Ret; got != -tc.want {
			t.Errorf("Err(%v) = %d, want %d", wrap(tc.err), got, -tc.want)
		}
	}
	if got := Err(nil); got != Ok(0) {
		t.Errorf("Err(nil) = %+v, want Ok(0)", got)
	}
	for _, err := range []error{errors.New("anything else"), wrap(fs.ErrCorrupt), wrap(hostos.ErrIO)} {
		if got := Err(err).Ret; got != -EIO {
			t.Errorf("Err(%v) = %d, want %d", err, got, -EIO)
		}
	}
}

// TestErrAllocatesNothing: a syscall allocates nothing, and that holds
// for one that fails. Err walks the table on the caller's stack.
func TestErrAllocatesNothing(t *testing.T) {
	mapped, unmapped := fmt.Errorf("open /x: %w", fs.ErrNotExist), errors.New("unmapped")
	for _, err := range []error{nil, mapped, unmapped} {
		if n := testing.AllocsPerRun(100, func() { _ = Err(err) }); n != 0 {
			t.Errorf("Err(%v): %.1f allocations, want 0", err, n)
		}
	}
}
