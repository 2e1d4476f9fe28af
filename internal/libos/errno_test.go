package libos

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/fs"
	"repro/internal/hostos"
)

// TestErrnoTable feeds errno the errors the stack returns, wrapped the
// way the store and the host wrap them, and checks the errno a guest
// sees.
func TestErrnoTable(t *testing.T) {
	wrap := func(err error) error { return fmt.Errorf("fs: flush: %w", fmt.Errorf("%w: img.s3", err)) }
	for _, tc := range []struct {
		err  error
		want int64
	}{
		{nil, 0},
		{wrap(hostos.ErrNoSpace), -ENOSPC},
		{wrap(hostos.ErrIO), -EIO},
		{wrap(hostos.ErrNoFile), -EIO},
		{wrap(fs.ErrCorrupt), -EIO},
		{wrap(fs.ErrFull), -ENOSPC},
		{wrap(fs.ErrNotExist), -ENOENT},
		{wrap(fs.ErrReadOnly), -EACCES},
		{errors.New("anything else"), -EIO},
	} {
		if got := errno(tc.err); got != tc.want {
			t.Errorf("errno(%v) = %d, want %d", tc.err, got, tc.want)
		}
	}
}
