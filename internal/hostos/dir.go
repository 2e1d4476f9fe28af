package hostos

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"syscall"
)

// Dir is a Disk over the real files in a directory: file name maps to
// root/name. Errors are typed: a missing file is ErrNoFile, a full
// device ErrNoSpace, anything else ErrIO, each wrapped with the name.
type Dir string

var _ Disk = Dir("")

func (d Dir) path(name string) string { return filepath.Join(string(d), name) }

// ReadFileAt reads up to len(p) bytes at off; end of file is a short
// count, not an error.
func (d Dir) ReadFileAt(name string, off int, p []byte) (int, error) {
	f, err := os.Open(d.path(name))
	if err != nil {
		return 0, diskErr(name, err)
	}
	defer f.Close()
	n, err := f.ReadAt(p, int64(off))
	if err == io.EOF {
		err = nil
	}
	return n, diskErr(name, err)
}

// WriteFileAt writes p at off, creating the file if needed.
func (d Dir) WriteFileAt(name string, off int, p []byte) error {
	f, err := os.OpenFile(d.path(name), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return diskErr(name, err)
	}
	_, err = f.WriteAt(p, int64(off))
	return diskErr(name, errors.Join(err, f.Close()))
}

// FileSize returns the file's size, 0 if it cannot be stat'ed.
func (d Dir) FileSize(name string) int {
	fi, err := os.Stat(d.path(name))
	if err != nil {
		return 0
	}
	return int(fi.Size())
}

// RemoveFile deletes the file; an absent file is already removed.
func (d Dir) RemoveFile(name string) error {
	if err := os.Remove(d.path(name)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return diskErr(name, err)
	}
	return nil
}

// Sync fsyncs the file. An absent file has no writes to make durable.
func (d Dir) Sync(name string) error {
	f, err := os.OpenFile(d.path(name), os.O_RDWR, 0)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return diskErr(name, err)
	}
	return diskErr(name, errors.Join(f.Sync(), f.Close()))
}

// diskErr maps an os error onto the Disk error taxonomy.
func diskErr(name string, err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, fs.ErrNotExist):
		return fmt.Errorf("%w: %s", ErrNoFile, name)
	case errors.Is(err, syscall.ENOSPC):
		return fmt.Errorf("%w: %s: %v", ErrNoSpace, name, err)
	default:
		return fmt.Errorf("%w: %s: %v", ErrIO, name, err)
	}
}
