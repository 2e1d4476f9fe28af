package hostos

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// TestDiskContract runs one script of Disk calls against both
// implementations: the in-memory host and a directory of real files.
func TestDiskContract(t *testing.T) {
	for _, tc := range []struct {
		name string
		d    Disk
	}{{"host", New()}, {"dir", Dir(t.TempDir())}} {
		t.Run(tc.name, func(t *testing.T) {
			d := tc.d
			if _, err := d.ReadFileAt("f", 0, make([]byte, 4)); !errors.Is(err, ErrNoFile) {
				t.Fatalf("read of a missing file: %v, want ErrNoFile", err)
			}
			if d.FileSize("f") != 0 {
				t.Fatal("missing file has a size")
			}
			if err := d.WriteFileAt("f", 8, []byte("world")); err != nil {
				t.Fatal(err)
			}
			if err := d.WriteFileAt("f", 0, []byte("hello")); err != nil {
				t.Fatal(err)
			}
			if err := d.Sync("f"); err != nil {
				t.Fatal(err)
			}
			if d.FileSize("f") != 13 {
				t.Fatalf("size = %d, want 13", d.FileSize("f"))
			}
			buf := make([]byte, 16)
			n, err := d.ReadFileAt("f", 0, buf)
			if err != nil || n != 13 || !bytes.Equal(buf[:13], []byte("hello\x00\x00\x00world")) {
				t.Fatalf("ReadFileAt = %d %q %v", n, buf[:n], err)
			}
			if n, err := d.ReadFileAt("f", 20, buf); n != 0 || err != nil {
				t.Fatalf("read past the end = %d, %v; want 0, nil", n, err)
			}
			if err := d.RemoveFile("f"); err != nil {
				t.Fatal(err)
			}
			if err := d.RemoveFile("f"); err != nil {
				t.Fatalf("removing an absent file: %v", err)
			}
			if d.FileSize("f") != 0 {
				t.Fatal("removed file still has a size")
			}
		})
	}
}

// TestDirErrors: Dir maps what the OS reports onto the Disk errors,
// each naming the file.
func TestDirErrors(t *testing.T) {
	root := t.TempDir()
	if err := os.WriteFile(filepath.Join(root, "plain"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	err := Dir(root).WriteFileAt("plain/sub", 0, []byte("x")) // a file is not a directory
	if !errors.Is(err, ErrIO) || errors.Is(err, ErrNoFile) {
		t.Fatalf("write under a plain file: %v, want ErrIO", err)
	}
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full to run out of space on")
	}
	err = Dir("/dev").WriteFileAt("full", 0, []byte("x"))
	if !errors.Is(err, ErrNoSpace) || !bytes.Contains([]byte(err.Error()), []byte("full")) {
		t.Fatalf("write to /dev/full: %v, want ErrNoSpace naming the file", err)
	}
}
