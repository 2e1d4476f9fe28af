package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/fs"
	"repro/internal/hostos"
)

// TestRepairRebuildsDeletedFileOnDisk: a store written through
// hostos.Dir loses one backing file on disk; repair recreates it in
// place at its old size, after which fsck is clean and info reports
// every file healthy.
func TestRepairRebuildsDeletedFileOnDisk(t *testing.T) {
	dir := t.TempDir()
	image := filepath.Join(dir, "img")
	store, err := fs.CreateStore(hostos.Dir(dir), "img", fs.KeyFromString("occlum-default"), 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Mkfs(store); err != nil {
		t.Fatal(err)
	}
	efs, err := fs.Mount(store)
	if err != nil {
		t.Fatal(err)
	}
	f, err := efs.Open("/hello", fs.ORdWr|fs.OCreate)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(bytes.Repeat([]byte("occlum "), 2000), 0); err != nil {
		t.Fatal(err)
	}
	if err := efs.Sync(); err != nil {
		t.Fatal(err)
	}

	lost := image + ".s3"
	st, err := os.Stat(lost)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(lost); err != nil {
		t.Fatal(err)
	}

	out := runOK(t, "-image", image, "repair")
	if !strings.Contains(out, "rebuilt") {
		t.Fatalf("repair printed %q", out)
	}
	back, err := os.Stat(lost)
	if err != nil {
		t.Fatalf("repair did not recreate %s: %v", lost, err)
	}
	if back.Size() != st.Size() {
		t.Fatalf("rebuilt %s is %d bytes, want %d", lost, back.Size(), st.Size())
	}

	if out := runOK(t, "-image", image, "fsck"); !strings.Contains(out, "clean") {
		t.Fatalf("fsck printed %q", out)
	}
	out = runOK(t, "-image", image, "info")
	if n := strings.Count(out, "  ok\n"); n != 6 || strings.Contains(out, "MISSING") {
		t.Fatalf("info lists %d healthy files, want 6:\n%s", n, out)
	}
	if !strings.Contains(out, "format v5, AES-128-GCM,") {
		t.Fatalf("info does not name format v5 and its cipher:\n%s", out)
	}
}

// newStoreOnDisk writes a committed 4+2 store named img, holding an
// empty filesystem, to real files in a new temp dir, and returns the dir.
func newStoreOnDisk(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	store, err := fs.CreateStore(hostos.Dir(dir), "img", fs.KeyFromString("occlum-default"), 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Mkfs(store); err != nil {
		t.Fatal(err)
	}
	return dir
}

// readStore reads every backing file of the store img in dir.
func readStore(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "img.s*"))
	if err != nil || len(paths) != 6 {
		t.Fatalf("store has %d backing files (%v), want 6", len(paths), err)
	}
	files := map[string][]byte{}
	for _, p := range paths {
		if files[p], err = os.ReadFile(p); err != nil {
			t.Fatal(err)
		}
	}
	return files
}

// TestInfoWritesNothing: info reports the store and leaves its files
// byte-identical.
func TestInfoWritesNothing(t *testing.T) {
	dir := newStoreOnDisk(t)
	before := readStore(t, dir)
	out := runOK(t, "-image", filepath.Join(dir, "img"), "info")
	if !strings.Contains(out, "format v5, AES-128-GCM, 4+2 striped store,") || strings.Count(out, "  ok\n") != 6 {
		t.Fatalf("info:\n%s", out)
	}
	for p, data := range readStore(t, dir) {
		if !bytes.Equal(data, before[p]) {
			t.Fatalf("info changed %s", filepath.Base(p))
		}
	}
}

// TestInfoRefusesOldFormat: a store whose headers all name format v4 is
// refused with an error that wraps fs.ErrOldFormat, not reported as a
// wrong key or tampering.
func TestInfoRefusesOldFormat(t *testing.T) {
	dir := newStoreOnDisk(t)
	for p, data := range readStore(t, dir) {
		data[7] = 4 // the format byte of the header's magic
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var out bytes.Buffer
	if err := run([]string{"-image", filepath.Join(dir, "img"), "info"}, &out); !errors.Is(err, fs.ErrOldFormat) {
		t.Fatalf("info on a v4 store: %v, want fs.ErrOldFormat", err)
	}
}

// TestUsageErrors: a bad command line is a usage error, and a directory
// without a store is reported as such.
func TestUsageErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run(nil, &out); !errors.Is(err, errUsage) {
		t.Fatalf("no mode: %v, want a usage error", err)
	}
	if err := run([]string{"upgrade", "a", "b"}, &out); !errors.Is(err, errUsage) {
		t.Fatalf("upgrade: %v, want a usage error", err)
	}
	err := run([]string{"-image", filepath.Join(t.TempDir(), "none"), "info"}, &out)
	if err == nil || errors.Is(err, errUsage) {
		t.Fatalf("missing store: %v", err)
	}
}

func runOK(t *testing.T, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatalf("occlum-fs %s: %v", strings.Join(args, " "), err)
	}
	return out.String()
}
