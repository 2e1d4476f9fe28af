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
	if !strings.Contains(out, "format v4, AES-128-GCM,") {
		t.Fatalf("info does not name format v4 and its cipher:\n%s", out)
	}
}

// TestInfoAndUpgradeV3OnDisk: the package's v3 fixture, copied to real
// files, is reported as format v3; upgrade copies it into a v4 store
// beside it that reads block for block the same, leaves the v3 files
// alone, and refuses to overwrite an existing store.
func TestInfoAndUpgradeV3OnDisk(t *testing.T) {
	dir := t.TempDir()
	fixture, err := filepath.Glob("../../internal/fs/testdata/v3/v3.img.s*")
	if err != nil || len(fixture) != 6 {
		t.Fatalf("v3 fixture: %d files (%v)", len(fixture), err)
	}
	for _, p := range fixture {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(p)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	src, dst := filepath.Join(dir, "v3.img"), filepath.Join(dir, "v4.img")
	const key = "v3-fixture"

	out := runOK(t, "-key", key, "-image", src, "info")
	if !strings.Contains(out, "format v3, AES-128-CTR + HMAC-SHA256 (read-only),") {
		t.Fatalf("info on the v3 fixture:\n%s", out)
	}
	out = runOK(t, "-key", key, "upgrade", src, dst)
	if !strings.Contains(out, "(format v3) -> "+dst+" (format v4, AES-128-GCM): 12 blocks copied") {
		t.Fatalf("upgrade printed %q", out)
	}
	if out := runOK(t, "-key", key, "-image", dst, "info"); !strings.Contains(out, "format v4, AES-128-GCM,") {
		t.Fatalf("info on the upgraded store:\n%s", out)
	}
	for _, p := range fixture {
		orig, _ := os.ReadFile(p)
		now, err := os.ReadFile(filepath.Join(dir, filepath.Base(p)))
		if err != nil || !bytes.Equal(orig, now) {
			t.Fatalf("upgrade changed %s", filepath.Base(p))
		}
	}

	disk := hostos.Dir(dir)
	old, err := fs.OpenStore(disk, "v3.img", fs.KeyFromString(key))
	if err != nil {
		t.Fatal(err)
	}
	up, err := fs.OpenStore(disk, "v4.img", fs.KeyFromString(key))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < old.MaxBlocks(); i++ {
		a, err := old.ReadBlock(i)
		if err != nil {
			t.Fatal(err)
		}
		b, err := up.ReadBlock(i)
		if err != nil || !bytes.Equal(a, b) {
			t.Fatalf("block %d differs after upgrade (%v)", i, err)
		}
	}

	var buf bytes.Buffer
	if err := run([]string{"-key", key, "upgrade", src, dst}, &buf); err == nil {
		t.Fatal("upgrade overwrote an existing store")
	}
	if err := run([]string{"upgrade", src}, &buf); !errors.Is(err, errUsage) {
		t.Fatalf("upgrade with one path: %v, want a usage error", err)
	}
}

// TestUsageErrors: a bad command line is a usage error, and a directory
// without a store is reported as such.
func TestUsageErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run(nil, &out); !errors.Is(err, errUsage) {
		t.Fatalf("no mode: %v, want a usage error", err)
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
