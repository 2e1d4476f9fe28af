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

// copyFixture copies the fs package's fixture store testdata/<version>
// to real files in a new temp dir, and returns the dir and the files it
// copied from.
func copyFixture(t *testing.T, version string) (dir string, fixture []string) {
	t.Helper()
	dir = t.TempDir()
	fixture, err := filepath.Glob("../../internal/fs/testdata/" + version + "/" + version + ".img.s*")
	if err != nil || len(fixture) != 6 {
		t.Fatalf("%s fixture: %d files (%v)", version, len(fixture), err)
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
	return dir, fixture
}

// assertUnchanged requires the copies in dir of the fixture's files to
// be byte-identical to them.
func assertUnchanged(t *testing.T, dir string, fixture []string, what string) {
	t.Helper()
	for _, p := range fixture {
		orig, _ := os.ReadFile(p)
		now, err := os.ReadFile(filepath.Join(dir, filepath.Base(p)))
		if err != nil || !bytes.Equal(orig, now) {
			t.Fatalf("%s changed %s", what, filepath.Base(p))
		}
	}
}

// TestInfoAndUpgradeV3OnDisk: the package's v3 fixture, copied to real
// files, is reported as format v3; upgrade copies it into a
// current-format store beside it that reads block for block the same,
// leaves the v3 files alone, and refuses to overwrite an existing store.
func TestInfoAndUpgradeV3OnDisk(t *testing.T) {
	dir, fixture := copyFixture(t, "v3")
	src, dst := filepath.Join(dir, "v3.img"), filepath.Join(dir, "new.img")
	const key = "v3-fixture"

	out := runOK(t, "-key", key, "-image", src, "info")
	if !strings.Contains(out, "format v3, AES-128-CTR + HMAC-SHA256 (read-only),") {
		t.Fatalf("info on the v3 fixture:\n%s", out)
	}
	out = runOK(t, "-key", key, "upgrade", src, dst)
	if !strings.Contains(out, "(format v3) -> "+dst+" (format v5, AES-128-GCM): 12 blocks copied") {
		t.Fatalf("upgrade printed %q", out)
	}
	if out := runOK(t, "-key", key, "-image", dst, "info"); !strings.Contains(out, "format v5, AES-128-GCM,") {
		t.Fatalf("info on the upgraded store:\n%s", out)
	}
	assertUnchanged(t, dir, fixture, "upgrade")

	disk := hostos.Dir(dir)
	old, err := fs.OpenStore(disk, "v3.img", fs.KeyFromString(key))
	if err != nil {
		t.Fatal(err)
	}
	up, err := fs.OpenStore(disk, "new.img", fs.KeyFromString(key))
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

// TestInfoV4OnDisk: the package's v4 fixture, copied to real files, is
// reported as format v4 at its committed epoch, and info writes nothing.
// (Its first commit migrates it to v5; fs.TestOpenV4Fixture has that.)
func TestInfoV4OnDisk(t *testing.T) {
	dir, fixture := copyFixture(t, "v4")
	out := runOK(t, "-key", "v4-fixture", "-image", filepath.Join(dir, "v4.img"), "info")
	if !strings.Contains(out, "format v4, AES-128-GCM, 4+2 striped store, epoch 4, 16 blocks max") {
		t.Fatalf("info on the v4 fixture:\n%s", out)
	}
	if n := strings.Count(out, "  ok\n"); n != 6 {
		t.Fatalf("info lists %d healthy files, want 6:\n%s", n, out)
	}
	assertUnchanged(t, dir, fixture, "info")
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
