package fs

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/hostos"
	"repro/internal/hostos/hostfault"
)

// newUnion builds the LibOS root mount shape: a fresh EncFS upper over
// a packed image lower.
func newUnion(t testing.TB) (*UnionFS, map[string][]byte) {
	t.Helper()
	files, blob, root := buildTestImage(t)
	h := hostos.New()
	h.WriteFile("base.img", blob)
	lower, err := MountImage(h, "base.img", root)
	if err != nil {
		t.Fatal(err)
	}
	store, err := CreateStore(h, "enc.img", KeyFromString("u"), 2048)
	if err != nil {
		t.Fatal(err)
	}
	if err := Mkfs(store); err != nil {
		t.Fatal(err)
	}
	upper, err := Mount(store)
	if err != nil {
		t.Fatal(err)
	}
	return NewUnionFS(upper, lower), files
}

func readAll(t *testing.T, f FileSystem, p string) []byte {
	t.Helper()
	n, err := f.Open(p, ORdOnly)
	if err != nil {
		t.Fatalf("open %s: %v", p, err)
	}
	defer n.Close()
	buf := make([]byte, n.Size())
	if _, err := n.ReadAt(buf, 0); err != nil {
		t.Fatalf("read %s: %v", p, err)
	}
	return buf
}

func names(ents []FileInfo) []string {
	var out []string
	for _, e := range ents {
		out = append(out, e.Name)
	}
	sort.Strings(out)
	return out
}

func TestUnionReadThrough(t *testing.T) {
	u, files := newUnion(t)
	for p, want := range files {
		if got := readAll(t, u, p); !bytes.Equal(got, want) {
			t.Fatalf("%s: content mismatch through union", p)
		}
	}
	if fi, err := u.Stat("/etc"); err != nil || !fi.IsDir {
		t.Fatalf("stat /etc: %+v, %v", fi, err)
	}
}

// TestUnionCopyUpOnWritableOpen: a read-only open of an image file
// never copies up; a writable open copies up at once, preserving the
// content, and no later write or open copies again.
func TestUnionCopyUpOnWritableOpen(t *testing.T) {
	u, files := newUnion(t)
	before := Stats()
	r, err := u.Open("/etc/hosts", ORdOnly)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	if _, err := r.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if d := Stats().Sub(before); d.CopyUps != 0 {
		t.Fatalf("a read-only open copied up (%d)", d.CopyUps)
	}
	n, err := u.Open("/etc/hosts", ORdWr)
	if err != nil {
		t.Fatal(err)
	}
	if d := Stats().Sub(before); d.CopyUps != 1 {
		t.Fatalf("copy-ups after a writable open = %d, want 1", d.CopyUps)
	}
	if got := readAll(t, u, "/etc/hosts"); !bytes.Equal(got, files["/etc/hosts"]) {
		t.Fatalf("copy-up changed the content: %q", got)
	}
	if _, err := n.WriteAt([]byte("10.0.0.1"), 0); err != nil {
		t.Fatal(err)
	}
	want := append([]byte("10.0.0.1"), files["/etc/hosts"][8:]...)
	if got := readAll(t, u, "/etc/hosts"); !bytes.Equal(got, want) {
		t.Fatalf("after copy-up: %q, want %q", got, want)
	}
	// Later writes and writable opens find the upper file.
	if _, err := n.WriteAt([]byte("x"), 0); err != nil {
		t.Fatal(err)
	}
	m, err := u.Open("/etc/hosts", ORdWr)
	if err != nil {
		t.Fatal(err)
	}
	m.Close()
	if d := Stats().Sub(before); d.CopyUps != 1 {
		t.Fatalf("copied up again (%d)", d.CopyUps)
	}
}

func TestUnionCopyUpTruncSkipsData(t *testing.T) {
	u, _ := newUnion(t)
	n, err := u.Open("/bin/tool", OWrOnly|OTrunc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.WriteAt([]byte("tiny"), 0); err != nil {
		t.Fatal(err)
	}
	if got := readAll(t, u, "/bin/tool"); string(got) != "tiny" {
		t.Fatalf("after trunc copy-up: %d bytes", len(got))
	}
}

func TestUnionTwoHandlesSeeOneCopyUp(t *testing.T) {
	u, _ := newUnion(t)
	a, err := u.Open("/etc/app/conf", ORdWr)
	if err != nil {
		t.Fatal(err)
	}
	b, err := u.Open("/etc/app/conf", ORdWr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.WriteAt([]byte("A"), 0); err != nil {
		t.Fatal(err)
	}
	// b must observe a's copy-up, not resurrect lower content over it.
	if _, err := b.WriteAt([]byte("B"), 1); err != nil {
		t.Fatal(err)
	}
	got := readAll(t, u, "/etc/app/conf")
	if string(got[:2]) != "AB" {
		t.Fatalf("handles diverged: %q", got)
	}
}

func TestUnionWhiteoutUnlink(t *testing.T) {
	u, _ := newUnion(t)
	before := Stats()
	if err := u.Unlink("/etc/hosts"); err != nil {
		t.Fatal(err)
	}
	if d := Stats().Sub(before); d.Whiteouts != 1 {
		t.Fatalf("whiteouts = %d", d.Whiteouts)
	}
	if _, err := u.Stat("/etc/hosts"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("stat after unlink: %v", err)
	}
	if _, err := u.Open("/etc/hosts", ORdOnly); !errors.Is(err, ErrNotExist) {
		t.Fatalf("open after unlink: %v", err)
	}
	// The whiteout marker must not leak into listings.
	ents, err := u.ReadDir("/etc")
	if err != nil {
		t.Fatal(err)
	}
	if got := names(ents); len(got) != 1 || got[0] != "app" {
		t.Fatalf("readdir /etc after unlink = %v", got)
	}
	// Re-create over the whiteout.
	n, err := u.Open("/etc/hosts", OCreate|OWrOnly)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.WriteAt([]byte("fresh"), 0); err != nil {
		t.Fatal(err)
	}
	if got := readAll(t, u, "/etc/hosts"); string(got) != "fresh" {
		t.Fatalf("recreated content: %q", got)
	}
}

func TestUnionUnlinkCopiedUpFile(t *testing.T) {
	u, _ := newUnion(t)
	n, _ := u.Open("/etc/hosts", ORdWr)
	if _, err := n.WriteAt([]byte("mod"), 0); err != nil {
		t.Fatal(err)
	}
	// Now present in both layers: unlink must delete upper AND whiteout
	// lower, or the image copy resurfaces.
	if err := u.Unlink("/etc/hosts"); err != nil {
		t.Fatal(err)
	}
	if _, err := u.Stat("/etc/hosts"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("image copy resurfaced: %v", err)
	}
}

func TestUnionMergedReadDir(t *testing.T) {
	u, _ := newUnion(t)
	// New upper file next to lower files.
	n, err := u.Open("/etc/extra", OCreate|OWrOnly)
	if err != nil {
		t.Fatal(err)
	}
	n.Close()
	ents, err := u.ReadDir("/etc")
	if err != nil {
		t.Fatal(err)
	}
	if got := names(ents); !equalStrings(got, []string{"app", "extra", "hosts"}) {
		t.Fatalf("merged readdir = %v", got)
	}
	// Shadowing: copy-up must not duplicate the name.
	w, _ := u.Open("/etc/hosts", ORdWr)
	if _, err := w.WriteAt([]byte("z"), 0); err != nil {
		t.Fatal(err)
	}
	ents, _ = u.ReadDir("/etc")
	if got := names(ents); !equalStrings(got, []string{"app", "extra", "hosts"}) {
		t.Fatalf("readdir after copy-up = %v", got)
	}
}

// TestUnionLongNames: a name of 55–58 bytes fits an EncFS dirent but its
// whiteout name does not, so the union must not take the whiteout probe's
// ErrNameTooLong for the name's own. Under "/", a directory in both
// layers, such a name is created, stat'ed, listed, renamed and unlinked
// like any other; a 59-byte name is ErrNameTooLong.
func TestUnionLongNames(t *testing.T) {
	u, _ := newUnion(t)
	long := "/" + strings.Repeat("n", maxNameLen)
	n, err := u.Open(long, OCreate|OWrOnly)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if _, err := n.WriteAt([]byte("long"), 0); err != nil {
		t.Fatal(err)
	}
	n.Close()
	if fi, err := u.Stat(long); err != nil || fi.Size != 4 {
		t.Fatalf("stat: %+v, %v", fi, err)
	}
	if got := readAll(t, u, long); string(got) != "long" {
		t.Fatalf("read: %q", got)
	}
	ents, err := u.ReadDir("/")
	if err != nil {
		t.Fatal(err)
	}
	if got := names(ents); !slices.Contains(got, long[1:]) {
		t.Fatalf("readdir / = %v, want the long name in it", got)
	}
	if err := u.Rename(long, "/short"); err != nil {
		t.Fatalf("rename from: %v", err)
	}
	if err := u.Rename("/short", long); err != nil {
		t.Fatalf("rename to: %v", err)
	}
	if err := u.Unlink(long); err != nil {
		t.Fatalf("unlink: %v", err)
	}
	if _, err := u.Stat(long); !errors.Is(err, ErrNotExist) {
		t.Fatalf("stat after unlink: %v", err)
	}
	if err := u.Mkdir(long); err != nil {
		t.Fatalf("mkdir: %v", err)
	}
	tooLong := long + "n"
	if _, err := u.Open(tooLong, OCreate|OWrOnly); !errors.Is(err, ErrNameTooLong) {
		t.Fatalf("create of a %d-byte name: %v, want ErrNameTooLong", len(tooLong)-1, err)
	}
	if _, err := u.Stat(tooLong); !errors.Is(err, ErrNameTooLong) {
		t.Fatalf("stat of a %d-byte name: %v, want ErrNameTooLong", len(tooLong)-1, err)
	}
}

func TestUnionMkdirAndNestedCreate(t *testing.T) {
	u, _ := newUnion(t)
	// Create below a lower-only directory chain: parents materialize in
	// the upper layer without disturbing the merge.
	n, err := u.Open("/data/nested/new.txt", OCreate|OWrOnly)
	if err != nil {
		t.Fatal(err)
	}
	n.Close()
	ents, err := u.ReadDir("/data/nested")
	if err != nil {
		t.Fatal(err)
	}
	if got := names(ents); !equalStrings(got, []string{"deep", "new.txt"}) {
		t.Fatalf("readdir /data/nested = %v", got)
	}
	if err := u.Mkdir("/data/nested"); !errors.Is(err, ErrExist) {
		t.Fatalf("mkdir over merged dir: %v", err)
	}
	if err := u.Mkdir("/newdir/sub"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("mkdir with missing parent: %v", err)
	}
}

func TestUnionOpaqueDirAfterWhiteout(t *testing.T) {
	u, _ := newUnion(t)
	// Empty the lower dir /etc/app, remove it, then re-create it: the
	// old image children must not resurface.
	if err := u.Unlink("/etc/app/conf"); err != nil {
		t.Fatal(err)
	}
	if err := u.Unlink("/etc/app"); err != nil {
		t.Fatal(err)
	}
	if err := u.Mkdir("/etc/app"); err != nil {
		t.Fatal(err)
	}
	ents, err := u.ReadDir("/etc/app")
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("resurrected lower children: %v", names(ents))
	}
	if _, err := u.Stat("/etc/app/conf"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("stat through opaque dir: %v", err)
	}
}

func TestUnionUnlinkNonEmptyDir(t *testing.T) {
	u, _ := newUnion(t)
	if err := u.Unlink("/etc"); !errors.Is(err, ErrNotEmpty) {
		t.Fatalf("unlink non-empty union dir: %v", err)
	}
}

func TestUnionRenameFile(t *testing.T) {
	u, files := newUnion(t)
	// Lower-only file: rename copies up then whiteouts the old name.
	if err := u.Rename("/etc/hosts", "/etc/hosts.bak"); err != nil {
		t.Fatal(err)
	}
	if _, err := u.Stat("/etc/hosts"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("old name survives rename: %v", err)
	}
	if got := readAll(t, u, "/etc/hosts.bak"); !bytes.Equal(got, files["/etc/hosts"]) {
		t.Fatal("renamed content mismatch")
	}
	// Cross-dir rename with overwrite of a lower file.
	if err := u.Rename("/etc/hosts.bak", "/data/nested/deep"); err != nil {
		t.Fatal(err)
	}
	if got := readAll(t, u, "/data/nested/deep"); !bytes.Equal(got, files["/etc/hosts"]) {
		t.Fatal("overwriting rename content mismatch")
	}
	ents, _ := u.ReadDir("/etc")
	if got := names(ents); !equalStrings(got, []string{"app"}) {
		t.Fatalf("readdir /etc after renames = %v", got)
	}
}

func TestUnionRenameDirs(t *testing.T) {
	u, _ := newUnion(t)
	// Upper-only dir renames fine.
	if err := u.Mkdir("/work"); err != nil {
		t.Fatal(err)
	}
	n, _ := u.Open("/work/f", OCreate|OWrOnly)
	n.Close()
	if err := u.Rename("/work", "/done"); err != nil {
		t.Fatal(err)
	}
	if _, err := u.Stat("/done/f"); err != nil {
		t.Fatalf("renamed dir lost children: %v", err)
	}
	// Directories living in the image layer cannot be renamed.
	if err := u.Rename("/etc", "/etc2"); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("rename of image dir: %v", err)
	}
	if err := u.Rename("/done", "/done/sub"); !errors.Is(err, ErrInvalid) {
		t.Fatalf("rename into own subtree: %v", err)
	}
}

func TestUnionReservedNames(t *testing.T) {
	u, _ := newUnion(t)
	if _, err := u.Open("/.wh.secret", OCreate|OWrOnly); !errors.Is(err, ErrReservedName) {
		t.Fatalf("create reserved name: %v", err)
	}
	if _, err := u.Stat("/etc/.wh.hosts"); !errors.Is(err, ErrReservedName) {
		t.Fatalf("stat reserved name: %v", err)
	}
	if err := u.Mkdir("/.wh.d"); !errors.Is(err, ErrReservedName) {
		t.Fatalf("mkdir reserved name: %v", err)
	}
}

func TestUnionUpperPersistsAcrossRemount(t *testing.T) {
	// Copy-up and whiteouts live in the encrypted upper layer, so they
	// must survive an enclave restart (remount of both layers).
	files, blob, root := buildTestImage(t)
	h := hostos.New()
	h.WriteFile("base.img", blob)
	key := KeyFromString("persist")
	store, _ := CreateStore(h, "enc.img", key, 2048)
	if err := Mkfs(store); err != nil {
		t.Fatal(err)
	}
	upper, _ := Mount(store)
	lower, err := MountImage(h, "base.img", root)
	if err != nil {
		t.Fatal(err)
	}
	u := NewUnionFS(upper, lower)
	n, err := u.Open("/etc/hosts", ORdWr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.WriteAt([]byte("CHANGED!"), 0); err != nil {
		t.Fatal(err)
	}
	if err := u.Unlink("/bin/tool"); err != nil {
		t.Fatal(err)
	}
	if err := upper.Sync(); err != nil {
		t.Fatal(err)
	}

	store2, err := OpenStore(h, "enc.img", key)
	if err != nil {
		t.Fatal(err)
	}
	upper2, err := Mount(store2)
	if err != nil {
		t.Fatal(err)
	}
	lower2, err := MountImage(h, "base.img", root)
	if err != nil {
		t.Fatal(err)
	}
	u2 := NewUnionFS(upper2, lower2)
	want := append([]byte("CHANGED!"), files["/etc/hosts"][8:]...)
	if got := readAll(t, u2, "/etc/hosts"); !bytes.Equal(got, want) {
		t.Fatalf("copy-up lost across remount: %q", got)
	}
	if _, err := u2.Stat("/bin/tool"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("whiteout lost across remount: %v", err)
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestUnionConcurrentAccess hammers the union from several goroutines
// (reads, copy-up writes, unlinks, creates, readdirs) — run under
// -race in CI, it guards the copy-up/whiteout critical sections.
func TestUnionConcurrentAccess(t *testing.T) {
	u, _ := newUnion(t)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				switch (g + i) % 4 {
				case 0: // copy-up write race on a shared lower file
					if n, err := u.Open("/bin/tool", ORdWr); err == nil {
						n.WriteAt([]byte{byte(g)}, int64(g))
						n.Close()
					}
				case 1: // reads through both layers
					if n, err := u.Open("/etc/app/conf", ORdOnly); err == nil {
						buf := make([]byte, 4)
						n.ReadAt(buf, 0)
						n.Close()
					}
					u.ReadDir("/etc")
				case 2: // private file churn
					p := fmt.Sprintf("/data/g%d", g)
					if n, err := u.Open(p, OCreate|ORdWr); err == nil {
						n.WriteAt([]byte("x"), 0)
						n.Close()
					}
					u.Unlink(p)
				case 3:
					u.Stat("/data/nested/deep")
					u.ReadDir("/")
				}
			}
		}(g)
	}
	wg.Wait()
	// The shared file must have copied up exactly once and still be
	// readable and block-consistent.
	if _, err := u.Stat("/bin/tool"); err != nil {
		t.Fatal(err)
	}
	n, err := u.Open("/bin/tool", ORdOnly)
	if err != nil {
		t.Fatal(err)
	}
	if n.Size() == 0 {
		t.Fatal("copy-up lost the file content")
	}
}

func TestUnionOpenCreateOnLowerOnlyFile(t *testing.T) {
	// open(O_RDONLY|O_CREAT) of a file that exists only in the image
	// layer is an ordinary open — it must succeed without copying up
	// (the read-only lower layer rejects OCreate, so the union has to
	// strip it when delegating).
	u, files := newUnion(t)
	before := Stats()
	n, err := u.Open("/etc/hosts", ORdOnly|OCreate)
	if err != nil {
		t.Fatalf("O_CREAT open of existing lower file: %v", err)
	}
	got := make([]byte, len(files["/etc/hosts"]))
	if _, err := n.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, files["/etc/hosts"]) {
		t.Fatal("content mismatch")
	}
	if d := Stats().Sub(before); d.CopyUps != 0 {
		t.Fatalf("plain open copied up (%d)", d.CopyUps)
	}
}

// failFS wraps the upper layer and fails selected operations — the
// whiteout-atomicity tests use it to model an out-of-space encrypted
// layer at the worst possible moment.
type failFS struct {
	FileSystem
	failMkdir bool
	failOpen  string // path whose Open fails
}

func (f *failFS) Mkdir(p string) error {
	if f.failMkdir {
		return ErrFull
	}
	return f.FileSystem.Mkdir(p)
}

func (f *failFS) Open(p string, flags OpenFlag) (Node, error) {
	if f.failOpen != "" && p == f.failOpen {
		return nil, ErrFull
	}
	return f.FileSystem.Open(p, flags)
}

func (f *failFS) Rename(oldp, newp string) error {
	return f.FileSystem.(Renamer).Rename(oldp, newp)
}

// TestUnionWhiteoutSurvivesFailedMkdir: a Mkdir over a whited-out image
// directory that fails (upper layer full) must leave the whiteout in
// place — the deleted image contents must not resurface.
func TestUnionWhiteoutSurvivesFailedMkdir(t *testing.T) {
	files, blob, root := buildTestImage(t)
	_ = files
	h := hostos.New()
	h.WriteFile("base.img", blob)
	lower, err := MountImage(h, "base.img", root)
	if err != nil {
		t.Fatal(err)
	}
	store, _ := CreateStore(h, "enc.img", KeyFromString("w"), 2048)
	if err := Mkfs(store); err != nil {
		t.Fatal(err)
	}
	enc, _ := Mount(store)
	upper := &failFS{FileSystem: enc}
	u := NewUnionFS(upper, lower)

	if err := u.Unlink("/etc/app/conf"); err != nil {
		t.Fatal(err)
	}
	if err := u.Unlink("/etc/app"); err != nil {
		t.Fatal(err)
	}
	upper.failMkdir = true
	if err := u.Mkdir("/etc/app"); err == nil {
		t.Fatal("injected Mkdir failure did not surface")
	}
	// The whiteout must still hide the deleted image directory.
	if _, err := u.Stat("/etc/app"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("failed mkdir resurrected the deleted dir: %v", err)
	}
	if _, err := u.Stat("/etc/app/conf"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("failed mkdir resurrected deleted contents: %v", err)
	}
	// After the layer recovers, the mkdir works and stays opaque.
	upper.failMkdir = false
	if err := u.Mkdir("/etc/app"); err != nil {
		t.Fatal(err)
	}
	if _, err := u.Stat("/etc/app/conf"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("recreated dir leaked old contents: %v", err)
	}
}

// TestUnionWhiteoutSurvivesFailedCreate: same property for the
// open(O_CREAT) path over a whited-out file.
func TestUnionWhiteoutSurvivesFailedCreate(t *testing.T) {
	files, blob, root := buildTestImage(t)
	h := hostos.New()
	h.WriteFile("base.img", blob)
	lower, err := MountImage(h, "base.img", root)
	if err != nil {
		t.Fatal(err)
	}
	store, _ := CreateStore(h, "enc.img", KeyFromString("w2"), 2048)
	if err := Mkfs(store); err != nil {
		t.Fatal(err)
	}
	enc, _ := Mount(store)
	upper := &failFS{FileSystem: enc}
	u := NewUnionFS(upper, lower)

	if err := u.Unlink("/etc/hosts"); err != nil {
		t.Fatal(err)
	}
	upper.failOpen = "/etc/hosts"
	if _, err := u.Open("/etc/hosts", OCreate|OWrOnly); err == nil {
		t.Fatal("injected create failure did not surface")
	}
	if _, err := u.Stat("/etc/hosts"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("failed create resurrected the deleted file: %v", err)
	}
	upper.failOpen = ""
	n, err := u.Open("/etc/hosts", OCreate|OWrOnly)
	if err != nil {
		t.Fatal(err)
	}
	n.Close()
	if fi, err := u.Stat("/etc/hosts"); err != nil || fi.Size != 0 {
		t.Fatalf("recreate after recovery: %+v, %v (image content %d bytes must stay hidden)",
			fi, err, len(files["/etc/hosts"]))
	}
}

// TestUnionWriteAfterUnlinkDoesNotResurrect: the open-then-unlink
// pattern. A writable handle opened before the unlink must not
// re-publish the deleted name, and after the name is re-created it must
// not reach the new file: it is dead (ErrNotExist) for reads and writes.
// A read-only handle on the image file keeps serving the immutable lower
// bytes.
func TestUnionWriteAfterUnlinkDoesNotResurrect(t *testing.T) {
	u, files := newUnion(t)
	r, err := u.Open("/etc/hosts", ORdOnly)
	if err != nil {
		t.Fatal(err)
	}
	n, err := u.Open("/etc/hosts", ORdWr)
	if err != nil {
		t.Fatal(err)
	}
	if err := u.Unlink("/etc/hosts"); err != nil {
		t.Fatal(err)
	}
	if _, err := n.WriteAt([]byte("zombie"), 0); !errors.Is(err, ErrNotExist) {
		t.Fatalf("write through unlinked handle: %v", err)
	}
	if _, err := u.Stat("/etc/hosts"); !errors.Is(err, ErrNotExist) {
		t.Fatal("a write through the unlinked handle re-published the deleted name")
	}
	buf := make([]byte, 4)
	if _, err := n.ReadAt(buf, 0); !errors.Is(err, ErrNotExist) {
		t.Fatalf("read through unlinked handle: %v", err)
	}
	if _, err := r.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, files["/etc/hosts"][:4]) {
		t.Fatal("read-only lower handle diverged after the unlink")
	}
	// A fresh create over the whiteout gets a NEW file; the old handle
	// must not write into it.
	c, err := u.Open("/etc/hosts", OCreate|OWrOnly)
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	if _, err := n.WriteAt([]byte("Z"), 0); !errors.Is(err, ErrNotExist) {
		t.Fatalf("write through unlinked handle after re-create: %v", err)
	}
	if got := readAll(t, u, "/etc/hosts"); len(got) != 0 {
		t.Fatalf("old handle leaked into recreated file: %q", got)
	}
	if err := u.upper.(*EncFS).Fsck(); err != nil {
		t.Fatal(err)
	}
}

// TestUnionUpperCorruptionFailsClosed: a tampered encrypted upper layer
// must surface ErrCorrupt through the union — never silently fall back
// to the pristine image content (that would be an undetected rollback
// of user data).
func TestUnionUpperCorruptionFailsClosed(t *testing.T) {
	files, blob, root := buildTestImage(t)
	h := hostos.New()
	h.WriteFile("base.img", blob)
	key := KeyFromString("uc")
	store, _ := CreateStore(h, "enc.img", key, 2048)
	if err := Mkfs(store); err != nil {
		t.Fatal(err)
	}
	upper, _ := Mount(store)
	lower, err := MountImage(h, "base.img", root)
	if err != nil {
		t.Fatal(err)
	}
	u := NewUnionFS(upper, lower)
	n, err := u.Open("/etc/hosts", ORdWr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.WriteAt([]byte("USERDATA"), 0); err != nil {
		t.Fatal(err)
	}
	if err := upper.Sync(); err != nil {
		t.Fatal(err)
	}

	// Host tampers the whole encrypted block-data area in EVERY backing
	// file (beyond any parity's reach), then the enclave "restarts"
	// (remounts both layers from host bytes).
	dataStart := store.cellOff(store.blockStripe(0, 0))
	for _, name := range store.BackingFiles() {
		for off := dataStart; off < h.FileSize(name); off += 512 {
			_ = hostfault.FlipBit(h, name, off)
		}
	}
	store2, err := OpenStore(h, "enc.img", key)
	if err != nil {
		t.Fatal(err) // header+table untouched; per-block MACs catch reads
	}
	upper2, err := Mount(store2)
	if err == nil {
		lower2, lerr := MountImage(h, "base.img", root)
		if lerr != nil {
			t.Fatal(lerr)
		}
		u2 := NewUnionFS(upper2, lower2)
		fi, serr := u2.Stat("/etc/hosts")
		if serr == nil {
			// Absolutely must not be the image's original bytes.
			if fi.Size == int64(len(files["/etc/hosts"])) {
				t.Fatal("corrupt upper layer fell back to stale image content")
			}
			t.Fatalf("stat of corrupt upper succeeded: %+v", fi)
		}
		if !errors.Is(serr, ErrCorrupt) {
			t.Fatalf("error class = %v, want ErrCorrupt", serr)
		}
	}
}

// TestVersionByPathMatchesNode: VFS.Version names, without opening, the
// version of the node a read-only Open returns, on the image layer, the
// encrypted layer and across a copy-up, which moves the answer upward.
// A filesystem without versions answers ok=false; a missing path errors.
func TestVersionByPathMatchesNode(t *testing.T) {
	u, _ := newUnion(t)
	v := NewVFS()
	v.Mount("/", u)
	v.Mount("/dev", NewDevFS(io.Discard))
	check := func(p string) FileVersion {
		t.Helper()
		got, ok, err := v.Version(p)
		if err != nil || !ok {
			t.Fatalf("Version(%s) = %v, %v", p, ok, err)
		}
		n, err := v.Open(p, ORdOnly)
		if err != nil {
			t.Fatal(err)
		}
		if want := n.(Versioned).Version(); got != want {
			t.Fatalf("Version(%s) = %+v, the opened node has %+v", p, got, want)
		}
		return got
	}
	lower := check("/etc/hosts")
	n, err := v.Open("/etc/hosts", ORdWr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.WriteAt([]byte("x"), 0); err != nil {
		t.Fatal(err)
	}
	upper := check("/etc/hosts")
	if upper.FS == lower.FS {
		t.Fatalf("copy-up left the version on the image layer: %+v", upper)
	}
	if _, err := n.WriteAt([]byte("y"), 1); err != nil {
		t.Fatal(err)
	}
	if again := check("/etc/hosts"); again == upper {
		t.Fatalf("a write left the version at %+v", again)
	}
	if _, ok, err := v.Version("/dev/null"); ok || err != nil {
		t.Fatalf("Version(/dev/null) = %v, %v; want not versioned", ok, err)
	}
	if _, _, err := v.Version("/etc/absent"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("Version of a missing path: %v", err)
	}
}
