package fs

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"path"
	"testing"

	"repro/internal/hostos"
	"repro/internal/hostos/hostfault"
)

func newFS(t testing.TB, blocks int) (*EncFS, *hostos.Host, Key) {
	t.Helper()
	h := hostos.New()
	key := KeyFromString("test")
	store, err := CreateStore(h, "img", key, blocks)
	if err != nil {
		t.Fatal(err)
	}
	if err := Mkfs(store); err != nil {
		t.Fatal(err)
	}
	fs, err := Mount(store)
	if err != nil {
		t.Fatal(err)
	}
	return fs, h, key
}

func TestBlockStoreRoundTrip(t *testing.T) {
	h := hostos.New()
	key := KeyFromString("k")
	s, err := CreateStore(h, "dev", key, 16)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("secret block content")
	if err := s.WriteBlock(3, msg); err != nil {
		t.Fatal(err)
	}
	got, err := s.ReadBlock(3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[:len(msg)], msg) {
		t.Fatal("content mismatch")
	}
	// Unwritten blocks read as zeros.
	z, err := s.ReadBlock(5)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range z {
		if b != 0 {
			t.Fatal("fresh block not zero")
		}
	}
}

func TestBlockStoreCiphertextOnHost(t *testing.T) {
	h := hostos.New()
	s, _ := CreateStore(h, "dev", KeyFromString("k"), 4)
	secret := []byte("TOP-SECRET-MARKER")
	if err := s.WriteBlock(0, secret); err != nil {
		t.Fatal(err)
	}
	for _, name := range s.BackingFiles() {
		raw, err := h.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Contains(raw, secret) {
			t.Fatalf("plaintext visible to the untrusted host in %s", name)
		}
	}
}

// TestBlockStoreTamperDetected: corruption beyond the parity's reach
// (more than m shards of one stripe) must fail closed with ErrCorrupt —
// single-shard damage is the repair path's job (tamper_test.go).
func TestBlockStoreTamperDetected(t *testing.T) {
	h := hostos.New()
	key := KeyFromString("k")
	s, _ := CreateStore(h, "dev", key, 4)
	if err := s.WriteBlock(1, []byte("data")); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	// Host flips a bit inside block 1's live stripe cell in m+1 backing
	// files — one more than the erasure code can reconstruct.
	_, m := s.Geometry()
	off := s.cellOff(s.blockStripe(1, s.slot(1))) + 100
	for f := 0; f <= m; f++ {
		if err := hostfault.FlipBit(h, s.BackingFiles()[f], off); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.ReadBlock(1); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("tampered read: err = %v, want ErrCorrupt", err)
	}
}

func TestBlockStoreReplayDetected(t *testing.T) {
	h := hostos.New()
	key := KeyFromString("k")
	s, _ := CreateStore(h, "dev", key, 4)
	_ = s.WriteBlock(1, []byte("version-one"))
	_ = s.Flush()
	old := hostfault.CopyFiles(h, "dev.s*")
	_ = s.WriteBlock(1, []byte("version-two"))
	_ = s.Flush()
	// Host rolls every backing file back to the old version.
	hostfault.PutFiles(h, old)
	if s2, err := OpenStore(h, "dev", key); err == nil {
		// Rolling back everything including the commit records yields a
		// consistent old image — full rollback needs monotonic
		// counters. What must fail is a *partial* replay:
		got, err := s2.ReadBlock(1)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(got, []byte("version-one")) {
			t.Fatal("consistent rollback should yield the old content")
		}
	}
	// Partial replay: restore only the block-data area of every backing
	// file, keep the new commit records and MAC table.
	_ = s.WriteBlock(1, []byte("version-three"))
	_ = s.Flush()
	dataStart := s.cellOff(s.blockStripe(0, 0))
	cur := hostfault.CopyFiles(h, "dev.s*")
	for name, curBytes := range cur {
		if oldBytes, ok := old[name]; ok && len(oldBytes) > dataStart && len(curBytes) > dataStart {
			copy(curBytes[dataStart:], oldBytes[dataStart:])
		}
	}
	hostfault.PutFiles(h, cur)
	s3, err := OpenStore(h, "dev", key)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s3.ReadBlock(1); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("partial replay: err = %v, want ErrCorrupt", err)
	}
}

func TestOpenStoreWrongKey(t *testing.T) {
	h := hostos.New()
	s, _ := CreateStore(h, "dev", KeyFromString("right"), 4)
	_ = s.WriteBlock(0, []byte("x"))
	_ = s.Flush()
	if _, err := OpenStore(h, "dev", KeyFromString("wrong")); err == nil {
		t.Fatal("wrong key must not open the store")
	}
}

func TestFileCreateWriteRead(t *testing.T) {
	fs, _, _ := newFS(t, 256)
	f, err := fs.Open("/hello.txt", ORdWr|OCreate)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("hello encrypted world")
	if _, err := f.WriteAt(msg, 0); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(msg))
	if _, err := f.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, msg) {
		t.Fatalf("read %q", buf)
	}
	if f.Size() != int64(len(msg)) {
		t.Fatalf("size = %d", f.Size())
	}
}

func TestPersistenceAcrossMount(t *testing.T) {
	h := hostos.New()
	key := KeyFromString("persist")
	store, _ := CreateStore(h, "img", key, 256)
	if err := Mkfs(store); err != nil {
		t.Fatal(err)
	}
	fsa, _ := Mount(store)
	f, err := fsa.Open("/data", ORdWr|OCreate)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("durable"), 0); err != nil {
		t.Fatal(err)
	}
	if err := fsa.Sync(); err != nil {
		t.Fatal(err)
	}

	// Remount from host storage only.
	store2, err := OpenStore(h, "img", key)
	if err != nil {
		t.Fatal(err)
	}
	fsb, err := Mount(store2)
	if err != nil {
		t.Fatal(err)
	}
	g, err := fsb.Open("/data", ORdOnly)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 7)
	if _, err := g.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "durable" {
		t.Fatalf("got %q", buf)
	}
}

func TestDirectories(t *testing.T) {
	fs, _, _ := newFS(t, 256)
	if err := fs.Mkdir("/etc"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Mkdir("/etc/app"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Mkdir("/etc"); !errors.Is(err, ErrExist) {
		t.Fatalf("duplicate mkdir: %v", err)
	}
	f, err := fs.Open("/etc/app/conf", ORdWr|OCreate)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("k=v"), 0); err != nil {
		t.Fatal(err)
	}
	ents, err := fs.ReadDir("/etc/app")
	if err != nil || len(ents) != 1 || ents[0].Name != "conf" || ents[0].Size != 3 {
		t.Fatalf("ReadDir = %+v, %v", ents, err)
	}
	st, err := fs.Stat("/etc/app")
	if err != nil || !st.IsDir {
		t.Fatalf("Stat = %+v, %v", st, err)
	}
	if err := fs.Unlink("/etc/app"); !errors.Is(err, ErrNotEmpty) {
		t.Fatalf("unlink non-empty dir: %v", err)
	}
	if err := fs.Unlink("/etc/app/conf"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Unlink("/etc/app"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Stat("/etc/app"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("stat after unlink: %v", err)
	}
}

func TestLargeFileIndirectBlocks(t *testing.T) {
	fs, _, _ := newFS(t, 2048)
	f, err := fs.Open("/big", ORdWr|OCreate)
	if err != nil {
		t.Fatal(err)
	}
	// 600 KiB spans direct + indirect blocks (24 direct = 96 KiB).
	rng := rand.New(rand.NewSource(7))
	data := make([]byte, 600<<10)
	rng.Read(data)
	if n, err := f.WriteAt(data, 0); err != nil || n != len(data) {
		t.Fatalf("write = %d, %v", n, err)
	}
	got := make([]byte, len(data))
	if n, err := f.ReadAt(got, 0); err != nil || n != len(data) {
		t.Fatalf("read = %d, %v", n, err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("large file content mismatch")
	}
}

func TestSparseFileReadsZero(t *testing.T) {
	fs, _, _ := newFS(t, 512)
	f, _ := fs.Open("/sparse", ORdWr|OCreate)
	if _, err := f.WriteAt([]byte{0xAA}, 200000); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	if _, err := f.ReadAt(buf, 100); err != nil {
		t.Fatal(err)
	}
	for _, b := range buf {
		if b != 0 {
			t.Fatal("hole should read as zeros")
		}
	}
}

func TestTruncateFreesBlocks(t *testing.T) {
	fs, _, _ := newFS(t, 128)
	// Fill, delete, and refill — reuse must work, proving blocks are
	// actually freed.
	for round := 0; round < 3; round++ {
		f, err := fs.Open("/tmp", ORdWr|OCreate)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		data := make([]byte, 300<<10) // ~75 blocks of the 128
		if _, err := f.WriteAt(data, 0); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if err := fs.Unlink("/tmp"); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
}

func TestOpenTrunc(t *testing.T) {
	fs, _, _ := newFS(t, 128)
	f, _ := fs.Open("/f", ORdWr|OCreate)
	_, _ = f.WriteAt([]byte("0123456789"), 0)
	g, err := fs.Open("/f", ORdWr|OTrunc)
	if err != nil {
		t.Fatal(err)
	}
	if g.Size() != 0 {
		t.Fatalf("size after trunc = %d", g.Size())
	}
}

func TestReadOnlyHandleRejectsWrites(t *testing.T) {
	fs, _, _ := newFS(t, 128)
	f, _ := fs.Open("/f", ORdWr|OCreate)
	_, _ = f.WriteAt([]byte("x"), 0)
	g, err := fs.Open("/f", ORdOnly)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.WriteAt([]byte("y"), 0); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("write on rdonly: %v", err)
	}
}

// TestEncFSStaleHandle: a handle whose file was unlinked or renamed over
// is dead. Its reads and writes fail with ErrNotExist and never reach the
// file that reuses the inode number; a handle on a renamed file follows
// it. Fsck stays clean: a write through a dead handle allocates nothing.
func TestEncFSStaleHandle(t *testing.T) {
	for _, kill := range []string{"unlink", "rename-over"} {
		t.Run(kill, func(t *testing.T) {
			efs, _, _ := newFS(t, 256)
			old, err := efs.Open("/a", ORdWr|OCreate)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := old.WriteAt(make([]byte, 3*BlockSize), 0); err != nil {
				t.Fatal(err)
			}
			if kill == "unlink" {
				err = efs.Unlink("/a")
			} else {
				var b Node
				if b, err = efs.Open("/b", ORdWr|OCreate); err == nil {
					b.Close()
					err = efs.Rename("/b", "/a")
				}
			}
			if err != nil {
				t.Fatal(err)
			}
			sec, err := efs.Open("/secret", ORdWr|OCreate)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sec.WriteAt([]byte("TOPSECRET"), 0); err != nil {
				t.Fatal(err)
			}
			if sec.(*Regular).ino != old.(*Regular).ino {
				t.Fatalf("/secret took inode %d, not the freed %d: the test no longer reuses an inode",
					sec.(*Regular).ino, old.(*Regular).ino)
			}
			buf := make([]byte, 9)
			if n, err := old.ReadAt(buf, 0); !errors.Is(err, ErrNotExist) || n != 0 {
				t.Fatalf("read through the dead handle: %d bytes %q, %v", n, buf[:n], err)
			}
			if n, err := old.WriteAt([]byte("CLOBBER"), 0); !errors.Is(err, ErrNotExist) || n != 0 {
				t.Fatalf("write through the dead handle: %d, %v", n, err)
			}
			if _, err := old.WriteAt([]byte("x"), 40*BlockSize); !errors.Is(err, ErrNotExist) {
				t.Fatalf("extending write through the dead handle: %v", err)
			}
			if s := old.Size(); s != 0 {
				t.Fatalf("dead handle Size = %d", s)
			}
			if v := old.(Versioned).Version(); v != (FileVersion{}) {
				t.Fatalf("dead handle Version = %+v", v)
			}
			if n, err := sec.ReadAt(buf, 0); err != nil || string(buf[:n]) != "TOPSECRET" {
				t.Fatalf("/secret = %q, %v", buf[:n], err)
			}
			if err := efs.Sync(); err != nil {
				t.Fatal(err)
			}
			if err := efs.Fsck(); err != nil {
				t.Fatal(err)
			}
		})
	}
	t.Run("rename-follows", func(t *testing.T) {
		efs, _, _ := newFS(t, 256)
		h, err := efs.Open("/a", ORdWr|OCreate)
		if err != nil {
			t.Fatal(err)
		}
		if err := efs.Rename("/a", "/b"); err != nil {
			t.Fatal(err)
		}
		if _, err := h.WriteAt([]byte("moved"), 0); err != nil {
			t.Fatal(err)
		}
		if _, err := efs.Stat("/a"); !errors.Is(err, ErrNotExist) {
			t.Fatalf("a write after the rename re-created the old name: %v", err)
		}
		if got := readAll(t, efs, "/b"); string(got) != "moved" {
			t.Fatalf("/b = %q", got)
		}
		if err := efs.Fsck(); err != nil {
			t.Fatal(err)
		}
	})
}

func TestVFSRouting(t *testing.T) {
	fs, _, _ := newFS(t, 128)
	v := NewVFS()
	v.Mount("/", fs)
	v.Mount("/dev", NewDevFS(nil))

	if _, err := v.Open("/dev/null", ORdOnly); err != nil {
		t.Fatal(err)
	}
	f, err := v.Open("/root.txt", ORdWr|OCreate)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("via vfs"), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Stat("/root.txt"); err != nil {
		t.Fatal("file should land on the root filesystem")
	}
	ents, err := v.ReadDir("/dev")
	if err != nil || len(ents) != 4 {
		t.Fatalf("dev entries = %v, %v", ents, err)
	}
}

func TestDevNodes(t *testing.T) {
	var console bytes.Buffer
	d := NewDevFS(&console)

	null, _ := d.Open("/null", ORdWr)
	if n, err := null.WriteAt([]byte("gone"), 0); err != nil || n != 4 {
		t.Fatalf("null write: %d, %v", n, err)
	}
	buf := make([]byte, 4)
	if _, err := null.ReadAt(buf, 0); err == nil {
		t.Fatal("null read should EOF")
	}

	zero, _ := d.Open("/zero", ORdOnly)
	buf = []byte{1, 2, 3, 4}
	if _, err := zero.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 0 || buf[3] != 0 {
		t.Fatal("zero should read zeros")
	}

	ur, _ := d.Open("/urandom", ORdOnly)
	a, b := make([]byte, 16), make([]byte, 16)
	_, _ = ur.ReadAt(a, 0)
	_, _ = ur.ReadAt(b, 0)
	if bytes.Equal(a, b) {
		t.Fatal("urandom repeated itself")
	}

	con, _ := d.Open("/console", OWrOnly)
	_, _ = con.WriteAt([]byte("boot ok"), 0)
	if console.String() != "boot ok" {
		t.Fatalf("console = %q", console.String())
	}

	if _, err := d.Open("/tty99", ORdOnly); !errors.Is(err, ErrNotExist) {
		t.Fatalf("unknown device: %v", err)
	}
}

func TestManyFiles(t *testing.T) {
	fs, _, _ := newFS(t, 1024)
	for i := 0; i < 100; i++ {
		name := fmt.Sprintf("/f%02d", i)
		f, err := fs.Open(name, ORdWr|OCreate)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := f.WriteAt([]byte(name), 0); err != nil {
			t.Fatal(err)
		}
	}
	ents, err := fs.ReadDir("/")
	if err != nil || len(ents) != 100 {
		t.Fatalf("root entries = %d, %v", len(ents), err)
	}
	for i := 0; i < 100; i++ {
		name := fmt.Sprintf("/f%02d", i)
		f, err := fs.Open(name, ORdOnly)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, len(name))
		if _, err := f.ReadAt(buf, 0); err != nil || string(buf) != name {
			t.Fatalf("%s: got %q, %v", name, buf, err)
		}
	}
}

func BenchmarkEncFSSequentialWrite(b *testing.B) {
	fs, _, _ := newFS(b, 4096)
	f, _ := fs.Open("/bench", ORdWr|OCreate)
	buf := make([]byte, 4096)
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.WriteAt(buf, int64(i%1000)*4096); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncFSSequentialRead(b *testing.B) {
	fs, _, _ := newFS(b, 4096)
	f, _ := fs.Open("/bench", ORdWr|OCreate)
	buf := make([]byte, 4096)
	for i := 0; i < 1000; i++ {
		_, _ = f.WriteAt(buf, int64(i)*4096)
	}
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.ReadAt(buf, int64(i%1000)*4096); err != nil {
			b.Fatal(err)
		}
	}
}

// TestCleanAbsMatchesPathClean: the resolvers' fast path returns a path
// unchanged only when path.Clean would, for every string of up to six
// characters over {a, b, /, .}.
func TestCleanAbsMatchesPathClean(t *testing.T) {
	const alphabet = "ab/."
	var walk func(p string)
	walk = func(p string) {
		if got, want := cleanAbs(p), path.Clean("/"+p); got != want {
			t.Fatalf("cleanAbs(%q) = %q, want %q", p, got, want)
		}
		if len(p) == 6 {
			return
		}
		for i := range alphabet {
			walk(p + alphabet[i:i+1])
		}
	}
	walk("")
}
