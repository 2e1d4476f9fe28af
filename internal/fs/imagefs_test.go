package fs

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/hostos"
	"repro/internal/hostos/hostfault"
)

// buildTestImage packs a representative tree: nested dirs, an empty
// file, a one-block file, and a multi-block file with random content.
func buildTestImage(t testing.TB) (files map[string][]byte, blob []byte, root [32]byte) {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	big := make([]byte, 5*BlockSize+123)
	rng.Read(big)
	files = map[string][]byte{
		"/etc/hosts":        []byte("127.0.0.1 localhost\n"),
		"/etc/app/conf":     []byte("key=value"),
		"/bin/tool":         big,
		"/empty":            {},
		"/data/nested/deep": []byte("bottom of the tree"),
	}
	b := NewImageBuilder()
	if err := b.AddDir("/var"); err != nil {
		t.Fatal(err)
	}
	for p, d := range files {
		if err := b.AddFile(p, d); err != nil {
			t.Fatal(err)
		}
	}
	blob, root, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return files, blob, root
}

func mountTestImage(t testing.TB, blob []byte, root [32]byte) *ImageFS {
	t.Helper()
	h := hostos.New()
	h.WriteFile("base.img", blob)
	ifs, err := MountImage(h, "base.img", root)
	if err != nil {
		t.Fatal(err)
	}
	return ifs
}

func TestImageRoundTrip(t *testing.T) {
	files, blob, root := buildTestImage(t)
	ifs := mountTestImage(t, blob, root)
	for p, want := range files {
		n, err := ifs.Open(p, ORdOnly)
		if err != nil {
			t.Fatalf("open %s: %v", p, err)
		}
		if n.Size() != int64(len(want)) {
			t.Fatalf("%s: size %d, want %d", p, n.Size(), len(want))
		}
		got := make([]byte, len(want))
		if rn, err := n.ReadAt(got, 0); err != nil || rn != len(want) {
			t.Fatalf("%s: read %d, %v", p, rn, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: content mismatch", p)
		}
	}
	// Unaligned reads across block boundaries.
	n, _ := ifs.Open("/bin/tool", ORdOnly)
	got := make([]byte, 1000)
	if _, err := n.ReadAt(got, BlockSize-500); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, files["/bin/tool"][BlockSize-500:BlockSize+500]) {
		t.Fatal("unaligned read mismatch")
	}
	// ReadDir + Stat.
	ents, err := ifs.ReadDir("/etc")
	if err != nil {
		t.Fatal(err)
	}
	names := []string{}
	for _, e := range ents {
		names = append(names, e.Name)
	}
	sort.Strings(names)
	if fmt.Sprint(names) != "[app hosts]" {
		t.Fatalf("readdir /etc = %v", names)
	}
	if fi, err := ifs.Stat("/var"); err != nil || !fi.IsDir {
		t.Fatalf("stat /var = %+v, %v", fi, err)
	}
	if _, err := ifs.Stat("/nope"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("stat missing: %v", err)
	}
}

func TestImageIsReadOnly(t *testing.T) {
	_, blob, root := buildTestImage(t)
	ifs := mountTestImage(t, blob, root)
	if _, err := ifs.Open("/etc/hosts", ORdWr); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("writable open: %v", err)
	}
	if _, err := ifs.Open("/new", OCreate|OWrOnly); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("create: %v", err)
	}
	if err := ifs.Mkdir("/d"); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("mkdir: %v", err)
	}
	if err := ifs.Unlink("/etc/hosts"); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("unlink: %v", err)
	}
	n, _ := ifs.Open("/etc/hosts", ORdOnly)
	if _, err := n.WriteAt([]byte("x"), 0); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("node write: %v", err)
	}
}

func TestImageWrongRootRejected(t *testing.T) {
	_, blob, root := buildTestImage(t)
	h := hostos.New()
	h.WriteFile("base.img", blob)
	bad := root
	bad[7] ^= 1
	if _, err := MountImage(h, "base.img", bad); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("wrong root: %v", err)
	}
}

// readEverything exercises every file and directory of the mounted
// image, returning the first error.
func readEverything(ifs *ImageFS, files map[string][]byte) error {
	for p, want := range files {
		n, err := ifs.Open(p, ORdOnly)
		if err != nil {
			return err
		}
		got := make([]byte, len(want))
		if _, err := n.ReadAt(got, 0); err != nil {
			return err
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("content of %s silently corrupted", p)
		}
	}
	for _, d := range []string{"/", "/etc", "/etc/app", "/bin", "/data", "/data/nested", "/var"} {
		if _, err := ifs.ReadDir(d); err != nil {
			return err
		}
	}
	return nil
}

// TestImageTamperAnyBit flips one bit at sampled offsets across the
// whole blob — superblock, inode table, data extents and the Merkle
// node region. A flip anywhere in the content-block region must fail
// closed (ErrCorrupt/ErrBadKey at mount or read). A flip in the stored
// Merkle nodes either fails closed or is provably harmless: path
// memoization can make a redundant stored node dead, in which case
// every read must still return the exact original bytes. Silently
// serving wrong content is the one forbidden outcome everywhere.
func TestImageTamperAnyBit(t *testing.T) {
	files, blob, root := buildTestImage(t)
	blockRegion := int(binary.LittleEndian.Uint32(blob[8:])) * BlockSize
	step := 41 // prime stride: hits every region including the tree tail
	var detected, harmless int
	for off := 0; off < len(blob); off += step {
		h := hostos.New()
		h.WriteFile("base.img", blob)
		if err := hostfault.FlipBit(h, "base.img", off); err != nil {
			t.Fatal(err)
		}
		ifs, err := MountImage(h, "base.img", root)
		if err == nil {
			err = readEverything(ifs, files)
		}
		switch {
		case err == nil:
			// readEverything compared every byte against the original:
			// the flip was never consulted. Only legal for redundant
			// stored tree nodes.
			if off < blockRegion {
				t.Fatalf("bit flip at content offset %d went undetected", off)
			}
			harmless++
		case errors.Is(err, ErrCorrupt) || errors.Is(err, ErrBadKey):
			detected++
		default:
			t.Fatalf("offset %d: unexpected error class: %v", off, err)
		}
	}
	if detected == 0 {
		t.Fatal("no flips detected at all")
	}
	t.Logf("%d flips detected, %d harmless (redundant tree nodes); blob %d bytes, content region %d",
		detected, harmless, len(blob), blockRegion)
}

// TestImageTruncated cuts the backing file at assorted lengths. A cut
// into the content-block region must fail closed; a cut that only loses
// redundant tree-node bytes must either fail closed or still serve
// every original byte exactly.
func TestImageTruncated(t *testing.T) {
	files, blob, root := buildTestImage(t)
	blockRegion := int(binary.LittleEndian.Uint32(blob[8:])) * BlockSize
	for _, cut := range []int{0, 7, BlockSize - 1, BlockSize, len(blob) / 2,
		blockRegion - 1, blockRegion, len(blob) - 33, len(blob) - 1} {
		h := hostos.New()
		h.WriteFile("base.img", blob[:cut])
		ifs, err := MountImage(h, "base.img", root)
		if err == nil {
			err = readEverything(ifs, files)
		}
		if err == nil && cut < blockRegion {
			t.Fatalf("truncation to %d bytes (inside content region) went undetected", cut)
		}
	}
}

// TestImageReadAheadAndVerifyOnce checks the lazy verification
// contract: a sequential read verifies each block once (with the
// read-ahead doing most fetches), and a warm re-read hashes nothing.
func TestImageReadAheadAndVerifyOnce(t *testing.T) {
	files, blob, root := buildTestImage(t)
	ifs := mountTestImage(t, blob, root)
	want := files["/bin/tool"]

	before := Stats()
	n, err := ifs.Open("/bin/tool", ORdOnly)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(want))
	if _, err := n.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	cold := Stats().Sub(before)
	if cold.VerifiedBlocks == 0 {
		t.Fatal("cold read verified nothing")
	}
	if cold.ReadAheads == 0 {
		t.Fatal("sequential cold read triggered no read-ahead")
	}

	before = Stats()
	if _, err := n.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	warm := Stats().Sub(before)
	if warm.VerifiedBlocks != 0 {
		t.Fatalf("warm re-read re-verified %d blocks", warm.VerifiedBlocks)
	}
	if warm.VerifyHits == 0 {
		t.Fatal("warm re-read recorded no cache hits")
	}
	if !bytes.Equal(got, want) {
		t.Fatal("content mismatch")
	}
}

func TestImageRootRecompute(t *testing.T) {
	_, blob, root := buildTestImage(t)
	got, err := ImageRoot(blob)
	if err != nil {
		t.Fatal(err)
	}
	if got != root {
		t.Fatal("ImageRoot disagrees with Build")
	}
}
