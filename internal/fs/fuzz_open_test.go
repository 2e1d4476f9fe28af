package fs

import (
	"bytes"
	"errors"
	"sync"
	"testing"

	"repro/internal/hostos"
	"repro/internal/hostos/hostfault"
)

// openFuzzStore is the committed 16-block 4+2 store FuzzOpenStore edits:
// its files, and the epoch it commits.
var (
	openFuzzOnce  sync.Once
	openFuzzFiles map[string][]byte
	openFuzzEpoch uint64
	openFuzzKey   = KeyFromString("open-fuzz")
)

func openFuzzSnapshot(tb testing.TB) (map[string][]byte, uint64) {
	openFuzzOnce.Do(func() {
		h := hostos.New()
		s, err := CreateStore(h, "a", openFuzzKey, 16)
		if err != nil {
			tb.Fatal(err)
		}
		for i := 0; i < 16; i++ {
			if err := s.WriteBlock(i, blockFill(i, 1)); err != nil {
				tb.Fatal(err)
			}
		}
		if err := s.Flush(); err != nil {
			tb.Fatal(err)
		}
		openFuzzFiles, openFuzzEpoch = hostfault.CopyFiles(h, "a.s*"), s.Epoch()
	})
	return openFuzzFiles, openFuzzEpoch
}

// FuzzOpenStore hands the host the unauthenticated front of every shard
// file: each three fuzz bytes (file, offset, value) set one byte below
// shardDataStart — a header field or a commit record. Whatever results,
// OpenStoreAt under the committed epoch must not panic and must either
// fail with ErrBadKey, ErrCorrupt or ErrOldFormat, or open a store
// whose every block reads back the committed bytes. When at most m
// files' headers were edited, a store that opens is 4+2; when, besides,
// no record byte was, it must open.
func FuzzOpenStore(f *testing.F) {
	f.Add([]byte{0, 10, 1})                                             // a.s0's m: 2 → 1
	f.Add([]byte{0, 7, 3})                                              // a.s0's version: 5 → 3
	f.Add([]byte{1, 8, 2, 2, 8, 2, 3, 8, 2})                            // k = 2 in three files
	f.Add([]byte{0, 7, 4, 1, 7, 4, 2, 7, 4, 3, 7, 4, 4, 7, 4, 5, 7, 4}) // every file v4
	f.Add([]byte{0, fileHeaderSize + commitRecordSize + 50, 0xFF})      // a record's root

	f.Fuzz(func(t *testing.T, edits []byte) {
		files, epoch := openFuzzSnapshot(t)
		h := hostos.New()
		hostfault.PutFiles(h, files)
		headers := map[int]bool{}
		recordEdited := false
		for ; len(edits) >= 3; edits = edits[3:] {
			file, off := int(edits[0])%6, int(edits[1])%shardDataStart
			name := shardFile("a", file)
			if err := h.WriteFileAt(name, off, edits[2:3]); err != nil {
				t.Fatal(err)
			}
			if off < fileHeaderSize {
				headers[file] = true
			} else {
				recordEdited = true
			}
		}

		s, err := OpenStoreAt(h, "a", openFuzzKey, epoch)
		if err != nil {
			if !errors.Is(err, ErrBadKey) && !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrOldFormat) {
				t.Fatalf("open: untyped error %v", err)
			}
			if len(headers) <= 2 && !recordEdited {
				t.Fatalf("open with %d headers edited and every record intact: %v", len(headers), err)
			}
			return
		}
		if k, m := s.Geometry(); len(headers) <= 2 && (k != 4 || m != 2 || s.MaxBlocks() != 16) {
			t.Fatalf("%d headers edited: opened as %d+%d with %d blocks, want 4+2 with 16", len(headers), k, m, s.MaxBlocks())
		}
		for i := 0; i < s.MaxBlocks(); i++ {
			if got, err := s.ReadBlock(i); err != nil || !bytes.Equal(got, blockFill(i, 1)) {
				t.Fatalf("block %d does not read back the committed bytes (%v)", i, err)
			}
		}
	})
}
