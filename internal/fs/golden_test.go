package fs

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	randv2 "math/rand/v2"
	"testing"

	"repro/internal/hostos"
)

// The RS hashes in this file were pinned on the commit before the
// allocation-free stripe path (PR 19's tree): they hold the RS kernel's
// output, whatever the data path does to get there. The store hashes
// pin on-disk format v5, the only format the store reads, written with
// a seeded nonce source: if one changes, the format changed, and that
// is a new format number.

// rsGoldenDigest hashes encode's output and the full shard set after
// every single- and double-erasure reconstruct, over a seeded corpus.
func rsGoldenDigest(t *testing.T, k, m, size int) string {
	t.Helper()
	c, err := newRS(k, m)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(int64(1000*k + m)))
	sum := sha256.New()
	for round := 0; round < 8; round++ {
		orig := make([][]byte, k+m)
		for i := range orig {
			orig[i] = make([]byte, size)
			if i < k {
				rng.Read(orig[i])
			}
		}
		c.encode(orig)
		for _, sh := range orig {
			sum.Write(sh)
		}
		erase := func(lost ...int) {
			shards := make([][]byte, k+m)
			present := make([]bool, k+m)
			for i := range shards {
				shards[i] = append([]byte(nil), orig[i]...)
				present[i] = true
			}
			for _, l := range lost {
				shards[l], present[l] = nil, false
			}
			if err := c.reconstruct(shards, present); err != nil {
				t.Fatalf("k=%d m=%d lost %v: %v", k, m, lost, err)
			}
			for _, sh := range shards {
				sum.Write(sh)
			}
		}
		erase() // nothing missing: the early return must leave every shard alone
		for a := 0; a < k+m; a++ {
			erase(a)
			if m < 2 {
				continue
			}
			for b := a + 1; b < k+m; b++ {
				erase(a, b)
			}
		}
	}
	return hex.EncodeToString(sum.Sum(nil))
}

// TestRSGoldenBytes holds the hashes on every leaf (eachLeaf).
func TestRSGoldenBytes(t *testing.T) { eachLeaf(t, testRSGoldenBytes) }

func testRSGoldenBytes(t *testing.T) {
	for _, g := range []struct {
		k, m, size int
		want       string
	}{
		{4, 2, 1024, "b0f00851770f66df5b5b370b81a92fd4810b5fa0905f4c24330cb57916f6f199"},
		{1, 1, 4096, "4c52bc3665c36139475ef1095cc65774dcd929c3c45c244bce058936e1d9b4aa"},
		{8, 3, 512, "6a5a687fd8f8c1bf8d0b0c122697e019a6aa942fc95cd69d43d42f83968558e3"},
		// m > 8, pinned on the commit before the one-pass kernel.
		{4, 9, 256, "47dfa9164d55d5fa8f10db37b16ea742fd61822d59e144cf9de61a9a774715e5"},
	} {
		if got := rsGoldenDigest(t, g.k, g.m, g.size); got != g.want {
			t.Errorf("rs %d+%d: digest %s, parent commit produced %s", g.k, g.m, got, g.want)
		}
	}
}

// storeGoldenDigest runs a fixed script against a fresh store and hashes
// every shard file: create, write (full and short blocks), flush,
// rewrite, flush. The nonces come from a fixed seed, so the bytes repeat.
func storeGoldenDigest(t *testing.T, k, m int) string {
	t.Helper()
	h := hostos.New()
	s, err := CreateStoreGeom(h, "golden.img", KeyFromString("golden"), 64, k, m)
	if err != nil {
		t.Fatal(err)
	}
	s.nonces = randv2.NewChaCha8([32]byte{'g', 'o', 'l', 'd', 'e', 'n'})
	rng := rand.New(rand.NewSource(42))
	write := func(i, n int) {
		data := make([]byte, n)
		rng.Read(data)
		if err := s.WriteBlock(i, data); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 40; i++ {
		write(i, BlockSize)
	}
	write(41, 100) // short data is zero-padded
	write(63, BlockSize)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i += 3 {
		write(i, BlockSize)
	}
	write(5, BlockSize) // same-epoch rewrite lands on the same slot
	write(41, 0)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	sum := sha256.New()
	for _, name := range s.BackingFiles() {
		data, err := h.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(sum, "%s:%d:", name, len(data))
		sum.Write(data)
	}
	return hex.EncodeToString(sum.Sum(nil))
}

// TestStoreGoldenImage holds the hashes on every leaf (eachLeaf).
func TestStoreGoldenImage(t *testing.T) { eachLeaf(t, testStoreGoldenImage) }

func testStoreGoldenImage(t *testing.T) {
	for _, g := range []struct {
		k, m int
		want string
	}{
		{4, 2, "a2d9122c621d4c32df9c94db2eda767a7be69fcb5c9400f062e6bcde241f0178"},
		{1, 1, "7c8f043a31ea75c6f1866a3ed9da631d6b47e1657fdf2c308e5a443a97598399"},
	} {
		if got := storeGoldenDigest(t, g.k, g.m); got != g.want {
			t.Errorf("store %d+%d: shard files hash to %s, format v5 pinned %s", g.k, g.m, got, g.want)
		}
	}
}
