package fs

import (
	"bytes"
	"math/rand"
	"testing"
)

// The one-pass kernel against the definition: out[r][i] = Σ_d
// mat[r][d]·in[d][i], one gfMul at a time.

// refMul is the scalar definition the kernel must agree with.
func refMul(mat [][]byte, in [][]byte) [][]byte {
	out := make([][]byte, len(mat))
	for r, row := range mat {
		out[r] = make([]byte, len(in[0]))
		for d, c := range row {
			for i, x := range in[d] {
				out[r][i] ^= gfMul(c, x)
			}
		}
	}
	return out
}

func TestRSKernelMatchesScalarDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, k := range []int{1, 2, 3, 4, 5, 8, 10} {
		for _, m := range []int{1, 2, 3, 8, 9, 12} {
			c, err := newRS(k, m)
			if err != nil {
				t.Fatal(err)
			}
			for _, size := range []int{1, 7, 64, 1024, 4096} {
				for _, contiguous := range []bool{true, false} {
					shards := testShards(rng, k, m, size, contiguous)
					want := refMul(c.mat[k:], shards[:k])
					data := make([][]byte, k)
					for d := range data {
						data[d] = append([]byte(nil), shards[d]...)
					}
					c.encode(shards)
					for d := range data {
						if !bytes.Equal(shards[d], data[d]) {
							t.Fatalf("%d+%d size %d contiguous=%v: encode wrote data shard %d", k, m, size, contiguous, d)
						}
					}
					for p := range want {
						if !bytes.Equal(shards[k+p], want[p]) {
							t.Fatalf("%d+%d size %d contiguous=%v: parity %d differs from the scalar definition", k, m, size, contiguous, p)
						}
					}
				}
			}
		}
	}
}

// erasurePatterns calls f with every present-mask over n shards that
// loses between 1 and m of them.
func erasurePatterns(n, m int, f func(present []bool)) {
	for mask := 1; mask < 1<<uint(n); mask++ {
		if popcount(mask) > m {
			continue
		}
		present := make([]bool, n)
		for i := range present {
			present[i] = mask&(1<<uint(i)) == 0
		}
		f(present)
	}
}

// TestRSKernelEveryErasurePattern: for the small geometries, every loss
// of up to m shards, in both layouts and at sizes that are not a
// multiple of anything, reconstructs byte-identically and leaves the
// survivors alone. Consecutive patterns differ, so the one-entry decode
// memo is replaced at every step; each pattern then runs a second time
// on fresh garbage to go through the memo.
func TestRSKernelEveryErasurePattern(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, g := range [][2]int{{1, 1}, {1, 3}, {2, 1}, {2, 3}, {3, 2}, {4, 2}, {5, 3}, {3, 8}} {
		k, m := g[0], g[1]
		c, err := newRS(k, m)
		if err != nil {
			t.Fatal(err)
		}
		for _, size := range []int{1, 7, 64} {
			for _, contiguous := range []bool{true, false} {
				orig := testShards(rng, k, m, size, contiguous)
				c.encode(orig)
				erasurePatterns(k+m, m, func(present []bool) {
					for round := 0; round < 2; round++ {
						shards := make([][]byte, k+m)
						for i, ok := range present {
							if ok {
								shards[i] = append([]byte(nil), orig[i]...)
							}
						}
						if err := c.reconstruct(shards, present); err != nil {
							t.Fatalf("%d+%d size %d present %v: %v", k, m, size, present, err)
						}
						for i := range shards {
							if !bytes.Equal(shards[i], orig[i]) {
								t.Fatalf("%d+%d size %d present %v round %d: shard %d differs", k, m, size, present, round, i)
							}
						}
					}
				})
			}
		}
	}
}

// TestRSReconstructReadsSurvivorsInPlace: reconstruct may be handed
// views it must not write (tryDecode passes the cells it read), and the
// shards it rebuilds must not alias one another's spare capacity.
func TestRSReconstructReadsSurvivorsInPlace(t *testing.T) {
	c, _ := newRS(4, 2)
	orig := testShards(rand.New(rand.NewSource(31)), 4, 2, 128, true)
	c.encode(orig)
	shards := make([][]byte, 6)
	copy(shards, orig)
	present := []bool{false, true, true, false, true, true}
	shards[0], shards[3] = nil, nil
	if err := c.reconstruct(shards, present); err != nil {
		t.Fatal(err)
	}
	for i, ok := range present {
		if ok && &shards[i][0] != &orig[i][0] {
			t.Fatalf("present shard %d was replaced", i)
		}
	}
	rebuilt := append([]byte(nil), shards[3]...)
	_ = append(shards[0], 0xEE) // must reallocate, not run into shard 3
	if !bytes.Equal(shards[3], rebuilt) || !bytes.Equal(shards[3], orig[3]) {
		t.Fatal("rebuilt shards share capacity")
	}
}

// FuzzRSKernel drives the kernel with an arbitrary coefficient matrix
// (zeros and repeats included — nothing says it is an MDS code's) and
// then a real code through encode and one erasure pattern.
func FuzzRSKernel(f *testing.F) {
	f.Add(uint8(4), uint8(2), uint16(1024), uint64(0b100001), []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(uint8(1), uint8(1), uint16(4096), uint64(1), []byte{0})
	f.Add(uint8(2), uint8(1), uint16(7), uint64(2), []byte{0xFF, 0x00})
	f.Add(uint8(5), uint8(3), uint16(819), uint64(0b10010001), []byte("packed products"))
	f.Add(uint8(10), uint8(4), uint16(409), uint64(0b11000000000011), []byte{9, 9, 9})
	f.Add(uint8(4), uint8(9), uint16(33), uint64(0x1FF0), []byte{0x1D, 0x01})
	f.Add(uint8(3), uint8(12), uint16(1), uint64(0x7FF8), []byte{0x80})
	f.Add(uint8(7), uint8(2), uint16(65), uint64(0), []byte{})
	f.Fuzz(func(t *testing.T, kb, mb uint8, sizeb uint16, lose uint64, seed []byte) {
		k, m, size := 1+int(kb)%12, 1+int(mb)%12, 1+int(sizeb)%4200
		var s int64
		for _, b := range seed {
			s = s*131 + int64(b)
		}
		rng := rand.New(rand.NewSource(s))

		// Any matrix: the first coefficients come from the fuzzer.
		mat := make([][]byte, m)
		for r := range mat {
			mat[r] = make([]byte, k)
			rng.Read(mat[r])
			for d := range mat[r] {
				if i := r*k + d; i < len(seed) {
					mat[r][d] = seed[i]
				}
			}
		}
		shards := testShards(rng, k, m, size, len(seed)%2 == 0)
		want := refMul(mat, shards[:k])
		newGFTables(mat).mul(shards[:k], shards[k:])
		for r := range want {
			if !bytes.Equal(shards[k+r], want[r]) {
				t.Fatalf("%d×%d size %d: row %d differs from the scalar definition", m, k, size, r)
			}
		}

		// The code: encode, lose up to m shards, get them back.
		c, err := newRS(k, m)
		if err != nil {
			t.Fatal(err)
		}
		c.encode(shards)
		got := make([][]byte, k+m)
		present := make([]bool, k+m)
		lost := 0
		for i := range got {
			if lose&(1<<uint(i)) != 0 && lost < m {
				lost++
				continue
			}
			got[i], present[i] = shards[i], true
		}
		if err := c.reconstruct(got, present); err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if !bytes.Equal(got[i], shards[i]) {
				t.Fatalf("%d+%d size %d present %v: shard %d differs", k, m, size, present, i)
			}
		}
	})
}
