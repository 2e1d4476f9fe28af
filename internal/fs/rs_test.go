package fs

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

func TestGFFieldAxioms(t *testing.T) {
	// a * inv(a) == 1 for every nonzero a; mul is commutative and
	// distributes over xor on a sample.
	for a := 1; a < 256; a++ {
		if gfMul(byte(a), gfInv(byte(a))) != 1 {
			t.Fatalf("a*inv(a) != 1 for a=%d", a)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		a, b, c := byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256))
		if gfMul(a, b) != gfMul(b, a) {
			t.Fatalf("mul not commutative: %d %d", a, b)
		}
		if gfMul(a, b^c) != gfMul(a, b)^gfMul(a, c) {
			t.Fatalf("mul not distributive: %d %d %d", a, b, c)
		}
	}
}

func TestRSSystematic(t *testing.T) {
	// The top k rows of the encoding matrix must be the identity: data
	// shards pass through unchanged.
	c, err := newRS(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < c.k; i++ {
		for j := 0; j < c.k; j++ {
			want := byte(0)
			if i == j {
				want = 1
			}
			if c.mat[i][j] != want {
				t.Fatalf("mat[%d][%d] = %d, not systematic", i, j, c.mat[i][j])
			}
		}
	}
}

// TestRSAllLossPatterns: for several geometries, every loss pattern of
// up to m shards reconstructs the stripe byte-identically.
func TestRSAllLossPatterns(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, geom := range [][2]int{{2, 1}, {4, 2}, {5, 3}, {8, 4}} {
		k, m := geom[0], geom[1]
		c, err := newRS(k, m)
		if err != nil {
			t.Fatal(err)
		}
		const size = 64
		orig := make([][]byte, k+m)
		for i := range orig {
			orig[i] = make([]byte, size)
			if i < k {
				rng.Read(orig[i])
			}
		}
		c.encode(orig)

		// Enumerate every subset of lost shards with |subset| <= m.
		n := k + m
		for mask := 0; mask < 1<<uint(n); mask++ {
			lost := 0
			for i := 0; i < n; i++ {
				if mask&(1<<uint(i)) != 0 {
					lost++
				}
			}
			if lost == 0 || lost > m {
				continue
			}
			shards := make([][]byte, n)
			present := make([]bool, n)
			for i := 0; i < n; i++ {
				if mask&(1<<uint(i)) == 0 {
					shards[i] = append([]byte(nil), orig[i]...)
					present[i] = true
				}
			}
			if err := c.reconstruct(shards, present); err != nil {
				t.Fatalf("k=%d m=%d mask=%b: %v", k, m, mask, err)
			}
			for i := 0; i < n; i++ {
				if !bytes.Equal(shards[i], orig[i]) {
					t.Fatalf("k=%d m=%d mask=%b: shard %d differs after reconstruct", k, m, mask, i)
				}
			}
		}
	}
}

// TestRSTooManyLost: losing more than m shards must error, not return
// garbage.
func TestRSTooManyLost(t *testing.T) {
	c, _ := newRS(4, 2)
	shards := make([][]byte, 6)
	present := make([]bool, 6)
	for i := 0; i < 3; i++ { // only 3 of the 4 needed
		shards[i] = make([]byte, 16)
		present[i] = true
	}
	if err := c.reconstruct(shards, present); err == nil {
		t.Fatal("reconstruct with k-1 shards succeeded")
	}
}

// TestRSWrongShardNotDetected documents the layer contract: if a
// present shard holds wrong bytes, reconstruction "succeeds" with wrong
// data — the RS layer has no integrity of its own. The MAC table above
// it is what rejects the result (exercised in the pfs batteries).
func TestRSWrongShardNotDetected(t *testing.T) {
	c, _ := newRS(4, 2)
	shards := make([][]byte, 6)
	for i := range shards {
		shards[i] = bytes.Repeat([]byte{byte(i + 1)}, 8)
	}
	c.encode(shards)
	good := append([]byte(nil), shards[0]...)
	shards[0][3] ^= 0xFF // silently wrong data shard
	present := []bool{true, true, true, true, false, false}
	shards[4], shards[5] = nil, nil
	if err := c.reconstruct(shards, present); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(shards[0], good) {
		t.Fatal("test bug: corruption vanished")
	}
}

func TestRSBadGeometry(t *testing.T) {
	for _, geom := range [][2]int{{0, 2}, {4, 0}, {200, 100}} {
		if _, err := newRS(geom[0], geom[1]); err == nil {
			t.Fatalf("newRS(%d,%d) accepted", geom[0], geom[1])
		}
	}
}

// testShards builds k+m shards of size random bytes — the parity shards
// too, since the kernel must overwrite, never accumulate into, its
// outputs. contiguous lays them out as the store does (what
// encodeStripe hands the kernel): views of one buffer, parity behind the
// data; otherwise every shard is its own allocation.
func testShards(rng *rand.Rand, k, m, size int, contiguous bool) [][]byte {
	shards := make([][]byte, k+m)
	buf := make([]byte, (k+m)*size)
	rng.Read(buf)
	for i := range shards {
		if contiguous {
			shards[i] = buf[i*size : (i+1)*size : (i+1)*size]
		} else {
			shards[i] = append([]byte(nil), buf[i*size:(i+1)*size]...)
		}
	}
	return shards
}

// BenchmarkRSEncode sweeps geometries (k not a multiple of 4 and m != 2
// included) in both layouts: a kernel tuned on one shape must not tax
// the others.
func BenchmarkRSEncode(b *testing.B) {
	for _, g := range [][2]int{{1, 1}, {2, 1}, {4, 2}, {5, 3}, {8, 3}, {10, 4}, {4, 9}} {
		k, m := g[0], g[1]
		c, err := newRS(k, m)
		if err != nil {
			b.Fatal(err)
		}
		for _, layout := range []string{"store", "separate"} {
			shards := testShards(rand.New(rand.NewSource(1)), k, m, BlockSize/k, layout == "store")
			b.Run(fmt.Sprintf("%d+%d/%s", k, m, layout), func(b *testing.B) {
				b.SetBytes(int64(k * len(shards[0])))
				for i := 0; i < b.N; i++ {
					c.encode(shards)
				}
			})
		}
	}
}

func BenchmarkRSReconstruct4x2(b *testing.B) {
	c, _ := newRS(4, 2)
	orig := make([][]byte, 6)
	for i := range orig {
		orig[i] = make([]byte, 1024)
		rand.New(rand.NewSource(int64(i))).Read(orig[i])
	}
	c.encode(orig)
	b.SetBytes(4 * 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		shards := make([][]byte, 6)
		present := []bool{false, true, true, true, false, true}
		for j := range orig {
			if present[j] {
				shards[j] = orig[j]
			}
		}
		if err := c.reconstruct(shards, present); err != nil {
			b.Fatal(err)
		}
	}
}
