package main

import "math/rand/v2"

// Seeded input generators. The seed drives only these bytes; the
// programs under test never see it. PCG is specified by math/rand/v2 to
// produce the same stream on every Go release, so a seed names the same
// inputs everywhere.

func newRNG(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// fishBlock is the granule of fishInput: the chunk size every pipeline
// filter reads with.
const fishBlock = 4096

// fishInput returns size bytes (a multiple of fishBlock) in which every
// 4 KiB block is a seeded permutation of one fixed multiset — each byte
// value exactly 16 times. The fish filters branch on byte values (grep
// drops bytes below 0x20 after od's xor), so random bytes would make the
// retired-instruction count wander with the seed by ~0.1 %; a permuted
// multiset keeps every block's kept-byte count, and with it
// guest_insts_per_op, identical across seeds while the byte order the
// filters see still differs.
func fishInput(seed uint64, size int) []byte {
	rng := newRNG(seed, 0xf154)
	out := make([]byte, size)
	for off := 0; off < size; off += fishBlock {
		blk := out[off : off+fishBlock]
		for i := range blk {
			blk[i] = byte(i)
		}
		rng.Shuffle(len(blk), func(i, j int) { blk[i], blk[j] = blk[j], blk[i] })
	}
	return out
}

// sourceText returns size bytes of seeded printable text, the gcc
// workload's source file. The compiler stages do data-independent
// arithmetic over it, so the content moves only the output bytes.
func sourceText(seed uint64, size int) []byte {
	const alphabet = "abcdefghijklmnopqrstuvwxyz(){};=+-*/<> \n0123456789_"
	rng := newRNG(seed, 0x6cc)
	out := make([]byte, size)
	for i := range out {
		out[i] = alphabet[rng.IntN(len(alphabet))]
	}
	return out
}

// randomBytes returns size seeded bytes (file contents for fs_read and
// the pre-existing file fs_write truncates).
func randomBytes(seed uint64, stream uint64, size int) []byte {
	rng := newRNG(seed, stream)
	out := make([]byte, size)
	for i := 0; i+8 <= size; i += 8 {
		v := rng.Uint64()
		for j := 0; j < 8; j++ {
			out[i+j] = byte(v >> (8 * j))
		}
	}
	for i := size &^ 7; i < size; i++ {
		out[i] = byte(rng.Uint32())
	}
	return out
}
