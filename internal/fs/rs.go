package fs

import "fmt"

// This file implements the Reed–Solomon erasure code beneath the
// BlockStore's striped layout (pfs.go): GF(2^8) arithmetic and a
// systematic encoding matrix, so each stripe of k data shards gains m
// parity shards and survives the loss of any m of the k+m.
//
// The code is the *durability* layer only. It reconstructs bytes; it
// never authenticates them. Every reconstructed stripe is re-verified
// against the MAC table before a single byte leaves the BlockStore, so
// parity can repair accidental corruption but cannot launder tampered
// data into "recovered" data.

// GF(2^8) with the AES-standard reduction polynomial x^8+x^4+x^3+x+1
// (0x11D with the implicit x^8).
const gfPoly = 0x11D

var (
	gfExp [512]byte // gfExp[i] = g^i, doubled so products skip a mod 255
	gfLog [256]byte
)

func init() {
	x := 1
	for i := 0; i < 255; i++ {
		gfExp[i] = byte(x)
		gfLog[x] = byte(i)
		x <<= 1
		if x&0x100 != 0 {
			x ^= gfPoly
		}
	}
	for i := 255; i < 512; i++ {
		gfExp[i] = gfExp[i-255]
	}
}

func gfMul(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return gfExp[int(gfLog[a])+int(gfLog[b])]
}

func gfInv(a byte) byte {
	if a == 0 {
		panic("fs: rs: inverse of zero")
	}
	return gfExp[255-int(gfLog[a])]
}

// mulTable is the 256-entry product table of one coefficient:
// mulTable(c)[x] = c·x.
func mulTable(c byte) (t [256]byte) {
	for x := 1; x < 256; x++ {
		t[x] = gfMul(c, byte(x))
	}
	return t
}

// mulAddSlice: dst[i] ^= c * src[i], with c given as its product table —
// the inner loop of encode/decode.
func mulAddSlice(t *[256]byte, src, dst []byte) {
	dst = dst[:len(src)]
	for i, s := range src {
		dst[i] ^= t[s]
	}
}

// rsCode is one (k data + m parity) erasure code instance.
type rsCode struct {
	k, m int
	// mat is the (k+m)×k systematic encoding matrix: the top k rows are
	// the identity (data shards pass through), the bottom m rows
	// generate parity. Derived from a Vandermonde matrix V by
	// normalizing with V_top⁻¹, which preserves the MDS property: every
	// k×k submatrix stays invertible, so ANY k surviving shards
	// reconstruct the stripe.
	mat [][]byte
	// parity[p][d] is the product table of mat[k+p][d], built once so
	// encode pays one lookup per byte and no per-call setup.
	parity [][][256]byte
}

func newRS(k, m int) (*rsCode, error) {
	if k < 1 || m < 1 || k+m > 255 {
		return nil, fmt.Errorf("fs: rs: bad geometry k=%d m=%d", k, m)
	}
	// Vandermonde rows over distinct points g^0..g^(k+m-1).
	v := make([][]byte, k+m)
	for i := range v {
		v[i] = make([]byte, k)
		for j := 0; j < k; j++ {
			v[i][j] = gfPow(gfExp[i], j)
		}
	}
	top := make([][]byte, k)
	for i := range top {
		top[i] = append([]byte(nil), v[i][:k]...)
	}
	inv, err := gfMatInvert(top)
	if err != nil {
		return nil, err
	}
	mat := gfMatMul(v, inv)
	parity := make([][][256]byte, m)
	for p := range parity {
		parity[p] = make([][256]byte, k)
		for d := range parity[p] {
			parity[p][d] = mulTable(mat[k+p][d])
		}
	}
	return &rsCode{k: k, m: m, mat: mat, parity: parity}, nil
}

func gfPow(a byte, n int) byte {
	if n == 0 {
		return 1
	}
	if a == 0 {
		return 0
	}
	return gfExp[(int(gfLog[a])*n)%255]
}

// gfMatMul returns a×b for a (r×n) and b (n×n).
func gfMatMul(a, b [][]byte) [][]byte {
	r, n := len(a), len(b)
	out := make([][]byte, r)
	for i := 0; i < r; i++ {
		out[i] = make([]byte, n)
		for j := 0; j < n; j++ {
			var acc byte
			for t := 0; t < n; t++ {
				acc ^= gfMul(a[i][t], b[t][j])
			}
			out[i][j] = acc
		}
	}
	return out
}

// gfMatInvert inverts a square matrix by Gauss–Jordan elimination.
func gfMatInvert(m [][]byte) ([][]byte, error) {
	n := len(m)
	// Augment [m | I].
	work := make([][]byte, n)
	for i := range work {
		work[i] = make([]byte, 2*n)
		copy(work[i], m[i])
		work[i][n+i] = 1
	}
	for col := 0; col < n; col++ {
		// Find a pivot.
		pivot := -1
		for r := col; r < n; r++ {
			if work[r][col] != 0 {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			return nil, fmt.Errorf("fs: rs: singular matrix")
		}
		work[col], work[pivot] = work[pivot], work[col]
		// Normalize the pivot row.
		if inv := gfInv(work[col][col]); inv != 1 {
			for j := 0; j < 2*n; j++ {
				work[col][j] = gfMul(work[col][j], inv)
			}
		}
		// Eliminate the column everywhere else.
		for r := 0; r < n; r++ {
			if r == col || work[r][col] == 0 {
				continue
			}
			c := work[r][col]
			for j := 0; j < 2*n; j++ {
				work[r][j] ^= gfMul(c, work[col][j])
			}
		}
	}
	out := make([][]byte, n)
	for i := range out {
		out[i] = append([]byte(nil), work[i][n:]...)
	}
	return out, nil
}

// encode fills the m parity shards from the k data shards. shards must
// hold k+m equal-length slices; the first k are inputs, the last m are
// overwritten.
func (c *rsCode) encode(shards [][]byte) {
	for p := 0; p < c.m; p++ {
		out := shards[c.k+p]
		clear(out)
		for d := 0; d < c.k; d++ {
			mulAddSlice(&c.parity[p][d], shards[d], out)
		}
	}
}

// reconstruct rebuilds every shard whose present flag is false, from
// any k present shards. shards[i] may be nil when !present[i]; all
// present shards must share one length. On success every slot of
// shards is populated and internally consistent (parity re-encoded
// from the reconstructed data).
func (c *rsCode) reconstruct(shards [][]byte, present []bool) error {
	nPresent := 0
	size := 0
	for i, ok := range present {
		if ok {
			nPresent++
			size = len(shards[i])
		}
	}
	if nPresent < c.k {
		return fmt.Errorf("fs: rs: only %d of %d shards present, need %d", nPresent, c.k+c.m, c.k)
	}
	if nPresent == c.k+c.m {
		return nil
	}

	// Select the first k present shards and the matching rows of the
	// encoding matrix; invert to get data back.
	rows := make([][]byte, 0, c.k)
	sub := make([][]byte, 0, c.k)
	for i := 0; i < c.k+c.m && len(rows) < c.k; i++ {
		if present[i] {
			rows = append(rows, shards[i])
			sub = append(sub, append([]byte(nil), c.mat[i]...))
		}
	}
	dec, err := gfMatInvert(sub)
	if err != nil {
		return err // cannot happen for an MDS matrix; defensive
	}
	// Rebuild missing data shards.
	for d := 0; d < c.k; d++ {
		if present[d] {
			continue
		}
		out := make([]byte, size)
		for t := 0; t < c.k; t++ {
			if dec[d][t] == 0 {
				continue
			}
			tbl := mulTable(dec[d][t])
			mulAddSlice(&tbl, rows[t], out)
		}
		shards[d] = out
	}
	// Rebuild missing parity from the (now complete) data shards.
	for p := 0; p < c.m; p++ {
		if present[c.k+p] {
			continue
		}
		out := make([]byte, size)
		for d := 0; d < c.k; d++ {
			mulAddSlice(&c.parity[p][d], shards[d], out)
		}
		shards[c.k+p] = out
	}
	return nil
}
