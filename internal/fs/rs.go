package fs

import (
	"fmt"
	"slices"
)

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

// pairTab is the product table of one matrix column against a pair of
// matrix rows: pairTab[x] holds c0·x in bits 0–7 and c1·x in bits 8–15,
// so one lookup of an input byte yields that byte's contribution to both
// output rows. (A lone last row leaves the high byte zero.)
type pairTab [256]uint16

// gfTables is a coefficient matrix compiled for mul: per pair of rows,
// the columns in blocks of four pairTabs. The first block takes the
// cols mod 4 columns that do not fill a block (zero tables pad three
// columns up to four), so every later block is full.
type gfTables struct {
	rows  int
	first int            // columns in each pair's first block, 1..4
	pairs [][][4]pairTab // pairs[r/2][block]
}

// newGFTables compiles mat (rows × cols coefficients).
func newGFTables(mat [][]byte) *gfTables {
	rows, cols := len(mat), len(mat[0])
	nb := (cols + 3) / 4
	first := cols - 4*(nb-1)
	t := &gfTables{rows: rows, first: first, pairs: make([][][4]pairTab, (rows+1)/2)}
	for p := range t.pairs {
		t.pairs[p] = make([][4]pairTab, nb)
	}
	for r, row := range mat {
		for d, c := range row {
			b, j := 0, d
			if d >= first {
				b, j = 1+(d-first)/4, (d-first)%4
			}
			tab := &t.pairs[r/2][b][j]
			for x := 1; x < 256; x++ {
				tab[x] |= uint16(gfMul(c, byte(x))) << (8 * uint(r&1))
			}
		}
	}
	return t
}

// mul is the one multiply kernel: out[r] = Σ_d mat[r][d]·in[d] over
// GF(2^8), for equal-length shards. A pass folds up to four inputs into
// up to two outputs: each input byte is read once per pass, the products
// are XOR-combined in a register and each output byte is stored once.
// With cols ≤ 4 and rows ≤ 2 (the store's 4+2) one pass is the whole
// multiply — no clear, no read-modify-write; more rows are more passes
// over the same inputs, and columns past the first block XOR into the
// outputs the first block stored.
//
// The loops live in leaf functions of fixed arity because that is what
// the compiler keeps in registers (DESIGN.md, "RS kernel", has the
// measurements): one loop with the arities behind in-loop switches
// spills every pointer, a run-time shift to serve any row pair from a
// wider table costs 16–34 %, and an accumulator array between a gather
// and a scatter loop lost to the byte-at-a-time kernel on 1+1 and 2+1.
func (t *gfTables) mul(in, out [][]byte) {
	last := in[0] // a padded fourth column multiplies any shard by zero
	if t.first == 4 {
		last = in[3]
	}
	for r := 0; r < t.rows; r += 2 {
		blk := t.pairs[r/2]
		if r+1 < t.rows {
			switch t.first {
			case 1:
				set1x2(&blk[0], in[0], out[r], out[r+1])
			case 2:
				set2x2(&blk[0], in[0], in[1], out[r], out[r+1])
			default:
				set4x2(&blk[0], in[0], in[1], in[2], last, out[r], out[r+1])
			}
			for b, d := 1, t.first; b < len(blk); b, d = b+1, d+4 {
				xor4x2(&blk[b], in[d], in[d+1], in[d+2], in[d+3], out[r], out[r+1])
			}
			continue
		}
		switch t.first { // a lone last row
		case 1:
			set1x1(&blk[0], in[0], out[r])
		case 2:
			set2x1(&blk[0], in[0], in[1], out[r])
		default:
			set4x1(&blk[0], in[0], in[1], in[2], last, out[r])
		}
		for b, d := 1, t.first; b < len(blk); b, d = b+1, d+4 {
			xor4x1(&blk[b], in[d], in[d+1], in[d+2], in[d+3], out[r])
		}
	}
}

// The leaves. Taking each table's address up front hoists the nil check
// out of the loop, and reslicing to one length drops the bounds checks.
// noinline: the small ones fit the inliner's budget, and inlined into mul
// beside seven other loops their index spills to the stack (1+1 then
// loses to the kernel this replaced).

//go:noinline
func set1x1(t *[4]pairTab, s0, o0 []byte) {
	t0, o0 := &t[0], o0[:len(s0)]
	for i, x := range s0 {
		o0[i] = byte(t0[x])
	}
}

//go:noinline
func set1x2(t *[4]pairTab, s0, o0, o1 []byte) {
	t0, o0, o1 := &t[0], o0[:len(s0)], o1[:len(s0)]
	for i, x := range s0 {
		a := t0[x]
		o0[i], o1[i] = byte(a), byte(a>>8)
	}
}

//go:noinline
func set2x1(t *[4]pairTab, s0, s1, o0 []byte) {
	t0, t1 := &t[0], &t[1]
	s1, o0 = s1[:len(s0)], o0[:len(s0)]
	for i, x := range s0 {
		o0[i] = byte(t0[x] ^ t1[s1[i]])
	}
}

//go:noinline
func set2x2(t *[4]pairTab, s0, s1, o0, o1 []byte) {
	t0, t1 := &t[0], &t[1]
	s1, o0, o1 = s1[:len(s0)], o0[:len(s0)], o1[:len(s0)]
	for i, x := range s0 {
		a := t0[x] ^ t1[s1[i]]
		o0[i], o1[i] = byte(a), byte(a>>8)
	}
}

//go:noinline
func set4x1(t *[4]pairTab, s0, s1, s2, s3, o0 []byte) {
	t0, t1, t2, t3 := &t[0], &t[1], &t[2], &t[3]
	s1, s2, s3, o0 = s1[:len(s0)], s2[:len(s0)], s3[:len(s0)], o0[:len(s0)]
	for i, x := range s0 {
		o0[i] = byte(t0[x] ^ t1[s1[i]] ^ t2[s2[i]] ^ t3[s3[i]])
	}
}

//go:noinline
func set4x2(t *[4]pairTab, s0, s1, s2, s3, o0, o1 []byte) {
	t0, t1, t2, t3 := &t[0], &t[1], &t[2], &t[3]
	s1, s2, s3, o0, o1 = s1[:len(s0)], s2[:len(s0)], s3[:len(s0)], o0[:len(s0)], o1[:len(s0)]
	for i, x := range s0 {
		a := t0[x] ^ t1[s1[i]] ^ t2[s2[i]] ^ t3[s3[i]]
		o0[i], o1[i] = byte(a), byte(a>>8)
	}
}

//go:noinline
func xor4x1(t *[4]pairTab, s0, s1, s2, s3, o0 []byte) {
	t0, t1, t2, t3 := &t[0], &t[1], &t[2], &t[3]
	s1, s2, s3, o0 = s1[:len(s0)], s2[:len(s0)], s3[:len(s0)], o0[:len(s0)]
	for i, x := range s0 {
		o0[i] ^= byte(t0[x] ^ t1[s1[i]] ^ t2[s2[i]] ^ t3[s3[i]])
	}
}

//go:noinline
func xor4x2(t *[4]pairTab, s0, s1, s2, s3, o0, o1 []byte) {
	t0, t1, t2, t3 := &t[0], &t[1], &t[2], &t[3]
	s1, s2, s3, o0, o1 = s1[:len(s0)], s2[:len(s0)], s3[:len(s0)], o0[:len(s0)], o1[:len(s0)]
	for i, x := range s0 {
		a := t0[x] ^ t1[s1[i]] ^ t2[s2[i]] ^ t3[s3[i]]
		o0[i] ^= byte(a)
		o1[i] ^= byte(a >> 8)
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
	// enc is the m parity rows of mat compiled for mul.
	enc *gfTables
	// dec is the decode compiled for the last erasure pattern seen. A
	// dropped or rotting backing file repeats one pattern for every
	// stripe, so one entry is the whole cache. It makes reconstruct (not
	// encode) unsafe for concurrent use; the store calls both under its
	// lock.
	dec *decodePlan
}

// decodePlan rebuilds one erasure pattern: every lost shard, data or
// parity, is a fixed linear combination of the k survivors chosen.
type decodePlan struct {
	present []bool
	from    []int // the k surviving shards read
	lost    []int // the shards rebuilt, in tab's row order
	tab     *gfTables
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
	return &rsCode{k: k, m: m, mat: mat, enc: newGFTables(mat[k:])}, nil
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
	c.enc.mul(shards[:c.k], shards[c.k:])
}

// reconstruct rebuilds every shard whose present flag is false, from
// any k present shards. shards[i] may be nil when !present[i]; all
// present shards must share one length and are only read. On success
// every slot of shards is populated and internally consistent.
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
	if c.dec == nil || !slices.Equal(c.dec.present, present) {
		plan, err := c.planDecode(present)
		if err != nil {
			return err
		}
		c.dec = plan
	}
	in := make([][]byte, c.k)
	for t, i := range c.dec.from {
		in[t] = shards[i]
	}
	out := make([][]byte, len(c.dec.lost))
	buf := make([]byte, len(out)*size)
	for r, i := range c.dec.lost {
		out[r] = buf[r*size : (r+1)*size : (r+1)*size]
		shards[i] = out[r]
	}
	c.dec.tab.mul(in, out)
	return nil
}

// planDecode compiles the decode for one erasure pattern. The first k
// present shards and the matching rows of the encoding matrix give the
// data back by inversion; a lost parity shard is its encoding row
// applied to that, so one matrix over the survivors rebuilds data and
// parity alike — the same field arithmetic, hence the same bytes, as
// rebuilding the data first and re-encoding parity from it.
func (c *rsCode) planDecode(present []bool) (*decodePlan, error) {
	p := &decodePlan{present: slices.Clone(present)}
	sub := make([][]byte, 0, c.k)
	for i, ok := range present {
		switch {
		case !ok:
			p.lost = append(p.lost, i)
		case len(p.from) < c.k:
			p.from = append(p.from, i)
			sub = append(sub, c.mat[i])
		}
	}
	inv, err := gfMatInvert(sub)
	if err != nil {
		return nil, err // cannot happen for an MDS matrix; defensive
	}
	rows := make([][]byte, len(p.lost))
	for r, i := range p.lost {
		rows[r] = c.mat[i]
	}
	p.tab = newGFTables(gfMatMul(rows, inv))
	return p, nil
}
