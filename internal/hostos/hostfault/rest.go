package hostfault

import (
	"math/rand"

	"repro/internal/hostos"
)

// FlipBit flips one bit of a stored file — the precise hostile-host
// action the integrity batteries use.
func FlipBit(h *hostos.Host, name string, off int) error {
	f, err := h.ReadFile(name)
	if err != nil {
		return err
	}
	if off >= len(f) {
		return hostos.ErrNoFile
	}
	f[off] ^= 0x80
	h.WriteFile(name, f)
	return nil
}

// CorruptFiles flips nBits random bits in the byte range [from, to) of
// every file matching pattern (to <= 0 means end of file), returning
// how many bits were flipped in total. Deterministic under seed — the
// at-rest form of BitRot, for rotting data that is already stored.
func CorruptFiles(h *hostos.Host, pattern string, from, to, nBits int, seed int64) int {
	rng := rand.New(rand.NewSource(seed))
	flipped := 0
	for _, name := range h.Names(pattern) {
		f, _ := h.ReadFile(name)
		lo, hi := from, to
		if hi <= 0 || hi > len(f) {
			hi = len(f)
		}
		if lo >= hi {
			continue
		}
		for i := 0; i < nBits; i++ {
			off := lo + rng.Intn(hi-lo)
			f[off] ^= 1 << uint(rng.Intn(8))
			flipped++
		}
		h.WriteFile(name, f)
	}
	return flipped
}

// DropFiles deletes every file matching pattern — a lost disk or an
// rm-happy host — returning how many were removed.
func DropFiles(h *hostos.Host, pattern string) int {
	names := h.Names(pattern)
	for _, name := range names {
		h.RemoveFile(name)
	}
	return len(names)
}

// CopyFiles snapshots every file matching pattern (for rollback-attack
// and crash tests over multi-file layouts).
func CopyFiles(h *hostos.Host, pattern string) map[string][]byte {
	out := make(map[string][]byte)
	for _, name := range h.Names(pattern) {
		out[name], _ = h.ReadFile(name)
	}
	return out
}

// PutFiles stores (or replaces) a set of files wholesale — the restore
// half of CopyFiles.
func PutFiles(h *hostos.Host, files map[string][]byte) {
	for name, data := range files {
		h.WriteFile(name, data)
	}
}
