package fs

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"fmt"

	"repro/internal/hostos"
)

// Format v3 is the store format before v4: each block AES-CTR encrypted
// under the IV (block index ‖ version) and authenticated by
// HMAC-SHA256 over that IV and the ciphertext; 48-byte table entries
// version(8) ‖ slot(8) ‖ MAC(32); a root MAC over epoch and every
// (version, slot byte, MAC). This file is what is left of it: a verifier
// that opens v3 stores read-only. Reads, scrub and repair work on them;
// WriteBlock and Flush return ErrOldFormat, and Upgrade copies a v3
// store block by block into a fresh current-format one. Nothing here encrypts: no
// code path writes v3 ciphertext. (v3's nonce rule, a version bumped per
// write, repeats after a crash before Flush; DESIGN.md, "Crash
// consistency".)

const (
	formatV3    = 3
	v3EntrySize = 48
)

// v3Reader is a v3 store's block verifier.
type v3Reader struct {
	block cipher.Block // AES-128 under the derived encryption key
	iv    [16]byte     // block index ‖ version: the CTR IV and the MAC prefix
}

// initV3 makes s a v3 store: v3's derived keys, entry size and verifier.
// v3 keyed one HMAC for block MACs, the root MAC and commit records.
func (s *BlockStore) initV3(key Key) {
	encKey := sha256.Sum256(append([]byte("enc:"), key[:]...))
	macKey := sha256.Sum256(append([]byte("mac:"), key[:]...))
	block, err := aes.NewCipher(encKey[:16])
	if err != nil {
		panic(err) // key length is fixed; cannot fail
	}
	s.v3 = &v3Reader{block: block}
	s.mac = hmac.New(sha256.New, macKey[:])
	s.esize = v3EntrySize
}

func v3Written(e []byte) bool { return binary.LittleEndian.Uint64(e) != 0 }
func v3Slot(e []byte) uint8   { return e[8] & 1 }

// openV3 checks ct against block i's HMAC and, only if it matches,
// decrypts it into s.pt.
func (s *BlockStore) openV3(i int, ct []byte) bool {
	e, v := s.entry(i), s.v3
	binary.LittleEndian.PutUint64(v.iv[:], uint64(i))
	copy(v.iv[8:], e[:8])
	s.mac.Reset()
	s.mac.Write(v.iv[:])
	s.mac.Write(ct[:BlockSize])
	s.mac.Sum(s.sum[:0])
	if !hmac.Equal(s.sum[:], e[16:48]) {
		return false
	}
	cipher.NewCTR(v.block, v.iv[:]).XORKeyStream(s.pt, ct[:BlockSize])
	return true
}

// rootV3 is v3's root MAC over the loaded table: epoch, then per block
// its version, slot byte and MAC.
func (s *BlockStore) rootV3() [32]byte {
	buf := binary.LittleEndian.AppendUint64(make([]byte, 0, 8+41*s.maxBlocks), s.epoch)
	for i := 0; i < s.maxBlocks; i++ {
		e := s.entry(i)
		buf = append(append(append(buf, e[:8]...), v3Slot(e)), e[16:48]...)
	}
	s.mac.Reset()
	s.mac.Write(buf)
	s.mac.Sum(s.sum[:0])
	return s.sum
}

// Upgrade copies every written block of src, a store of any format, into
// a fresh current-format store named name on h — src's geometry and
// capacity, sealed under key — and commits it. It returns the new store
// and the number of blocks copied. A v3 store cannot be migrated in
// place: v4's smaller table moves every block stripe's offset onto bytes
// the v3 commit still references. CreateStore removes whatever name
// held, so name must not be src's.
func Upgrade(src *BlockStore, h hostos.Disk, name string, key Key) (*BlockStore, int, error) {
	k, m := src.Geometry()
	dst, err := CreateStoreGeom(h, name, key, src.MaxBlocks(), k, m)
	if err != nil {
		return nil, 0, err
	}
	buf := make([]byte, BlockSize)
	copied := 0
	for i := 0; i < src.MaxBlocks(); i++ {
		src.mu.Lock()
		written := src.written(i)
		src.mu.Unlock()
		if !written {
			continue
		}
		if err := src.ReadBlockInto(i, buf); err != nil {
			return nil, copied, fmt.Errorf("fs: upgrade: %w", err)
		}
		if err := dst.WriteBlock(i, buf); err != nil {
			return nil, copied, fmt.Errorf("fs: upgrade: %w", err)
		}
		copied++
	}
	if err := dst.Flush(); err != nil {
		return nil, copied, fmt.Errorf("fs: upgrade: %w", err)
	}
	return dst, copied, nil
}
