// Package oelf defines the OELF binary container: the on-disk format the
// Occlum toolchain emits, the Occlum verifier checks and signs, and the
// Occlum LibOS loads into MMDSFI domains.
//
// An OELF file carries a linked code segment, an initialized data segment,
// the layout facts the verifier's range analysis needs (guard size, BSS
// size), and — once verified — an HMAC signature from the verifier. The
// LibOS refuses to load unsigned binaries, which is how the (large,
// untrusted) toolchain stays out of the TCB while the (small, trusted)
// verifier guards the enclave.
//
// oelf also owns the domain layout every one of them relies on: the code
// segment padded to whole pages (CodeSpan), then a GuardSize gap, then the
// data region. The linker resolves data references against it, the
// verifier proves accesses against it, and the loader maps domains by it.
package oelf

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/isa"
)

// Magic identifies an OELF file.
var Magic = [4]byte{'O', 'E', 'L', 'F'}

// Version is the format version.
const Version = 1

// Format errors.
var (
	// ErrBadFormat reports a malformed OELF file.
	ErrBadFormat = errors.New("oelf: malformed binary")
	// ErrBadSignature reports a missing or invalid verifier signature.
	ErrBadSignature = errors.New("oelf: verifier signature invalid")
)

// GuardSize is the size of the unmapped guard regions around a domain's
// data region, and of the gap between the code and data segments — 4 KiB,
// as in the paper (§6).
const GuardSize = 4096

// CodeSpan returns the size a code segment of n bytes occupies in memory:
// n padded to a whole number of pages.
func CodeSpan(n uint64) uint64 {
	return (n + isa.PageSize - 1) / isa.PageSize * isa.PageSize
}

// Image is a linked, position-independent binary image. All addresses are
// relative to the load address of the code segment; the loader must place
// the data region exactly GuardSize bytes after the (page-padded) code
// segment, which is how the paper's modified linker lays out ELFs.
type Image struct {
	// Code is the executable segment.
	Code []byte
	// Data is the initialized data segment.
	Data []byte
	// BSS is the size of the zero-initialized region after Data.
	BSS uint32
	// Entry is the offset of the entry point within Code.
	Entry uint32
	// GuardSize is the code/data gap assumed by PC-relative data
	// references (and the guard-region size the optimizer relied on).
	GuardSize uint32
	// Symbols maps every label to its code offset (not serialized into
	// OELF files; used by the RIPE harness and debuggers).
	Symbols map[string]uint32
	// DataSymbols maps data symbols to offsets within Data.
	DataSymbols map[string]uint32
}

// CodeSpan returns the size the code segment occupies in memory.
func (im *Image) CodeSpan() uint64 { return CodeSpan(uint64(len(im.Code))) }

// DataStart returns the offset of the data region from the code load
// address.
func (im *Image) DataStart() uint64 { return im.CodeSpan() + uint64(im.GuardSize) }

// MinDataSize returns the minimum data-region size the loader must
// provide: initialized data plus BSS. The verifier's range analysis is
// sound for any actual data-region size of at least this value.
func (im *Image) MinDataSize() uint64 { return uint64(len(im.Data)) + uint64(im.BSS) }

// Binary is a parsed OELF file: a linked image plus the verifier
// signature.
type Binary struct {
	// Image is the linked code/data image.
	Image Image
	// Name is an informational binary name (not covered by the
	// signature's security argument, but bound into the digest).
	Name string
	// Sig is the verifier's HMAC-SHA256 signature over Digest, or empty
	// for an unverified binary.
	Sig []byte
}

// FromImage wraps a linked image into an unsigned binary.
func FromImage(name string, img *Image) *Binary {
	return &Binary{Image: *img, Name: name}
}

// headerLen is the fixed prefix of an encoded binary: magic plus nine
// little-endian words.
const headerLen = 4 + 36

// header encodes the fixed prefix: magic, version, segment lengths and
// the layout facts.
func (b *Binary) header() [headerLen]byte {
	var hdr [headerLen]byte
	copy(hdr[:4], Magic[:])
	h := hdr[4:]
	binary.LittleEndian.PutUint32(h[0:], Version)
	binary.LittleEndian.PutUint32(h[4:], uint32(len(b.Name)))
	binary.LittleEndian.PutUint32(h[8:], uint32(len(b.Image.Code)))
	binary.LittleEndian.PutUint32(h[12:], uint32(len(b.Image.Data)))
	binary.LittleEndian.PutUint32(h[16:], b.Image.BSS)
	binary.LittleEndian.PutUint32(h[20:], b.Image.Entry)
	binary.LittleEndian.PutUint32(h[24:], b.Image.GuardSize)
	// h[28:36] reserved, zero.
	return hdr
}

// bodyLen is the encoded length of everything the signature covers.
func (b *Binary) bodyLen() int {
	return headerLen + len(b.Name) + len(b.Image.Code) + len(b.Image.Data)
}

// Size returns the total encoded size, a stand-in for on-disk binary size
// (used by the spawn benchmarks, where load time scales with binary size).
func (b *Binary) Size() int {
	return b.bodyLen() + len(b.Sig) + 16
}

// Digest computes the SHA-256 digest of everything the signature covers:
// the name, geometry and full code/data contents — the encoded binary
// minus its signature, streamed into the hasher segment by segment so a
// verify allocates nothing proportional to the image.
func (b *Binary) Digest() [32]byte {
	h := sha256.New()
	hdr := b.header()
	h.Write(hdr[:])
	io.WriteString(h, b.Name)
	h.Write(b.Image.Code)
	h.Write(b.Image.Data)
	var d [32]byte
	h.Sum(d[:0])
	return d
}

// Marshal encodes the binary, including the signature (if any).
func (b *Binary) Marshal() []byte {
	hdr := b.header()
	out := make([]byte, 0, b.bodyLen()+4+len(b.Sig))
	out = append(out, hdr[:]...)
	out = append(out, b.Name...)
	out = append(out, b.Image.Code...)
	out = append(out, b.Image.Data...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(b.Sig)))
	out = append(out, b.Sig...)
	return out
}

// Unmarshal parses an encoded binary.
func Unmarshal(data []byte) (*Binary, error) {
	if len(data) < headerLen || !bytes.Equal(data[:4], Magic[:]) {
		return nil, fmt.Errorf("%w: bad magic", ErrBadFormat)
	}
	h := data[4:]
	ver := binary.LittleEndian.Uint32(h[0:])
	if ver != Version {
		return nil, fmt.Errorf("%w: version %d", ErrBadFormat, ver)
	}
	nameLen := int(binary.LittleEndian.Uint32(h[4:]))
	codeLen := int(binary.LittleEndian.Uint32(h[8:]))
	dataLen := int(binary.LittleEndian.Uint32(h[12:]))
	bss := binary.LittleEndian.Uint32(h[16:])
	entry := binary.LittleEndian.Uint32(h[20:])
	guard := binary.LittleEndian.Uint32(h[24:])
	off := headerLen
	need := off + nameLen + codeLen + dataLen + 4
	if len(data) < need || nameLen < 0 || codeLen < 0 || dataLen < 0 {
		return nil, fmt.Errorf("%w: truncated", ErrBadFormat)
	}
	b := &Binary{
		Name: string(data[off : off+nameLen]),
		Image: Image{
			Code:      append([]byte(nil), data[off+nameLen:off+nameLen+codeLen]...),
			Data:      append([]byte(nil), data[off+nameLen+codeLen:off+nameLen+codeLen+dataLen]...),
			BSS:       bss,
			Entry:     entry,
			GuardSize: guard,
		},
	}
	sigOff := off + nameLen + codeLen + dataLen
	sigLen := int(binary.LittleEndian.Uint32(data[sigOff:]))
	if sigLen > 0 {
		if len(data) < sigOff+4+sigLen {
			return nil, fmt.Errorf("%w: truncated signature", ErrBadFormat)
		}
		b.Sig = append([]byte(nil), data[sigOff+4:sigOff+4+sigLen]...)
	}
	if uint32(entry) > uint32(codeLen) {
		return nil, fmt.Errorf("%w: entry %#x beyond code", ErrBadFormat, entry)
	}
	return b, nil
}

// SigningKey is the verifier's signing key, shared with the LibOS so the
// loader can check that a binary passed verification. (In a deployment
// this would be provisioned into the enclave; here it is part of the
// simulated platform.)
type SigningKey [32]byte

// NewSigningKey derives a deterministic key from a seed string.
func NewSigningKey(seed string) SigningKey {
	return SigningKey(sha256.Sum256([]byte("oelf-signing:" + seed)))
}

// Sign attaches the verifier signature to b.
func (k SigningKey) Sign(b *Binary) {
	d := b.Digest()
	mac := hmac.New(sha256.New, k[:])
	mac.Write(d[:])
	b.Sig = mac.Sum(nil)
}

// Verify checks the verifier signature on b.
func (k SigningKey) Verify(b *Binary) error {
	if len(b.Sig) == 0 {
		return fmt.Errorf("%w: unsigned", ErrBadSignature)
	}
	d := b.Digest()
	mac := hmac.New(sha256.New, k[:])
	mac.Write(d[:])
	if !hmac.Equal(mac.Sum(nil), b.Sig) {
		return ErrBadSignature
	}
	return nil
}
