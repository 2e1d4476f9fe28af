// Package fs implements Occlum's filesystem stack (§6) and the special
// in-enclave filesystems (/dev, and /proc via internal/libos).
//
// The stack mirrors the paper:
//
//   - BlockStore (this file): the analog of Intel SGX Protected FS — an
//     encrypted, integrity-protected block device kept in untrusted host
//     storage. Every block is AES-CTR encrypted and HMAC-authenticated
//     with a per-write version (anti-replay); a root MAC over the version
//     table authenticates the whole device. A/B block slots plus an
//     atomic commit-record protocol make Sync crash-consistent. Beneath
//     the integrity layer, every block is striped across k+m host files
//     with Reed–Solomon parity (rs.go), so the device self-heals from
//     the loss or rot of up to m shards per stripe — including an entire
//     deleted backing file — without ever serving a byte that has not
//     re-passed MAC verification.
//   - EncFS (fs.go): a full Unix-like filesystem (superblock, inodes,
//     directories, a shared page cache) built on the block store. Because
//     a single LibOS instance owns it, it is writable and consistent
//     across all SIPs — the capability EIP-based LibOSes lack (Table 1).
//   - ImageFS (imagefs.go): the read-only integrity-verified image layer
//     holding the trusted base image, lazily Merkle-verified against a
//     root hash pinned at mount (packed by cmd/occlum-image).
//   - UnionFS (unionfs.go): EncFS over ImageFS with copy-up on first
//     write and whiteout-based unlink — the union root a SIP boots from.
//   - VFS (vfs.go): mount table dispatching paths to the union root,
//     devfs, or procfs.
package fs

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"sync"

	"repro/internal/hostos"
)

// BlockSize is the payload size of one protected block.
const BlockSize = 4096

// macEntrySize is the on-disk size of one version-table entry:
// version(8) + slot(8) + MAC(32).
const macEntrySize = 48

// Default erasure-code geometry: 4 data + 2 parity shards per stripe.
// With shardSize = BlockSize/k, one block slot is exactly one stripe, so
// parity never needs a read-modify-write cycle.
const (
	defaultDataShards   = 4
	defaultParityShards = 2
)

// Per-backing-file layout:
//
//	[0,32)    file header: magic(8) k(2) m(2) fileIdx(2) pad(2) maxBlocks(8) pad(8)
//	[32,224)  two 96-byte commit-record slots (A/B, indexed by epoch&1)
//	[224,...) shard cells: shardSize payload + crc32(4) + pad(4) each
//
// The crc32 trailer is a *locator* for accidental corruption (bit-rot,
// torn writes, truncation) — it decides which shards the decoder
// excludes, nothing more. Authenticity always comes from the MAC table:
// no assembled or reconstructed payload is served or written back until
// it re-verifies against the per-block HMAC (or, for the table itself,
// the root MAC in a commit record).
const (
	fileHeaderSize   = 32
	fileHeaderIdxOff = 12 // fileIdx: the only field that differs between files
	commitRecordSize = 96
	shardDataStart   = fileHeaderSize + 2*commitRecordSize // 224
)

var pfsMagic = [8]byte{'O', 'C', 'P', 'F', 'S', 0, 0, 3}

// Integrity errors.
var (
	// ErrCorrupt reports failed decryption or integrity verification —
	// the untrusted host tampered with the image, or more shards are
	// lost than the parity can reconstruct.
	ErrCorrupt = errors.New("fs: integrity verification failed (image tampered?)")
	// ErrBadKey reports opening an image with the wrong key.
	ErrBadKey = errors.New("fs: wrong key or not a protected image")
	// ErrFull reports block exhaustion.
	ErrFull = errors.New("fs: no free blocks")
)

// Key is the 128-bit filesystem sealing key. On real SGX it would be
// derived from the enclave sealing identity.
type Key [16]byte

// KeyFromString derives a key from a passphrase-like seed.
func KeyFromString(s string) Key {
	sum := sha256.Sum256([]byte("ocpfs-key:" + s))
	var k Key
	copy(k[:], sum[:16])
	return k
}

// BlockStore is an encrypted, integrity-protected block device striped
// across k+m untrusted host files ("name.s0" … "name.s<k+m-1>").
//
// Crash consistency: every block owns two on-disk stripe slots (A/B).
// The first write to a block after a Flush flips its slot, so the
// ciphertext the last-committed MAC table references is never
// overwritten mid-epoch; rewrites within the same epoch land on the same
// (uncommitted) slot. Flush writes the MAC table into the A/B table
// slot for the new epoch and then publishes it with per-file commit
// records (epoch + root MAC, self-authenticated by an HMAC): a crash
// cutting the write sequence at any point leaves the previous committed
// state fully recoverable, because nothing it references was touched.
//
// Durability: each 4 KiB stripe (a block slot, or one table chunk) is
// split into k data shards and m Reed–Solomon parity shards, one per
// backing file, each with a crc32 locator trailer. Reads exclude
// crc-bad/short/missing shards, reconstruct from any k survivors,
// re-verify the result against the MAC table, and only then serve it —
// rewriting the bad shards in place (repair-on-read). The scrubber
// (ScrubStep) walks stripes incrementally doing the same in the
// background, and Repair rebuilds whole lost backing files offline.
type BlockStore struct {
	mu        sync.Mutex
	host      *hostos.Host
	maxBlocks int
	k, m      int
	rs        *rsCode
	epoch     uint64
	versions  []uint64
	slots     []uint8
	macs      [][32]byte
	// epochWritten marks blocks already flipped to their shadow slot
	// this epoch; cleared by Flush.
	epochWritten []bool
	dirtyHdr     bool

	// Table commit of what changed. stripeChanged[j] is the epoch whose
	// commit first carries table stripe j's current bytes (the epoch after
	// the one in which an entry in it was last written; 0: as loaded).
	// slotWhole[a] is the epoch whose table A/B table slot a is known to
	// hold in every stripe, 0 when unknown: after CreateStore, for the
	// slot OpenStore did not load, and while a Flush is writing into it.
	// Invariant: slot a's stripe j already holds what the next commit
	// would write there iff slotWhole[a] != 0 and stripeChanged[j] <=
	// slotWhole[a]; Flush writes exactly the other stripes.
	stripeChanged []uint64
	slotWhole     [2]uint64
	// root is the committed root MAC: what the newest commit record on
	// disk carries. Valid whenever !dirtyHdr.
	root [32]byte

	// Scrub cursor state: gen counts mutations; a full pass over an
	// unchanged store latches clean until the next mutation.
	scrubCursor  int
	scrubGen     uint64
	scrubPassGen uint64
	scrubClean   bool

	// Scratch, owned under mu: what a block through the store would
	// otherwise re-create (file names, cipher, keyed MAC) or allocate
	// (cells, ciphertext, parity). A slice handed out of it — the
	// ciphertext readStripe returns — is valid only until the next call
	// into the store.
	names  []string     // the k+m shard file names
	block  cipher.Block // AES under the derived encryption key
	mac    hash.Hash    // HMAC-SHA256 under the derived MAC key; Reset per use
	nonce  [16]byte     // block index ‖ version: the CTR IV and the MAC prefix
	sum    [sha256.Size]byte
	cells  []byte   // the k+m cells of the stripe being read
	raw    [][]byte // per-file shard views into cells (nil: unreadable)
	crcOK  []bool
	ct     []byte   // one stripe payload: assembled on read, encrypted on write
	shards [][]byte // encodeStripe's k data views + m parity views
	cell   []byte   // one outgoing cell (pad bytes stay zero)
	table  []byte   // one serialised version table; rootMAC's buffer too
}

// newStore builds the in-memory half of a store: geometry, derived keys
// and the scratch the data path runs in.
func newStore(h *hostos.Host, name string, key Key, maxBlocks, k, m int) (*BlockStore, error) {
	rs, err := newRS(k, m)
	if err != nil {
		return nil, err
	}
	aesKey := sha256.Sum256(append([]byte("enc:"), key[:]...))
	macKey := sha256.Sum256(append([]byte("mac:"), key[:]...))
	block, err := aes.NewCipher(aesKey[:16])
	if err != nil {
		panic(err) // key length is fixed; cannot fail
	}
	s := &BlockStore{
		host: h, maxBlocks: maxBlocks, k: k, m: m, rs: rs,
		versions:     make([]uint64, maxBlocks),
		slots:        make([]uint8, maxBlocks),
		macs:         make([][32]byte, maxBlocks),
		epochWritten: make([]bool, maxBlocks),
		block:        block,
		mac:          hmac.New(sha256.New, macKey[:]),
		names:        make([]string, k+m),
		raw:          make([][]byte, k+m),
		crcOK:        make([]bool, k+m),
		ct:           make([]byte, BlockSize),
		shards:       make([][]byte, k+m),
	}
	ss := s.shardSize()
	s.cells = make([]byte, (k+m)*s.cellSize())
	s.cell = make([]byte, s.cellSize())
	s.table = make([]byte, s.tableStripes()*BlockSize)
	s.stripeChanged = make([]uint64, s.tableStripes())
	parity := make([]byte, m*ss)
	for f := range s.names {
		s.names[f] = shardFile(name, f)
		if f >= k {
			s.shards[f] = parity[(f-k)*ss : (f-k+1)*ss]
		}
	}
	return s, nil
}

// --- Geometry -------------------------------------------------------------

func (s *BlockStore) shardSize() int { return BlockSize / s.k }
func (s *BlockStore) cellSize() int  { return s.shardSize() + 8 }
func (s *BlockStore) nFiles() int    { return s.k + s.m }

// shardFile is the host name of shard file f of image name.
func shardFile(name string, f int) string { return fmt.Sprintf("%s.s%d", name, f) }

// fileName returns the host name of shard file f.
func (s *BlockStore) fileName(f int) string { return s.names[f] }

// tableStripes is the stripe count of ONE table slot.
func (s *BlockStore) tableStripes() int {
	return (s.maxBlocks*macEntrySize + BlockSize - 1) / BlockSize
}

// blockStripe maps (block, A/B slot) to its stripe index: the two table
// slots come first, then two stripes per block.
func (s *BlockStore) blockStripe(i int, slot uint8) int {
	return 2*s.tableStripes() + 2*i + int(slot&1)
}

// cellOff is the per-file byte offset of stripe st's shard cell.
func (s *BlockStore) cellOff(st int) int {
	return shardDataStart + st*s.cellSize()
}

// MaxBlocks returns the device capacity in blocks.
func (s *BlockStore) MaxBlocks() int { return s.maxBlocks }

// Geometry returns the erasure-code shape: k data + m parity shards.
func (s *BlockStore) Geometry() (k, m int) { return s.k, s.m }

// BackingFiles lists the host files the store stripes across.
func (s *BlockStore) BackingFiles() []string {
	return append([]string(nil), s.names...)
}

// StoreExists reports whether a striped image by this name is present on
// the host (any shard file suffices — missing ones are repairable).
func StoreExists(h *hostos.Host, name string) bool {
	for f := 0; f < 64; f++ {
		if h.FileSize(shardFile(name, f)) > 0 {
			return true
		}
	}
	return false
}

// --- Create / open --------------------------------------------------------

// CreateStore formats a new protected image with capacity maxBlocks and
// the default 4+2 erasure-code geometry, destroying any previous content
// under the same name.
func CreateStore(h *hostos.Host, name string, key Key, maxBlocks int) (*BlockStore, error) {
	return CreateStoreGeom(h, name, key, maxBlocks, defaultDataShards, defaultParityShards)
}

// CreateStoreGeom formats a new protected image striped as k data + m
// parity shards per stripe. k must divide BlockSize.
func CreateStoreGeom(h *hostos.Host, name string, key Key, maxBlocks, k, m int) (*BlockStore, error) {
	if maxBlocks <= 0 {
		return nil, fmt.Errorf("fs: maxBlocks must be positive")
	}
	if k < 1 || m < 1 || BlockSize%k != 0 {
		return nil, fmt.Errorf("fs: bad stripe geometry k=%d m=%d", k, m)
	}
	s, err := newStore(h, name, key, maxBlocks, k, m)
	if err != nil {
		return nil, err
	}
	s.epoch = 1
	h.DropFiles(name + ".s*")
	for f := 0; f < s.nFiles(); f++ {
		s.host.WriteFileAt(s.fileName(f), 0, s.fileHeader(f))
	}
	if err := s.Flush(); err != nil {
		return nil, err
	}
	return s, nil
}

// fileHeader serializes shard file f's header.
func (s *BlockStore) fileHeader(f int) []byte {
	hdr := make([]byte, fileHeaderSize)
	copy(hdr, pfsMagic[:])
	binary.LittleEndian.PutUint16(hdr[8:], uint16(s.k))
	binary.LittleEndian.PutUint16(hdr[10:], uint16(s.m))
	binary.LittleEndian.PutUint16(hdr[fileHeaderIdxOff:], uint16(f))
	binary.LittleEndian.PutUint64(hdr[16:], uint64(s.maxBlocks))
	return hdr
}

// commitRecord serializes the commit record publishing (epoch, rootMAC).
// The record authenticates itself with an HMAC, so open can tell a valid
// record from torn or rotted bytes without trusting anything else.
func (s *BlockStore) commitRecord(epoch uint64, root [32]byte) []byte {
	rec := make([]byte, commitRecordSize)
	binary.LittleEndian.PutUint64(rec[0:], epoch)
	binary.LittleEndian.PutUint64(rec[8:], uint64(s.maxBlocks))
	copy(rec[16:48], root[:])
	mac := s.recMAC(rec[:48])
	copy(rec[48:80], mac[:])
	return rec
}

func (s *BlockStore) recMAC(fields []byte) [32]byte {
	s.mac.Reset()
	s.mac.Write([]byte("commit:"))
	s.mac.Write(fields)
	s.mac.Sum(s.sum[:0])
	return s.sum
}

// openGeometry scans the shard files for one valid header to learn the
// stripe geometry (any surviving file can supply it).
func openGeometry(h *hostos.Host, name string) (k, m, maxBlocks int, err error) {
	for f := 0; f < 64; f++ {
		hdr := make([]byte, fileHeaderSize)
		n, rerr := h.ReadFileAt(shardFile(name, f), 0, hdr)
		if rerr != nil || n < fileHeaderSize {
			continue
		}
		if string(hdr[:8]) != string(pfsMagic[:]) {
			continue
		}
		k = int(binary.LittleEndian.Uint16(hdr[8:]))
		m = int(binary.LittleEndian.Uint16(hdr[10:]))
		maxBlocks = int(binary.LittleEndian.Uint64(hdr[16:]))
		if k < 1 || m < 1 || BlockSize%k != 0 || maxBlocks <= 0 || maxBlocks > 1<<24 {
			continue
		}
		return k, m, maxBlocks, nil
	}
	return 0, 0, 0, ErrBadKey
}

// OpenStore opens an existing protected image: it finds the
// newest self-authenticated commit record across all shard files,
// reads that epoch's MAC table (repairing rotted or missing table
// shards from parity), and verifies the root MAC. Up to m lost or
// corrupted shards per stripe — including whole missing backing
// files — are tolerated and repaired in place.
func OpenStore(h *hostos.Host, name string, key Key) (*BlockStore, error) {
	k, m, maxBlocks, err := openGeometry(h, name)
	if err != nil {
		return nil, err
	}
	s, err := newStore(h, name, key, maxBlocks, k, m)
	if err != nil {
		return nil, ErrBadKey
	}

	// Collect every valid commit record, newest epoch first. Records are
	// per-file replicas: any one survivor publishes the commit.
	type candidate struct {
		epoch uint64
		root  [32]byte
	}
	var cands []candidate
	seen := make(map[uint64]bool)
	for f := 0; f < s.nFiles(); f++ {
		for rslot := 0; rslot < 2; rslot++ {
			rec := make([]byte, commitRecordSize)
			n, rerr := h.ReadFileAt(s.fileName(f), fileHeaderSize+rslot*commitRecordSize, rec)
			if rerr != nil || n < commitRecordSize {
				continue
			}
			want := s.recMAC(rec[:48])
			if !hmac.Equal(want[:], rec[48:80]) {
				continue
			}
			epoch := binary.LittleEndian.Uint64(rec[0:])
			if int(binary.LittleEndian.Uint64(rec[8:])) != maxBlocks {
				continue
			}
			if epoch&1 != uint64(rslot&1) {
				continue // a record can only live in its own A/B slot
			}
			if !seen[epoch] {
				seen[epoch] = true
				var c candidate
				c.epoch = epoch
				copy(c.root[:], rec[16:48])
				cands = append(cands, c)
			}
		}
	}
	if len(cands) == 0 {
		// Headers were fine but no record authenticates under this key.
		return nil, ErrBadKey
	}
	for i := 1; i < len(cands); i++ {
		for j := i; j > 0 && cands[j].epoch > cands[j-1].epoch; j-- {
			cands[j], cands[j-1] = cands[j-1], cands[j]
		}
	}

	// Try candidates newest-first: load that epoch's table slot and
	// check the root MAC. Torn later commits simply fall through to the
	// previous fully-committed epoch.
	for _, c := range cands {
		if s.loadTable(c.epoch, c.root) {
			s.epoch = c.epoch
			return s, nil
		}
	}
	return nil, ErrCorrupt
}

// loadTable reads the MAC table from epoch's A/B table slot (with shard
// repair) and installs it if the root MAC matches. Caller holds no lock
// (open path) — the store is not yet shared.
func (s *BlockStore) loadTable(epoch uint64, wantRoot [32]byte) bool {
	slot := int(epoch & 1)
	T := s.tableStripes()
	for j := 0; j < T; j++ {
		pay, err := s.readStripe(slot*T+j, nil)
		if err != nil {
			return false
		}
		copy(s.table[j*BlockSize:], pay)
	}
	for i := 0; i < s.maxBlocks; i++ {
		e := s.table[i*macEntrySize:]
		s.versions[i] = binary.LittleEndian.Uint64(e)
		s.slots[i] = uint8(binary.LittleEndian.Uint64(e[8:]) & 1)
		copy(s.macs[i][:], e[16:48])
	}
	s.epoch = epoch
	s.root = s.rootMAC()
	if !hmac.Equal(s.root[:], wantRoot[:]) {
		return false
	}
	// Every stripe of this slot was just read (and repaired) and the
	// whole authenticated; nothing is known about the other slot, which a
	// torn newer commit may have half-overwritten.
	s.slotWhole[slot], s.slotWhole[slot^1] = epoch, 0
	return true
}

// OpenStoreAt opens an existing protected image and additionally checks
// the committed epoch against a trusted witness (an SGX monotonic
// counter in the paper's deployment; the caller's in-enclave memory
// here). Without the witness, a host that rolls records, MAC table and
// data back to an older fully-consistent snapshot is undetectable; with
// it, any stale epoch fails closed.
func OpenStoreAt(h *hostos.Host, name string, key Key, wantEpoch uint64) (*BlockStore, error) {
	s, err := OpenStore(h, name, key)
	if err != nil {
		return nil, err
	}
	if s.epoch != wantEpoch {
		return nil, fmt.Errorf("%w: epoch %d, trusted witness says %d (rollback?)",
			ErrCorrupt, s.epoch, wantEpoch)
	}
	return s, nil
}

// Epoch returns the current commit epoch (bumped by every Flush). A
// caller that persists it in trusted storage can detect full-image
// rollback via OpenStoreAt.
func (s *BlockStore) Epoch() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epoch
}

// rootMAC authenticates (epoch, every block's version, slot and MAC). It
// serialises into s.table, so a caller is done with the table image
// there before it asks for the root.
func (s *BlockStore) rootMAC() [32]byte {
	buf := s.table[:0]
	buf = binary.LittleEndian.AppendUint64(buf, s.epoch)
	for i := range s.versions {
		buf = binary.LittleEndian.AppendUint64(buf, s.versions[i])
		buf = append(buf, s.slots[i])
		buf = append(buf, s.macs[i][:]...)
	}
	s.mac.Reset()
	s.mac.Write(buf)
	s.mac.Sum(s.sum[:0])
	return s.sum
}

// fillTable serialises the in-memory version table into s.table.
func (s *BlockStore) fillTable() {
	for i := 0; i < s.maxBlocks; i++ {
		e := s.table[i*macEntrySize:]
		binary.LittleEndian.PutUint64(e, s.versions[i])
		binary.LittleEndian.PutUint64(e[8:], uint64(s.slots[i]))
		copy(e[16:], s.macs[i][:])
	}
}

// --- Stripe I/O -----------------------------------------------------------

// encodeStripe points s.shards at payload's k data shards and fills the
// m scratch parity shards behind them.
func (s *BlockStore) encodeStripe(payload []byte) {
	ss := s.shardSize()
	for d := 0; d < s.k; d++ {
		s.shards[d] = payload[d*ss : (d+1)*ss]
	}
	s.rs.encode(s.shards)
}

// writeStripe splits a BlockSize payload into k data shards, encodes m
// parity shards, and writes one crc-trailed cell per backing file.
func (s *BlockStore) writeStripe(st int, payload []byte) {
	s.encodeStripe(payload)
	for f, shard := range s.shards {
		s.writeCell(f, st, shard)
	}
}

// fillCell builds shard's cell (payload + crc trailer) in s.cell.
func (s *BlockStore) fillCell(shard []byte) {
	copy(s.cell, shard)
	binary.LittleEndian.PutUint32(s.cell[s.shardSize():], crc32.ChecksumIEEE(shard))
}

// writeCell writes one shard cell.
func (s *BlockStore) writeCell(f, st int, shard []byte) {
	s.fillCell(shard)
	s.host.WriteFileAt(s.fileName(f), s.cellOff(st), s.cell)
}

// readStripe reassembles stripe st's payload, repairing as it goes. The
// result may live in scratch: it is valid until the next store call.
//
// All k+m cells are read and classified by the crc32 locator — parity
// too, or parity rot would go unseen until the day it is needed. When
// every data shard passes crc the payload is their concatenation: no
// decode. Otherwise missing files, short reads and crc mismatches are
// excluded and the payload is reconstructed from any k survivors. verify
// is the authenticity gate — for block stripes it checks the per-block
// HMAC against the MAC table; nil (table stripes during open) defers to
// the caller's root-MAC check. A payload that fails verify is NEVER
// served: if neither the concatenation nor the crc-guided decode
// authenticates (a tamperer can forge crc trailers), a bounded search
// over k-subsets of the readable shards looks for any combination that
// does. Only after the payload authenticates are bad shards rewritten in
// place (repair-on-read) — so repair can restore accidental damage but
// can never launder adversarial bytes into the device.
func (s *BlockStore) readStripe(st int, verify func([]byte) bool) ([]byte, error) {
	n := s.nFiles()
	ss, cs := s.shardSize(), s.cellSize()
	raw, crcOK := s.raw, s.crcOK // raw[f]: full-length shard payload (nil: unreadable)
	nCrcOK, dataOK := 0, true
	for f := 0; f < n; f++ {
		cell := s.cells[f*cs : (f+1)*cs]
		raw[f], crcOK[f] = nil, false
		cnt, err := s.host.ReadFileAt(s.fileName(f), s.cellOff(st), cell)
		if err == nil && cnt == cs { // else: missing file, truncated file, or short read
			raw[f] = cell[:ss]
			if binary.LittleEndian.Uint32(cell[ss:]) == crc32.ChecksumIEEE(raw[f]) {
				crcOK[f] = true
				nCrcOK++
			}
		}
		if f < s.k && !crcOK[f] {
			dataOK = false
		}
	}

	// First attempt: trust the crc locators. With every data shard clean
	// the code is systematic, so the payload needs no decode.
	if dataOK {
		for d := 0; d < s.k; d++ {
			copy(s.ct[d*ss:], raw[d])
		}
		if verify == nil || verify(s.ct) {
			s.repairFrom(st, s.ct, crcOK)
			return s.ct, nil
		}
	}
	fsStats.decodedStripes.Add(1)
	if !dataOK && nCrcOK >= s.k {
		if pay, ok := s.tryDecode(raw, crcOK, verify); ok {
			s.repairFrom(st, pay, crcOK)
			return pay, nil
		}
	}
	// The crc-guided payload failed authentication (or too few shards
	// passed crc): search k-subsets of everything readable. This covers
	// a tamperer who fixed up crc trailers over corrupted shards.
	if verify != nil {
		readable := make([]int, 0, n)
		for f := 0; f < n; f++ {
			if raw[f] != nil {
				readable = append(readable, f)
			}
		}
		if len(readable) >= s.k && n <= 16 {
			for mask := 0; mask < 1<<uint(len(readable)); mask++ {
				if popcount(mask) != s.k {
					continue
				}
				sel := make([]bool, n)
				for bi, f := range readable {
					if mask&(1<<uint(bi)) != 0 {
						sel[f] = true
					}
				}
				if pay, ok := s.tryDecode(raw, sel, verify); ok {
					s.repairFrom(st, pay, sel)
					return pay, nil
				}
			}
		}
	}
	return nil, fmt.Errorf("%w: stripe %d unrecoverable", ErrCorrupt, st)
}

func popcount(x int) int {
	c := 0
	for ; x != 0; x &= x - 1 {
		c++
	}
	return c
}

// tryDecode reconstructs the stripe payload from the shards selected by
// use, then authenticates it with verify (nil accepts — the caller
// authenticates the assembled whole separately). The degraded path: it
// allocates what it needs.
func (s *BlockStore) tryDecode(raw [][]byte, use []bool, verify func([]byte) bool) ([]byte, bool) {
	shards := make([][]byte, s.nFiles())
	for f, ok := range use {
		if ok {
			shards[f] = raw[f] // reconstruct only reads what is present
		}
	}
	if err := s.rs.reconstruct(shards, use); err != nil {
		return nil, false
	}
	pay := make([]byte, BlockSize)
	ss := s.shardSize()
	for d := 0; d < s.k; d++ {
		copy(pay[d*ss:], shards[d])
	}
	if verify != nil && !verify(pay) {
		return nil, false
	}
	return pay, true
}

// repairFrom rewrites every shard of stripe st that was NOT part of the
// authenticated decode (trusted[f] == false), re-deriving it from the
// verified payload. Called only after verify passed.
func (s *BlockStore) repairFrom(st int, payload []byte, trusted []bool) {
	encoded := false
	for f, ok := range trusted {
		if ok {
			continue
		}
		if !encoded {
			s.encodeStripe(payload)
			encoded = true
		}
		s.writeCell(f, st, s.shards[f])
		fsStats.repairedShards.Add(1)
	}
}

// --- Block I/O ------------------------------------------------------------

// setNonce loads (block, version) — the CTR IV and the MAC prefix.
func (s *BlockStore) setNonce(i int, version uint64) {
	binary.LittleEndian.PutUint64(s.nonce[0:], uint64(i))
	binary.LittleEndian.PutUint64(s.nonce[8:], version)
}

func (s *BlockStore) keystream(i int, version uint64, dst, src []byte) {
	s.setNonce(i, version)
	cipher.NewCTR(s.block, s.nonce[:]).XORKeyStream(dst, src)
}

func (s *BlockStore) blockMAC(i int, version uint64, ct []byte) [32]byte {
	s.setNonce(i, version)
	s.mac.Reset()
	s.mac.Write(s.nonce[:])
	s.mac.Write(ct)
	s.mac.Sum(s.sum[:0])
	return s.sum
}

// WriteBlock encrypts and stores one block (padded/truncated to
// BlockSize). The version table is updated in memory; Flush persists it.
// The first write of a block after a Flush lands on its shadow slot, so
// the last-committed ciphertext survives until the next commit.
func (s *BlockStore) WriteBlock(i int, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if i < 0 || i >= s.maxBlocks {
		return fmt.Errorf("fs: block %d out of range", i)
	}
	if !s.epochWritten[i] {
		s.slots[i] ^= 1
		s.epochWritten[i] = true
	}
	// The version still bumps on every write (not once per epoch): it is
	// the CTR IV, and rewriting a slot under a reused IV would be a
	// two-time pad.
	s.versions[i]++
	// A full block encrypts straight from the caller's buffer; a short
	// one is zero-padded in scratch and encrypted in place.
	if len(data) >= BlockSize {
		data = data[:BlockSize]
	} else {
		clear(s.ct[copy(s.ct, data):])
		data = s.ct
	}
	s.keystream(i, s.versions[i], s.ct, data)
	s.macs[i] = s.blockMAC(i, s.versions[i], s.ct)
	// The entry reaches disk with the next commit; a 48-byte entry can
	// straddle two 4 KiB table stripes.
	s.stripeChanged[i*macEntrySize/BlockSize] = s.epoch + 1
	s.stripeChanged[(i*macEntrySize+macEntrySize-1)/BlockSize] = s.epoch + 1
	s.writeStripe(s.blockStripe(i, s.slots[i]), s.ct)
	s.dirtyHdr = true
	s.mutated()
	return nil
}

// ReadBlock fetches, verifies and decrypts one block into a buffer the
// caller owns, transparently repairing up to m lost or corrupted shards
// of its stripe. A never-written block reads as zeros.
func (s *BlockStore) ReadBlock(i int) ([]byte, error) {
	dst := make([]byte, BlockSize)
	if err := s.ReadBlockInto(i, dst); err != nil {
		return nil, err
	}
	return dst, nil
}

// ReadBlockInto is ReadBlock into dst, which must hold BlockSize bytes.
func (s *BlockStore) ReadBlockInto(i int, dst []byte) error {
	if len(dst) < BlockSize {
		return fmt.Errorf("fs: ReadBlockInto: buffer of %d bytes, need %d", len(dst), BlockSize)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.readBlockLocked(i, dst[:BlockSize])
}

// readBlockLocked verifies block i (repairing its stripe) and, given a
// dst, decrypts into it. The MAC is over the ciphertext, so a nil dst —
// the scrubber — authenticates without decrypting.
func (s *BlockStore) readBlockLocked(i int, dst []byte) error {
	if i < 0 || i >= s.maxBlocks {
		return fmt.Errorf("fs: block %d out of range", i)
	}
	if s.versions[i] == 0 {
		clear(dst)
		return nil
	}
	ct, err := s.readStripe(s.blockStripe(i, s.slots[i]), func(ct []byte) bool {
		want := s.blockMAC(i, s.versions[i], ct)
		return hmac.Equal(want[:], s.macs[i][:])
	})
	if err != nil {
		return fmt.Errorf("%w: block %d", ErrCorrupt, i)
	}
	if dst != nil {
		s.keystream(i, s.versions[i], dst, ct)
	}
	return nil
}

// Flush commits the version table and root MAC. Data blocks are written
// through on WriteBlock (to shadow stripe slots), so nothing the
// last-committed table references is touched here: the new table lands
// in its own A/B table slot, and only then do the per-file commit
// records publish it. A crash at any cut leaves either the previous
// commit or this one fully intact — torn stripes only ever hit
// uncommitted slots, and a torn record fails its own HMAC and is
// ignored by open.
//
// The commit costs what changed: of the T table stripes only those whose
// entries changed since the target slot was last whole are written (see
// stripeChanged / slotWhole). A crash between those writes leaves the
// target slot a mix of two tables, which is what it always was mid-Flush:
// the committed table is the other slot's.
func (s *BlockStore) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.epoch++
	slot := int(s.epoch & 1)
	T := s.tableStripes()
	s.fillTable()
	// The slot holds the table of two commits ago; only stripes that have
	// changed since need writing. Until the last of them lands the slot
	// is neither table.
	whole := s.slotWhole[slot]
	s.slotWhole[slot] = 0
	for j := 0; j < T; j++ {
		if whole == 0 || s.stripeChanged[j] > whole {
			s.writeStripe(slot*T+j, s.table[j*BlockSize:(j+1)*BlockSize])
			fsStats.tableStripesWritten.Add(1)
		}
	}
	s.slotWhole[slot] = s.epoch
	s.root = s.rootMAC()
	rec := s.commitRecord(s.epoch, s.root)
	for f := 0; f < s.nFiles(); f++ {
		s.host.WriteFileAt(s.fileName(f), fileHeaderSize+slot*commitRecordSize, rec)
	}
	clear(s.epochWritten)
	s.dirtyHdr = false
	s.mutated()
	return nil
}

// mutated bumps the scrub generation. Caller holds s.mu.
func (s *BlockStore) mutated() {
	s.scrubGen++
	s.scrubClean = false
}

// --- Scrub and repair -----------------------------------------------------

// ScrubStep verifies up to n blocks' committed stripes against the MAC
// table, repairing any rotted or missing shards it finds, and advances a
// persistent cursor. When a full pass completes with no concurrent
// mutation, the store latches clean and ScrubStep returns false until
// the next WriteBlock/Flush — so an idle LibOS eventually goes quiet
// instead of re-reading a clean device forever.
//
// Returns whether any work was done, and the first unrecoverable error
// encountered (scrubbing continues past errors so one dead stripe does
// not shadow the rest).
func (s *BlockStore) ScrubStep(n int) (worked bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.scrubClean {
		return false, nil
	}
	if s.scrubCursor == 0 {
		s.scrubPassGen = s.scrubGen
	}
	for done := 0; done < n && s.scrubCursor < s.maxBlocks; done++ {
		i := s.scrubCursor
		s.scrubCursor++
		worked = true
		if s.versions[i] == 0 {
			continue
		}
		if rerr := s.readBlockLocked(i, nil); rerr != nil && err == nil {
			err = rerr
		}
		fsStats.scrubbedBlocks.Add(1)
	}
	if s.scrubCursor >= s.maxBlocks {
		// End of pass: scrub the committed table and records too (only
		// meaningful when memory matches disk), then decide cleanliness.
		worked = true
		if !s.dirtyHdr {
			if rerr := s.scrubTableLocked(); rerr != nil && err == nil {
				err = rerr
			}
		}
		s.scrubCursor = 0
		if s.scrubGen == s.scrubPassGen {
			s.scrubClean = true
		}
	}
	return worked, err
}

// scrubTableLocked re-derives the committed table stripes, commit record
// and file headers from in-memory state and rewrites any on-disk shard
// that disagrees. Unlike block scrubbing this needs no parity decode:
// memory holds the authenticated truth. It covers all T stripes, not the
// ones the last Flush wrote: a slot that has just become the committed
// one holds stripes last written two or more commits ago that nothing
// read while it was inactive, and this pass is what bounds their
// exposure to rot. Caller holds s.mu and has checked !s.dirtyHdr.
func (s *BlockStore) scrubTableLocked() error {
	slot := int(s.epoch & 1)
	T := s.tableStripes()
	cs := s.cellSize()
	s.fillTable()
	for j := 0; j < T; j++ {
		st := slot*T + j
		s.encodeStripe(s.table[j*BlockSize : (j+1)*BlockSize])
		for f, shard := range s.shards {
			s.fillCell(shard)
			got := s.cells[:cs]
			cnt, rerr := s.host.ReadFileAt(s.fileName(f), s.cellOff(st), got)
			if rerr != nil || cnt < cs || !bytes.Equal(got, s.cell) {
				s.host.WriteFileAt(s.fileName(f), s.cellOff(st), s.cell)
				fsStats.repairedShards.Add(1)
			}
		}
	}
	rec := s.commitRecord(s.epoch, s.root)
	hdr := s.fileHeader(0)
	got := s.cells[:commitRecordSize]
	for f := 0; f < s.nFiles(); f++ {
		cnt, rerr := s.host.ReadFileAt(s.fileName(f), fileHeaderSize+slot*commitRecordSize, got)
		if rerr != nil || cnt < commitRecordSize || !bytes.Equal(got, rec) {
			s.host.WriteFileAt(s.fileName(f), fileHeaderSize+slot*commitRecordSize, rec)
			fsStats.repairedShards.Add(1)
		}
		binary.LittleEndian.PutUint16(hdr[fileHeaderIdxOff:], uint16(f))
		gotHdr := got[:fileHeaderSize]
		cnt, rerr = s.host.ReadFileAt(s.fileName(f), 0, gotHdr)
		if rerr != nil || cnt < fileHeaderSize || !bytes.Equal(gotHdr, hdr) {
			s.host.WriteFileAt(s.fileName(f), 0, hdr)
			fsStats.repairedShards.Add(1)
		}
	}
	return nil
}

// Scrub runs ScrubStep to completion: one full verify-and-repair pass
// over every committed block plus the table. Returns blocks scrubbed
// and the first unrecoverable error.
func (s *BlockStore) Scrub() (blocks int, err error) {
	before := fsStats.scrubbedBlocks.Load()
	for {
		worked, serr := s.ScrubStep(64)
		if serr != nil && err == nil {
			err = serr
		}
		if !worked {
			return int(fsStats.scrubbedBlocks.Load() - before), err
		}
	}
}

// Repair rebuilds every damaged or missing shard of the committed state
// — the offline recovery path after losing an entire backing file. It
// restores file headers and the commit record on every shard file, then
// walks all committed stripes re-verifying (and re-writing) shards
// against the MAC table. Returns the number of shards rebuilt. The store
// must be freshly opened or flushed (no uncommitted writes), because
// repair re-derives on-disk state from the last commit.
func (s *BlockStore) Repair() (rebuilt int, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dirtyHdr {
		return 0, fmt.Errorf("fs: repair requires a clean (flushed) store")
	}
	before := fsStats.repairedShards.Load()
	if rerr := s.scrubTableLocked(); rerr != nil {
		err = rerr
	}
	for i := 0; i < s.maxBlocks; i++ {
		if s.versions[i] == 0 {
			continue
		}
		if rerr := s.readBlockLocked(i, nil); rerr != nil && err == nil {
			err = rerr
		}
	}
	rebuilt = int(fsStats.repairedShards.Load() - before)
	fsStats.rebuiltShards.Add(uint64(rebuilt))
	return rebuilt, err
}
