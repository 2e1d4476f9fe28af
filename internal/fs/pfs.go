// Package fs implements Occlum's filesystem stack (§6) and the special
// in-enclave filesystems (/dev, and /proc via internal/libos).
//
// The stack mirrors the paper:
//
//   - BlockStore (this file): the analog of Intel SGX Protected FS — an
//     encrypted, integrity-protected block device kept in untrusted host
//     storage. Every write seals its block with AES-128-GCM under a fresh
//     random 96-bit nonce, bound to the block index; the nonce and the
//     16-byte tag live in the block's version-table entry, and a root MAC
//     over epoch ‖ one MAC per table stripe authenticates the whole device
//     (anti-replay: an old ciphertext does not open under the current
//     entry), so a commit re-MACs only the stripes it changed. A/B block
//     slots plus an atomic commit-record protocol make Sync
//     crash-consistent. Beneath the integrity layer, every block is
//     striped across k+m host files with Reed–Solomon parity (rs.go), so
//     the device self-heals from the loss or rot of up to m shards per
//     stripe — including an entire deleted backing file — without ever
//     serving a byte that has not re-passed its tag. This is on-disk
//     format v5, the only one the store reads; a store whose headers name
//     an older format fails to open with ErrOldFormat.
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
	"cmp"
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	crand "crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"math/rand/v2"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/hostos"
)

// BlockSize is the payload size of one protected block.
const BlockSize = 4096

// A version-table entry is 32 bytes on disk and in memory:
//
//	[0,12)  the GCM nonce of the block's last seal
//	[12,28) its tag
//	[28]    flags: flagSlot (the A/B stripe slot), flagWritten
//	[29,32) zero
//
// 128 entries fill a 4 KiB table stripe exactly, so no entry straddles
// two stripes.
const (
	entrySize   = 32
	nonceSize   = 12
	tagSize     = 16
	entryFlags  = nonceSize + tagSize
	flagSlot    = 1
	flagWritten = 2 // unset: never written, reads as zeros
)

// Default erasure-code geometry: 4 data + 2 parity shards per stripe.
// With shardSize = BlockSize/k, one block slot is exactly one stripe, so
// parity never needs a read-modify-write cycle.
const (
	defaultDataShards   = 4
	defaultParityShards = 2
)

// maxShardFiles bounds k+m: open and create look at no shard file past
// it.
const maxShardFiles = 64

// Per-backing-file layout:
//
//	[0,32)    file header: magic(8) k(2) m(2) fileIdx(2) pad(2) maxBlocks(8) pad(8)
//	[32,224)  two 96-byte commit-record slots (A/B, indexed by epoch&1)
//	[224,...) shard cells: shardSize payload + crc32(4) + pad(4) each
//
// The crc32 trailer is a *locator* for accidental corruption (bit-rot,
// torn writes, truncation) — it decides which shards the decoder
// excludes, nothing more. Authenticity always comes from the version
// table: no assembled or reconstructed payload is served or written back
// until it opens under the block's GCM tag (or, for the table itself,
// matches the root MAC in a commit record).
const (
	fileHeaderSize   = 32
	fileHeaderIdxOff = 12 // fileIdx: the only field that differs between files
	commitRecordSize = 96
	shardDataStart   = fileHeaderSize + 2*commitRecordSize // 224
)

// formatV5 is the on-disk format: the last byte of every shard file's
// magic. Formats 3 and 4 were earlier layouts that no build reads any
// more; openGeometry recognises them only to refuse them.
const formatV5 = 5

// pfsMagic opens every shard file's header; its last byte is the format
// version.
var pfsMagic = [8]byte{'O', 'C', 'P', 'F', 'S', 0, 0, formatV5}

// The labels that keep the MACs made under one store MAC key in
// separate domains. Each domain's input has a fixed length, and no two
// domains' lengths coincide.
var (
	labelRecordV5 = []byte("commit5:") // a commit record
	labelStripe   = []byte("stripe")   // Mⱼ: "stripe" ‖ j ‖ table stripe j
	labelRootV5   = []byte("root5")    // the root: "root5" ‖ epoch ‖ M₀ ‖ … ‖ M_{T−1}
)

// Integrity errors.
var (
	// ErrOldFormat reports a store whose headers name format v3 or v4
	// and none v5. It is refused, not read as tampering or a wrong key.
	ErrOldFormat = errors.New("fs: store is in on-disk format v3 or v4, which this build does not read")
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
// Sealing: WriteBlock seals the block with AES-128-GCM, with the block
// index as associated data, under a nonce drawn from a per-store ChaCha8
// stream seeded from crypto/rand at create and open. The nonce is
// stored in the block's table entry beside the tag, never derived from
// state the host can roll back, so it does not repeat across a crash, a
// rollback or a re-create under the same key (DESIGN.md, "Crash
// consistency").
//
// Crash consistency: every block owns two on-disk stripe slots (A/B).
// The first write to a block after a Flush flips its slot, so the
// ciphertext the last-committed table references is never overwritten
// mid-epoch; rewrites within the same epoch land on the same
// (uncommitted) slot. Flush writes the version table into the A/B table
// slot for the new epoch and then publishes it with per-file commit
// records (epoch + root MAC, self-authenticated by an HMAC): a crash
// cutting the write sequence at any point leaves the previous committed
// state fully recoverable, because nothing it references was touched.
//
// Durability: each 4 KiB stripe (a block slot, or one table chunk) is
// split into k data shards and m Reed–Solomon parity shards, one per
// backing file, each with a crc32 locator trailer. Reads exclude
// crc-bad/short/missing shards, reconstruct from any k survivors, open
// the result under its tag, and only then serve it — rewriting the bad
// shards in place (repair-on-read). The scrubber (ScrubStep) walks
// stripes incrementally doing the same in the background, and Repair
// rebuilds whole lost backing files offline.
//
// Failure: the store is fail-stop. The first host write or Sync error
// from WriteBlock, Flush, Repair or a scrub is returned and latched in
// failed; from then on every mutating call and ScrubStep returns it
// until the store is reopened. Reads keep serving (the tag gate still
// holds).
type BlockStore struct {
	mu        sync.Mutex
	host      hostos.Disk
	failed    error
	maxBlocks int
	k, m      int
	rs        *rsCode
	epoch     uint64
	// table is the version table's image, T stripes of BlockSize: the
	// bytes Flush writes and the root MAC covers are these.
	table []byte
	// stripeMACs holds Mⱼ for the T table stripes, sha256.Size bytes
	// each, over the in-memory table as of the last Flush or open: what
	// the root authenticates. Flush recomputes the changed ones.
	stripeMACs []byte
	// epochWritten marks blocks already flipped to their shadow slot
	// this epoch; cleared by Flush.
	epochWritten []bool
	dirtyHdr     bool

	// Table commit of what changed. stripeChanged[j] is the epoch whose
	// commit first carries table stripe j's current bytes (the epoch after
	// the one in which an entry in it was last written; 0: as loaded), so
	// the Flush that commits epoch E re-MACs the stripes where it is E.
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
	// (cells, ciphertext, plaintext, parity). A slice handed out of it —
	// the ciphertext readStripe returns — is valid only until the next
	// call into the store.
	names  []string    // the k+m shard file names
	aead   cipher.AEAD // AES-128-GCM under the derived sealing key
	nonces *rand.ChaCha8
	mac    hash.Hash // HMAC-SHA256 for stripe MACs, the root MAC and commit records; Reset per use
	sum    [sha256.Size]byte
	// word is a seal's associated data (the block index), a stripe MAC's
	// index, or the root MAC's epoch.
	word   [8]byte
	rec    [commitRecordSize]byte // the commit record being published
	cells  []byte                 // the k+m cells of the stripe being read
	raw    [][]byte               // per-file shard views into cells (nil: unreadable)
	crcOK  []bool
	ct     []byte   // one stripe payload, with tagSize spare capacity: assembled on read, sealed on write
	pt     []byte   // one opened block
	shards [][]byte // encodeStripe's k data views + m parity views
	cell   []byte   // one outgoing cell (pad bytes stay zero)
}

// stripeGeom is a store's shape as a file header states it: k data + m
// parity shards per stripe, and the capacity in blocks.
type stripeGeom struct{ k, m, maxBlocks int }

// newMAC is the store's keyed HMAC-SHA256, under the MAC key derived
// from key: stripe MACs, the root MAC and commit records use it.
func newMAC(key Key) hash.Hash {
	macKey := sha256.Sum256(append([]byte("root:"), key[:]...))
	return hmac.New(sha256.New, macKey[:])
}

// newStore builds the in-memory half of a store: geometry, derived keys
// and the scratch the data path runs in.
func newStore(h hostos.Disk, name string, key Key, g stripeGeom) (*BlockStore, error) {
	k, m, maxBlocks := g.k, g.m, g.maxBlocks
	rs, err := newRS(k, m)
	if err != nil {
		return nil, err
	}
	s := &BlockStore{
		host: h, maxBlocks: maxBlocks, k: k, m: m, rs: rs,
		epochWritten: make([]bool, maxBlocks),
		names:        make([]string, k+m),
		raw:          make([][]byte, k+m),
		crcOK:        make([]bool, k+m),
		ct:           make([]byte, BlockSize, BlockSize+tagSize),
		pt:           make([]byte, BlockSize),
		shards:       make([][]byte, k+m),
		mac:          newMAC(key),
	}
	sealKey := sha256.Sum256(append([]byte("gcm:"), key[:]...))
	block, err := aes.NewCipher(sealKey[:16])
	if err != nil {
		panic(err) // key length is fixed; cannot fail
	}
	if s.aead, err = cipher.NewGCM(block); err != nil {
		panic(err) // AES has GCM's block size; cannot fail
	}
	var seed [32]byte
	crand.Read(seed[:]) // never fails (crypto/rand)
	s.nonces = rand.NewChaCha8(seed)
	ss := s.shardSize()
	s.cells = make([]byte, (k+m)*s.cellSize())
	s.cell = make([]byte, s.cellSize())
	s.table = make([]byte, s.tableStripes()*BlockSize)
	s.stripeChanged = make([]uint64, s.tableStripes())
	s.stripeMACs = make([]byte, s.tableStripes()*sha256.Size)
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
	return (s.maxBlocks*entrySize + BlockSize - 1) / BlockSize
}

// entry is block i's version-table entry: a view into the table image.
func (s *BlockStore) entry(i int) []byte { return s.table[i*entrySize : (i+1)*entrySize] }

// slot is the A/B stripe slot of block i's newest ciphertext.
func (s *BlockStore) slot(i int) uint8 { return s.entry(i)[entryFlags] & flagSlot }

// written reports whether block i was ever written.
func (s *BlockStore) written(i int) bool { return s.entry(i)[entryFlags]&flagWritten != 0 }

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
func StoreExists(h hostos.Disk, name string) bool {
	for f := 0; f < maxShardFiles; f++ {
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
func CreateStore(h hostos.Disk, name string, key Key, maxBlocks int) (*BlockStore, error) {
	return CreateStoreGeom(h, name, key, maxBlocks, defaultDataShards, defaultParityShards)
}

// CreateStoreGeom formats a new protected image striped as k data + m
// parity shards per stripe. k must divide BlockSize.
func CreateStoreGeom(h hostos.Disk, name string, key Key, maxBlocks, k, m int) (*BlockStore, error) {
	if maxBlocks <= 0 {
		return nil, fmt.Errorf("fs: maxBlocks must be positive")
	}
	if k < 1 || m < 1 || k+m > maxShardFiles || BlockSize%k != 0 {
		return nil, fmt.Errorf("fs: bad stripe geometry k=%d m=%d", k, m)
	}
	s, err := newStore(h, name, key, stripeGeom{k, m, maxBlocks})
	if err != nil {
		return nil, err
	}
	s.epoch = 1
	for f := 0; f < maxShardFiles; f++ {
		if err := h.RemoveFile(shardFile(name, f)); err != nil {
			return nil, fmt.Errorf("fs: create: %w", err)
		}
	}
	if err := s.writeHeaders(); err != nil {
		return nil, fmt.Errorf("fs: create: %w", err)
	}
	// Every stripe of the new table is new to the first commit, which
	// MACs them all.
	for j := range s.stripeChanged {
		s.stripeChanged[j] = s.epoch + 1
	}
	if err := s.Flush(); err != nil {
		return nil, err
	}
	return s, nil
}

// writeHeaders writes every shard file's header, stopping at the first
// failed write.
func (s *BlockStore) writeHeaders() error {
	for f := 0; f < s.nFiles(); f++ {
		if err := s.host.WriteFileAt(s.fileName(f), 0, s.fileHeader(f)); err != nil {
			return err
		}
	}
	return nil
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

// commitRecord serializes, in scratch, the commit record publishing
// (epoch, rootMAC). The record authenticates itself with an HMAC, so
// open can tell a valid record from torn or rotted bytes without
// trusting anything else.
func (s *BlockStore) commitRecord(epoch uint64, root [32]byte) []byte {
	rec := s.rec[:]
	binary.LittleEndian.PutUint64(rec[0:], epoch)
	binary.LittleEndian.PutUint64(rec[8:], uint64(s.maxBlocks))
	copy(rec[16:48], root[:])
	recMAC(s.mac, rec[:48], rec[48:48])
	return rec
}

// recMAC appends to dst the MAC of a commit record's fields.
func recMAC(mac hash.Hash, fields, dst []byte) []byte {
	mac.Reset()
	mac.Write(labelRecordV5)
	mac.Write(fields)
	return mac.Sum(dst)
}

// openGeometry reads every shard file's header and returns the distinct
// geometries the format-v5 headers state, the one most files name
// first, ties in file order. The header is not authenticated, so it
// only proposes: OpenStore keeps the first geometry under which a
// commit record and the root verify. One rotted header is thus one vote
// against k+m−1, and never redefines the store. If no header is v5 but
// one names format 3 or 4, the store is in an old format.
func openGeometry(h hostos.Disk, name string) ([]stripeGeom, error) {
	var geoms []stripeGeom
	votes := map[stripeGeom]int{}
	old := false
	hdr := make([]byte, fileHeaderSize)
	for f := 0; f < maxShardFiles; f++ {
		n, rerr := h.ReadFileAt(shardFile(name, f), 0, hdr)
		if rerr != nil || n < fileHeaderSize || string(hdr[:7]) != string(pfsMagic[:7]) {
			continue
		}
		if hdr[7] != formatV5 {
			old = old || hdr[7] == 3 || hdr[7] == 4
			continue
		}
		g := stripeGeom{
			k:         int(binary.LittleEndian.Uint16(hdr[8:])),
			m:         int(binary.LittleEndian.Uint16(hdr[10:])),
			maxBlocks: int(binary.LittleEndian.Uint64(hdr[16:])),
		}
		if g.k < 1 || g.m < 1 || g.k+g.m > maxShardFiles || BlockSize%g.k != 0 || g.maxBlocks <= 0 || g.maxBlocks > 1<<24 {
			continue
		}
		if votes[g] == 0 {
			geoms = append(geoms, g)
		}
		votes[g]++
	}
	switch {
	case len(geoms) > 0:
		slices.SortStableFunc(geoms, func(a, b stripeGeom) int { return votes[b] - votes[a] })
		return geoms, nil
	case old:
		return nil, ErrOldFormat
	}
	return nil, ErrBadKey
}

// OpenStore opens an existing protected image: it finds the
// newest self-authenticated commit record across all shard files,
// reads that epoch's version table (repairing rotted or missing table
// shards from parity), and verifies the root MAC. Up to m lost or
// corrupted shards per stripe — including whole missing backing
// files — are tolerated and repaired in place. The geometries the
// headers propose are tried most-named first; a geometry no commit
// record authenticates under costs no allocation, since a record
// states the capacity it commits.
func OpenStore(h hostos.Disk, name string, key Key) (*BlockStore, error) {
	geoms, err := openGeometry(h, name)
	if err != nil {
		return nil, err
	}
	mac := newMAC(key)
	err = ErrBadKey // no record authenticates under this key
	for _, g := range geoms {
		cands := commitRecords(h, name, mac, g)
		if len(cands) == 0 {
			continue
		}
		s, serr := newStore(h, name, key, g)
		if serr != nil {
			continue
		}
		// Try candidates newest-first: load that epoch's table slot and
		// check the root MAC. Torn later commits simply fall through to
		// the previous fully-committed epoch.
		for _, c := range cands {
			if s.loadTable(c.epoch, c.root) {
				return s, nil
			}
		}
		err = ErrCorrupt
	}
	return nil, err
}

// candidate is a commit record that authenticated: its epoch and the
// root it publishes.
type candidate struct {
	epoch uint64
	root  [32]byte
}

// commitRecords returns every valid commit record in the k+m shard
// files of geometry g, one per epoch, newest first. Records are
// per-file replicas: any one survivor publishes the commit.
func commitRecords(h hostos.Disk, name string, mac hash.Hash, g stripeGeom) []candidate {
	var cands []candidate
	rec := make([]byte, commitRecordSize)
	var sum [sha256.Size]byte
	for f := 0; f < g.k+g.m; f++ {
		for rslot := 0; rslot < 2; rslot++ {
			n, rerr := h.ReadFileAt(shardFile(name, f), fileHeaderSize+rslot*commitRecordSize, rec)
			if rerr != nil || n < commitRecordSize {
				continue
			}
			if !hmac.Equal(recMAC(mac, rec[:48], sum[:0]), rec[48:80]) {
				continue
			}
			epoch := binary.LittleEndian.Uint64(rec[0:])
			if int(binary.LittleEndian.Uint64(rec[8:])) != g.maxBlocks {
				continue
			}
			if epoch&1 != uint64(rslot&1) {
				continue // a record can only live in its own A/B slot
			}
			if !slices.ContainsFunc(cands, func(c candidate) bool { return c.epoch == epoch }) {
				c := candidate{epoch: epoch}
				copy(c.root[:], rec[16:48])
				cands = append(cands, c)
			}
		}
	}
	slices.SortFunc(cands, func(a, b candidate) int { return cmp.Compare(b.epoch, a.epoch) })
	return cands
}

// loadTable reads the version table from epoch's A/B table slot (with
// shard repair) and keeps it if the root MAC matches. It trusts nothing
// it did not just read: every stripe MAC is computed from the stripes
// read here. Caller holds no lock (open path) — the store is not yet
// shared.
func (s *BlockStore) loadTable(epoch uint64, wantRoot [32]byte) bool {
	slot := int(epoch & 1)
	T := s.tableStripes()
	for j := 0; j < T; j++ {
		pay, _, err := s.readStripe(slot*T+j, nil)
		if err != nil {
			return false
		}
		copy(s.table[j*BlockSize:], pay)
	}
	s.epoch = epoch
	for j := 0; j < T; j++ {
		s.macStripe(j)
	}
	s.root = s.rootV5()
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
// here). Without the witness, a host that rolls records, version table and
// data back to an older fully-consistent snapshot is undetectable; with
// it, any stale epoch fails closed.
func OpenStoreAt(h hostos.Disk, name string, key Key, wantEpoch uint64) (*BlockStore, error) {
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

// macStripe computes Mⱼ = MAC("stripe" ‖ j ‖ table stripe j) into its
// place in stripeMACs. The index binds a stripe's MAC to its position
// even where two stripes hold the same bytes (never-written entries are
// zeros).
func (s *BlockStore) macStripe(j int) {
	binary.LittleEndian.PutUint64(s.word[:], uint64(j))
	s.mac.Reset()
	s.mac.Write(labelStripe)
	s.mac.Write(s.word[:])
	s.mac.Write(s.table[j*BlockSize : (j+1)*BlockSize])
	s.mac.Sum(s.stripeMACs[j*sha256.Size : j*sha256.Size])
	atomic.AddUint64(&fsStats.TableStripesMACed, 1)
}

// rootV5 is the root: MAC("root5" ‖ epoch ‖ M₀ ‖ … ‖ M_{T−1}), over
// the stripe MACs as they stand — 32 bytes per stripe, never the table
// itself.
func (s *BlockStore) rootV5() [32]byte {
	binary.LittleEndian.PutUint64(s.word[:], s.epoch)
	s.mac.Reset()
	s.mac.Write(labelRootV5)
	s.mac.Write(s.word[:])
	s.mac.Write(s.stripeMACs)
	s.mac.Sum(s.sum[:0])
	return s.sum
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
// parity shards, and writes one crc-trailed cell per backing file. It
// stops at the first failed write.
func (s *BlockStore) writeStripe(st int, payload []byte) error {
	s.encodeStripe(payload)
	for f, shard := range s.shards {
		if err := s.writeCell(f, st, shard); err != nil {
			return err
		}
	}
	return nil
}

// fillCell builds shard's cell (payload + crc trailer) in s.cell.
func (s *BlockStore) fillCell(shard []byte) {
	copy(s.cell, shard)
	binary.LittleEndian.PutUint32(s.cell[s.shardSize():], crc32.ChecksumIEEE(shard))
}

// writeCell writes one shard cell.
func (s *BlockStore) writeCell(f, st int, shard []byte) error {
	s.fillCell(shard)
	return s.host.WriteFileAt(s.fileName(f), s.cellOff(st), s.cell)
}

// readStripe reassembles stripe st's payload, repairing as it goes. The
// result may live in scratch: it is valid until the next store call.
// Every payload it builds or returns has tagSize bytes of spare
// capacity, where open puts the tag.
//
// All k+m cells are read and classified by the crc32 locator — parity
// too, or parity rot would go unseen until the day it is needed. When
// every data shard passes crc the payload is their concatenation: no
// decode. Otherwise missing files, short reads and crc mismatches are
// excluded and the payload is reconstructed from any k survivors. verify
// is the authenticity gate — for block stripes it opens the payload
// under the block's table entry; nil (table stripes during open) defers
// to the caller's root-MAC check. A payload that fails verify is NEVER
// served: if neither the concatenation nor the crc-guided decode
// authenticates (a tamperer can forge crc trailers), a bounded search
// over k-subsets of the readable shards looks for any combination that
// does. Only after the payload authenticates are bad shards rewritten in
// place (repair-on-read) — so repair can restore accidental damage but
// can never launder adversarial bytes into the device. A rewrite the
// host refuses comes back as repairErr beside a payload that is still
// good: the shard stays bad for the next scrub pass to retry.
func (s *BlockStore) readStripe(st int, verify func([]byte) bool) (pay []byte, repairErr, err error) {
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
			} else {
				atomic.AddUint64(&fsStats.CRCMismatches, 1)
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
			return s.ct, s.repairFrom(st, s.ct, crcOK), nil
		}
	}
	atomic.AddUint64(&fsStats.DecodedStripes, 1)
	if !dataOK && nCrcOK >= s.k {
		if pay, ok := s.tryDecode(raw, crcOK, verify); ok {
			return pay, s.repairFrom(st, pay, crcOK), nil
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
					return pay, s.repairFrom(st, pay, sel), nil
				}
			}
		}
	}
	return nil, nil, fmt.Errorf("%w: stripe %d unrecoverable", ErrCorrupt, st)
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
	pay := make([]byte, BlockSize, BlockSize+tagSize)
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
// verified payload. Called only after verify passed. Every shard is
// tried; the first failed write is returned.
func (s *BlockStore) repairFrom(st int, payload []byte, trusted []bool) (err error) {
	encoded := false
	for f, ok := range trusted {
		if ok {
			continue
		}
		if !encoded {
			s.encodeStripe(payload)
			encoded = true
		}
		if werr := s.writeCell(f, st, s.shards[f]); werr != nil {
			err = cmp.Or(err, werr)
			continue
		}
		atomic.AddUint64(&fsStats.RepairedShards, 1)
	}
	return err
}

// --- Block I/O ------------------------------------------------------------

// seal draws a fresh nonce into block i's entry, seals data (BlockSize
// bytes) into s.ct under it with the block index as associated data, and
// puts the tag in the entry beside the nonce. It returns the ciphertext.
// data may be s.ct itself: GCM seals in place.
func (s *BlockStore) seal(i int, data []byte) []byte {
	e := s.entry(i)
	binary.LittleEndian.PutUint64(e, s.nonces.Uint64())
	binary.LittleEndian.PutUint32(e[8:nonceSize], uint32(s.nonces.Uint64()))
	binary.LittleEndian.PutUint64(s.word[:], uint64(i))
	sealed := s.aead.Seal(s.ct[:0], e[:nonceSize], data, s.word[:])
	copy(e[nonceSize:entryFlags], sealed[BlockSize:])
	return sealed[:BlockSize]
}

// open authenticates ct, a payload readStripe assembled for block i,
// against the block's table entry and decrypts it into s.pt. GCM clears
// its output when the tag fails, so it opens into scratch, never into a
// caller's buffer. A failed open counts a tag failure.
func (s *BlockStore) open(i int, ct []byte) bool {
	e := s.entry(i)
	sealed := ct[:BlockSize+tagSize]
	copy(sealed[BlockSize:], e[nonceSize:entryFlags])
	binary.LittleEndian.PutUint64(s.word[:], uint64(i))
	if _, err := s.aead.Open(s.pt[:0], e[:nonceSize], sealed, s.word[:]); err != nil {
		atomic.AddUint64(&fsStats.TagFailures, 1)
		return false
	}
	return true
}

// WriteBlock seals and stores one block (padded/truncated to
// BlockSize). The version table is updated in memory; Flush persists it.
// The first write of a block after a Flush lands on its shadow slot, so
// the last-committed ciphertext survives until the next commit.
func (s *BlockStore) WriteBlock(i int, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failed != nil {
		return s.failed
	}
	if i < 0 || i >= s.maxBlocks {
		return fmt.Errorf("fs: block %d out of range", i)
	}
	flags := &s.entry(i)[entryFlags]
	if !s.epochWritten[i] {
		*flags ^= flagSlot
		s.epochWritten[i] = true
	}
	*flags |= flagWritten
	// A full block seals straight from the caller's buffer; a short one
	// is zero-padded in scratch and sealed in place.
	if len(data) >= BlockSize {
		data = data[:BlockSize]
	} else {
		clear(s.ct[copy(s.ct, data):])
		data = s.ct
	}
	ct := s.seal(i, data)
	// The entry reaches disk with the next commit.
	s.stripeChanged[i*entrySize/BlockSize] = s.epoch + 1
	err := s.writeStripe(s.blockStripe(i, *flags&flagSlot), ct)
	s.dirtyHdr = true
	s.mutated()
	return s.fail("write block", err)
}

// fail latches the store's first host write error, wrapped with op, and
// returns the latched error (nil for a nil err). Caller holds s.mu.
func (s *BlockStore) fail(op string, err error) error {
	if err == nil {
		return nil
	}
	if s.failed == nil {
		s.failed = fmt.Errorf("fs: %s: %w", op, err)
	}
	return s.failed
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
// A failed read leaves dst untouched.
func (s *BlockStore) ReadBlockInto(i int, dst []byte) error {
	if len(dst) < BlockSize {
		return fmt.Errorf("fs: ReadBlockInto: buffer of %d bytes, need %d", len(dst), BlockSize)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	_, err := s.readBlockLocked(i, dst[:BlockSize])
	return err
}

// readBlockLocked opens block i (repairing its stripe) and, given a dst,
// copies the plaintext there once it has authenticated. The scrubber
// passes a nil dst: it opens into scratch and keeps nothing. repairErr
// is a refused repair-on-read rewrite; the block read is good
// regardless.
func (s *BlockStore) readBlockLocked(i int, dst []byte) (repairErr, err error) {
	if i < 0 || i >= s.maxBlocks {
		return nil, fmt.Errorf("fs: block %d out of range", i)
	}
	if !s.written(i) {
		clear(dst)
		return nil, nil
	}
	_, repairErr, err = s.readStripe(s.blockStripe(i, s.slot(i)), func(ct []byte) bool {
		return s.open(i, ct)
	})
	if err != nil {
		return nil, fmt.Errorf("%w: block %d", ErrCorrupt, i)
	}
	copy(dst, s.pt)
	return repairErr, nil
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
// the committed table is the other slot's. The MAC work is what changed
// since the last Flush, not since the slot was whole: the stripe MACs
// of the entries written this epoch, then the root over all T of them.
//
// Two Sync barriers order the commit: every shard file is synced after
// the stripe writes and before the records, and again after them. A
// failed write or Sync fail-stops the store: epoch has already moved
// to the new slot, so a later Flush would write into the committed one.
func (s *BlockStore) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failed != nil {
		return s.failed
	}
	s.epoch++
	slot := int(s.epoch & 1)
	T := s.tableStripes()
	// The slot holds the table of two commits ago; only stripes that have
	// changed since need writing. Until the last of them lands the slot
	// is neither table.
	whole := s.slotWhole[slot]
	s.slotWhole[slot] = 0
	for j := 0; j < T; j++ {
		if whole == 0 || s.stripeChanged[j] > whole {
			if err := s.writeStripe(slot*T+j, s.table[j*BlockSize:(j+1)*BlockSize]); err != nil {
				return s.fail("flush", err)
			}
			atomic.AddUint64(&fsStats.TableStripesWritten, 1)
		}
	}
	if err := s.syncAll(); err != nil {
		return s.fail("flush", err)
	}
	s.slotWhole[slot] = s.epoch
	for j := 0; j < T; j++ {
		if s.stripeChanged[j] == s.epoch {
			s.macStripe(j)
		}
	}
	s.root = s.rootV5()
	rec := s.commitRecord(s.epoch, s.root)
	for f := 0; f < s.nFiles(); f++ {
		if err := s.host.WriteFileAt(s.fileName(f), fileHeaderSize+slot*commitRecordSize, rec); err != nil {
			return s.fail("flush", err)
		}
	}
	if err := s.syncAll(); err != nil {
		return s.fail("flush", err)
	}
	clear(s.epochWritten)
	s.dirtyHdr = false
	s.mutated()
	return nil
}

// syncAll makes every shard file's writes durable.
func (s *BlockStore) syncAll() error {
	for _, name := range s.names {
		if err := s.host.Sync(name); err != nil {
			return err
		}
	}
	return nil
}

// mutated bumps the scrub generation. Caller holds s.mu.
func (s *BlockStore) mutated() {
	s.scrubGen++
	s.scrubClean = false
}

// --- Scrub and repair -----------------------------------------------------

// ScrubStep opens up to n blocks' committed stripes under their tags,
// repairing any rotted or missing shards it finds, and advances a
// persistent cursor. When a full pass completes with no concurrent
// mutation, the store latches clean and ScrubStep returns false until
// the next WriteBlock/Flush — so an idle LibOS eventually goes quiet
// instead of re-reading a clean device forever.
//
// Returns whether any work was done, and the first unrecoverable error
// encountered (scrubbing continues past errors so one dead stripe does
// not shadow the rest). A repair write the host refuses fail-stops the
// store, like one from Flush.
func (s *BlockStore) ScrubStep(n int) (worked bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failed != nil {
		return false, s.failed
	}
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
		if !s.written(i) {
			continue
		}
		repairErr, rerr := s.readBlockLocked(i, nil)
		if repairErr != nil {
			return true, s.fail("scrub", repairErr)
		}
		err = cmp.Or(err, rerr)
		atomic.AddUint64(&fsStats.ScrubbedBlocks, 1)
	}
	if s.scrubCursor >= s.maxBlocks {
		// End of pass: scrub the committed table and records too (only
		// meaningful when memory matches disk), then decide cleanliness.
		worked = true
		if !s.dirtyHdr {
			if werr := s.scrubTableLocked(); werr != nil {
				return true, s.fail("scrub", werr)
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
// that disagrees, returning the first refused write. Unlike block
// scrubbing this needs no parity decode: memory holds the authenticated
// truth. It covers all T stripes, not the ones the last Flush wrote: a
// slot that has just become the committed one holds stripes last written
// two or more commits ago that nothing read while it was inactive, and
// this pass is what bounds their exposure to rot; it also puts back a
// header that rotted out of the vote. Caller holds s.mu and has checked
// !s.dirtyHdr.
func (s *BlockStore) scrubTableLocked() error {
	slot := int(s.epoch & 1)
	T := s.tableStripes()
	for j := 0; j < T; j++ {
		st := slot*T + j
		s.encodeStripe(s.table[j*BlockSize : (j+1)*BlockSize])
		for f, shard := range s.shards {
			s.fillCell(shard)
			if err := s.rewrite(f, s.cellOff(st), s.cell); err != nil {
				return err
			}
		}
	}
	rec := s.commitRecord(s.epoch, s.root)
	hdr := s.fileHeader(0)
	for f := 0; f < s.nFiles(); f++ {
		binary.LittleEndian.PutUint16(hdr[fileHeaderIdxOff:], uint16(f))
		if err := cmp.Or(s.rewrite(f, fileHeaderSize+slot*commitRecordSize, rec), s.rewrite(f, 0, hdr)); err != nil {
			return err
		}
	}
	return nil
}

// rewrite puts want at off in shard file f unless it is already there.
// Caller holds s.mu.
func (s *BlockStore) rewrite(f, off int, want []byte) error {
	got := s.cells[:len(want)]
	cnt, err := s.host.ReadFileAt(s.fileName(f), off, got)
	if err == nil && cnt == len(want) && bytes.Equal(got, want) {
		return nil
	}
	if err := s.host.WriteFileAt(s.fileName(f), off, want); err != nil {
		return err
	}
	atomic.AddUint64(&fsStats.RepairedShards, 1)
	return nil
}

// Scrub runs ScrubStep to completion: one full verify-and-repair pass
// over every committed block plus the table. Returns blocks scrubbed
// and the first error.
func (s *BlockStore) Scrub() (blocks int, err error) {
	before := atomic.LoadUint64(&fsStats.ScrubbedBlocks)
	for {
		worked, serr := s.ScrubStep(64)
		err = cmp.Or(err, serr)
		if !worked {
			return int(atomic.LoadUint64(&fsStats.ScrubbedBlocks) - before), err
		}
	}
}

// Repair rebuilds every damaged or missing shard of the committed state
// — the offline recovery path after losing an entire backing file. It
// restores file headers and the commit record on every shard file, then
// walks all committed stripes re-verifying (and re-writing) shards
// against the version table. Returns the number of shards rebuilt. The store
// must be freshly opened or flushed (no uncommitted writes), because
// repair re-derives on-disk state from the last commit. A refused write
// fail-stops the store, like one from Flush.
func (s *BlockStore) Repair() (rebuilt int, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failed != nil {
		return 0, s.failed
	}
	if s.dirtyHdr {
		return 0, fmt.Errorf("fs: repair requires a clean (flushed) store")
	}
	before := atomic.LoadUint64(&fsStats.RepairedShards)
	werr := s.scrubTableLocked()
	for i := 0; werr == nil && i < s.maxBlocks; i++ {
		if !s.written(i) {
			continue
		}
		var rerr error
		werr, rerr = s.readBlockLocked(i, nil)
		err = cmp.Or(err, rerr)
	}
	rebuilt = int(atomic.LoadUint64(&fsStats.RepairedShards) - before)
	atomic.AddUint64(&fsStats.RebuiltShards, uint64(rebuilt))
	if werr != nil {
		return rebuilt, s.fail("repair", werr)
	}
	return rebuilt, err
}
