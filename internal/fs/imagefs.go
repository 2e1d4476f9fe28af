package fs

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"path"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/hostos"
)

// This file implements the read-only half of Occlum's union filesystem
// (§6): the integrity-protected image layer holding the trusted base
// image (binaries, libraries, configuration). The layout is a single
// blob in untrusted host storage:
//
//	block 0                superblock
//	blocks 1..             inode table (32-byte inodes)
//	blocks ..nBlocks-1     data extents (files and dirent arrays)
//	after the blocks       Merkle node region (32-byte SHA-256 nodes)
//
// Every file's data is one contiguous extent — the image is built once
// by occlum-image and never mutated, so there is no need for indirect
// blocks or a free list. Integrity is a binary Merkle tree over all
// nBlocks content blocks: leaves are H(0x00 ‖ block), interior nodes
// H(0x01 ‖ left ‖ right), and the root hash is pinned by the caller at
// mount time (in the paper's deployment it would be baked into the
// enclave measurement). Blocks are verified lazily on first read; the
// verified path is memoized, so steady-state re-reads of a cached block
// hash nothing at all.

const (
	imgInodeSize    = 32
	imgInodesPerBlk = BlockSize / imgInodeSize
	imgMaxBlocks    = 1 << 20 // 4 GiB of content — a sanity bound, not a design limit
	imgMaxDirBytes  = 1 << 24 // 256k dirents per directory — bounds walks over hostile inodes
	imgCachePages   = 4096    // 16 MiB of verified pages kept hot
	readAheadWindow = 8
)

// imgMaxNameLen caps image path components below the EncFS dirent limit
// by the whiteout prefix's length: every image entry must remain
// deletable through the union, and ".wh."+name has to fit a dirent in
// the writable upper layer.
const imgMaxNameLen = maxNameLen - len(whPrefix)

var imgMagic = [8]byte{'O', 'C', 'I', 'M', 'G', 0, 0, 1}

// imgInode is one immutable inode: {mode u16 @0, size u64 @8, start u32 @16}.
type imgInode struct {
	mode  uint16
	size  uint64
	start uint32
}

func (in imgInode) blocks() int { return int((in.size + BlockSize - 1) / BlockSize) }

func leafHash(data []byte) [32]byte {
	h := sha256.New()
	h.Write([]byte{0})
	h.Write(data)
	var out [32]byte
	h.Sum(out[:0])
	return out
}

func interiorHash(l, r [32]byte) [32]byte {
	h := sha256.New()
	h.Write([]byte{1})
	h.Write(l[:])
	h.Write(r[:])
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// nextPow2 returns the smallest power of two ≥ n (n ≥ 1).
func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// --- Builder ---------------------------------------------------------------

// ImageBuilder assembles a read-only image blob from a file tree. Use
// AddDir/AddFile, then Build. Intermediate directories are created
// implicitly. The output is deterministic: children are laid out in
// sorted name order.
type ImageBuilder struct {
	root *buildNode
}

type buildNode struct {
	isDir    bool
	data     []byte
	children map[string]*buildNode

	ino   int
	start uint32
	size  uint64
}

// NewImageBuilder returns an empty builder holding just the root
// directory.
func NewImageBuilder() *ImageBuilder {
	return &ImageBuilder{root: &buildNode{isDir: true, children: map[string]*buildNode{}}}
}

func (b *ImageBuilder) walk(p string, makeDirs bool) (*buildNode, string, error) {
	comps := splitPath(p)
	if len(comps) == 0 {
		return b.root, "", nil
	}
	cur := b.root
	for _, c := range comps[:len(comps)-1] {
		next, ok := cur.children[c]
		if !ok {
			if !makeDirs {
				return nil, "", fmt.Errorf("%w: %s", ErrNotExist, c)
			}
			// Implicitly created parents get the same name validation as
			// explicit AddDir: an oversized name would otherwise spill
			// past its dirent slot at Build time.
			if len(c) > imgMaxNameLen {
				return nil, "", fmt.Errorf("%w: %s", ErrNameTooLong, c)
			}
			next = &buildNode{isDir: true, children: map[string]*buildNode{}}
			cur.children[c] = next
		}
		if !next.isDir {
			return nil, "", fmt.Errorf("%w: %s", ErrNotDir, c)
		}
		cur = next
	}
	return cur, comps[len(comps)-1], nil
}

// AddFile places a regular file at p, creating parent directories.
func (b *ImageBuilder) AddFile(p string, data []byte) error {
	dir, name, err := b.walk(p, true)
	if err != nil {
		return err
	}
	if name == "" {
		return ErrIsDir
	}
	if len(name) > imgMaxNameLen {
		return ErrNameTooLong
	}
	if old, ok := dir.children[name]; ok && old.isDir {
		return fmt.Errorf("%w: %s", ErrIsDir, p)
	}
	dir.children[name] = &buildNode{data: append([]byte(nil), data...)}
	return nil
}

// AddDir places a directory at p, creating parents.
func (b *ImageBuilder) AddDir(p string) error {
	dir, name, err := b.walk(p, true)
	if err != nil {
		return err
	}
	if name == "" {
		return nil // root always exists
	}
	if len(name) > imgMaxNameLen {
		return ErrNameTooLong
	}
	if old, ok := dir.children[name]; ok {
		if !old.isDir {
			return fmt.Errorf("%w: %s", ErrExist, p)
		}
		return nil
	}
	dir.children[name] = &buildNode{isDir: true, children: map[string]*buildNode{}}
	return nil
}

func sortedNames(m map[string]*buildNode) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Build serializes the tree into an image blob and returns it with the
// Merkle root hash to pin at mount time.
func (b *ImageBuilder) Build() (blob []byte, root [32]byte, err error) {
	// Pass 1: number inodes in DFS order (root = 1).
	var nodes []*buildNode
	var number func(n *buildNode)
	number = func(n *buildNode) {
		nodes = append(nodes, n)
		n.ino = len(nodes)
		for _, name := range sortedNames(n.children) {
			number(n.children[name])
		}
	}
	number(b.root)
	nInodes := len(nodes)

	// Pass 2: materialize content (dirent arrays need child numbers) and
	// assign contiguous extents.
	inodeBlks := (nInodes + imgInodesPerBlk - 1) / imgInodesPerBlk
	next := 1 + inodeBlks
	for _, n := range nodes {
		content := n.data
		if n.isDir {
			content = make([]byte, len(n.children)*direntSize)
			for i, name := range sortedNames(n.children) {
				e := content[i*direntSize:]
				binary.LittleEndian.PutUint32(e, uint32(n.children[name].ino))
				e[4] = byte(len(name))
				copy(e[5:], name)
			}
			n.data = content
		}
		n.size = uint64(len(content))
		if n.size > 0 {
			n.start = uint32(next)
			next += int((n.size + BlockSize - 1) / BlockSize)
		}
	}
	nBlocks := next
	if nBlocks > imgMaxBlocks {
		return nil, root, fmt.Errorf("fs: image too large (%d blocks)", nBlocks)
	}

	// Pass 3: serialize the block region.
	blob = make([]byte, nBlocks*BlockSize)
	copy(blob, imgMagic[:])
	binary.LittleEndian.PutUint32(blob[8:], uint32(nBlocks))
	binary.LittleEndian.PutUint32(blob[12:], uint32(nInodes))
	binary.LittleEndian.PutUint32(blob[16:], 1) // inodeStart
	for _, n := range nodes {
		off := BlockSize + (n.ino-1)*imgInodeSize
		mode := uint16(modeFile)
		if n.isDir {
			mode = modeDir
		}
		binary.LittleEndian.PutUint16(blob[off:], mode)
		binary.LittleEndian.PutUint64(blob[off+8:], n.size)
		binary.LittleEndian.PutUint32(blob[off+16:], n.start)
		copy(blob[int(n.start)*BlockSize:], n.data)
	}

	// Pass 4: Merkle tree over the block region, appended as a node
	// heap. The root itself is NOT stored: it is the pinned trust
	// anchor, and a stored copy would be the one byte range no
	// verification path ever consults. Node i ≥ 2 lands at
	// treeOff + (i-2)*32.
	tree := merkleTree(blob, nBlocks)
	for i := 2; i < len(tree); i++ {
		blob = append(blob, tree[i][:]...)
	}
	return blob, tree[1], nil
}

// merkleTree builds the full node heap over the first nBlocks 4 KiB
// blocks of blob: children of node i at 2i/2i+1, leaves at
// L..L+nBlocks-1 (L = nextPow2(nBlocks)), missing leaves padded with
// leafHash(nil). Shared by Build and ImageRoot so the packer and the
// verifier can never disagree on tree shape.
func merkleTree(blob []byte, nBlocks int) [][32]byte {
	leafBase := nextPow2(nBlocks)
	tree := make([][32]byte, 2*leafBase)
	for i := 0; i < leafBase; i++ {
		if i < nBlocks {
			tree[leafBase+i] = leafHash(blob[i*BlockSize : (i+1)*BlockSize])
		} else {
			tree[leafBase+i] = leafHash(nil)
		}
	}
	for i := leafBase - 1; i >= 1; i-- {
		tree[i] = interiorHash(tree[2*i], tree[2*i+1])
	}
	return tree
}

// ImageRoot recomputes the Merkle root of a packed image blob — the
// value occlum-image prints for the operator to pin at mount time. It
// trusts the blob (use only at pack time, never on untrusted input
// as a mount check).
func ImageRoot(blob []byte) ([32]byte, error) {
	var root [32]byte
	if len(blob) < BlockSize || string(blob[:8]) != string(imgMagic[:]) {
		return root, fmt.Errorf("%w: not an image blob", ErrBadKey)
	}
	nBlocks := int(binary.LittleEndian.Uint32(blob[8:]))
	if nBlocks <= 0 || nBlocks > imgMaxBlocks || len(blob) < nBlocks*BlockSize {
		return root, fmt.Errorf("%w: bad block count", ErrBadKey)
	}
	return merkleTree(blob, nBlocks)[1], nil
}

// --- Mounted filesystem ----------------------------------------------------

// ImageFS is a mounted read-only image: every block is Merkle-verified
// against the pinned root hash on first read, cached afterwards, and
// sequential reads pull a read-ahead window through the verifier in one
// pass.
type ImageFS struct {
	host hostos.Disk
	name string

	nBlocks  int
	nInodes  int
	leafBase int
	treeOff  int

	mu sync.Mutex
	// trusted maps Merkle node index → verified hash. Seeded with the
	// pinned root; grows as verification paths succeed, so later
	// verifications stop at the nearest trusted ancestor.
	trusted map[int][32]byte
	cache   map[int][]byte
	node    [32]byte // nodeHash's read buffer
}

var _ FileSystem = (*ImageFS)(nil)

// MountImage opens the image blob stored in the named host file,
// pinning root as the only trusted input. Everything else — superblock,
// inodes, dirents, data, even the stored Merkle nodes — is untrusted
// until a verification path reaches the root.
func MountImage(h hostos.Disk, name string, root [32]byte) (*ImageFS, error) {
	hdr := make([]byte, 16)
	if n, err := h.ReadFileAt(name, 0, hdr); err != nil || n < len(hdr) {
		return nil, fmt.Errorf("%w: truncated image", ErrBadKey)
	}
	if string(hdr[:8]) != string(imgMagic[:]) {
		return nil, fmt.Errorf("%w: not an image blob", ErrBadKey)
	}
	nBlocks := int(binary.LittleEndian.Uint32(hdr[8:]))
	nInodes := int(binary.LittleEndian.Uint32(hdr[12:]))
	// Geometry from the (still unverified) superblock. Lying about it
	// changes the tree shape and fails the root comparison below; the
	// bounds here only keep allocations sane.
	if nBlocks <= 0 || nBlocks > imgMaxBlocks || nBlocks*BlockSize > h.FileSize(name) {
		return nil, fmt.Errorf("%w: bad block count", ErrBadKey)
	}
	if nInodes <= 0 || nInodes > nBlocks*imgInodesPerBlk {
		return nil, fmt.Errorf("%w: bad inode count", ErrBadKey)
	}
	ifs := &ImageFS{
		host: h, name: name,
		nBlocks: nBlocks, nInodes: nInodes,
		leafBase: nextPow2(nBlocks),
		treeOff:  nBlocks * BlockSize,
		trusted:  map[int][32]byte{1: root},
		cache:    make(map[int][]byte),
	}
	// Verifying the superblock now both authenticates the geometry and
	// fails fast on a wrong root.
	if _, err := ifs.getBlock(0); err != nil {
		return nil, err
	}
	return ifs, nil
}

// nodeHash reads stored Merkle node idx. Caller holds ifs.mu.
func (ifs *ImageFS) nodeHash(idx int) ([32]byte, error) {
	if n, err := ifs.host.ReadFileAt(ifs.name, ifs.treeOff+(idx-2)*32, ifs.node[:]); err != nil || n < 32 {
		return [32]byte{}, fmt.Errorf("%w: merkle node %d missing", ErrCorrupt, idx)
	}
	return ifs.node, nil
}

// verifyBlock checks block i's data against the pinned root, walking up
// the tree until it reaches a trusted node. On success the whole path
// (and the siblings that contributed to it) becomes trusted. Caller
// holds ifs.mu.
func (ifs *ImageFS) verifyBlock(i int, data []byte) error {
	type pathNode struct {
		idx int
		h   [32]byte
	}
	var settled []pathNode
	h := leafHash(data)
	idx := ifs.leafBase + i
	for {
		if want, ok := ifs.trusted[idx]; ok {
			if h != want {
				return fmt.Errorf("%w: image block %d", ErrCorrupt, i)
			}
			break
		}
		settled = append(settled, pathNode{idx, h})
		sib := idx ^ 1
		sh, err := ifs.nodeHash(sib)
		if err != nil {
			return err
		}
		settled = append(settled, pathNode{sib, sh})
		if idx&1 == 0 {
			h = interiorHash(h, sh)
		} else {
			h = interiorHash(sh, h)
		}
		idx >>= 1
	}
	// The computed chain matched a trusted ancestor: every node on the
	// path — including the stored siblings, which fed the matching
	// digests — is now known-good.
	for _, n := range settled {
		ifs.trusted[n.idx] = n.h
	}
	atomic.AddUint64(&fsStats.VerifiedBlocks, 1)
	return nil
}

// fetchBlock reads and verifies block i, without touching the cache.
// Caller holds ifs.mu.
func (ifs *ImageFS) fetchBlock(i int) ([]byte, error) {
	data := make([]byte, BlockSize)
	if n, err := ifs.host.ReadFileAt(ifs.name, i*BlockSize, data); err != nil || n < BlockSize {
		return nil, fmt.Errorf("%w: image block %d missing", ErrCorrupt, i)
	}
	if err := ifs.verifyBlock(i, data); err != nil {
		return nil, err
	}
	return data, nil
}

// getBlock returns a verified block through the page cache.
func (ifs *ImageFS) getBlock(i int) ([]byte, error) {
	ifs.mu.Lock()
	defer ifs.mu.Unlock()
	return ifs.getBlockLocked(i, 0)
}

// getBlockLocked serves block i, prefetching up to readAhead further
// blocks (a sequential read's next pages) through the verifier on a
// miss. Caller holds ifs.mu.
func (ifs *ImageFS) getBlockLocked(i, readAhead int) ([]byte, error) {
	if i < 0 || i >= ifs.nBlocks {
		return nil, fmt.Errorf("%w: image block %d out of range", ErrCorrupt, i)
	}
	if d, ok := ifs.cache[i]; ok {
		atomic.AddUint64(&fsStats.VerifyHits, 1)
		return d, nil
	}
	for len(ifs.cache) >= imgCachePages {
		// Evict one arbitrary page (map order is effectively random) —
		// wholesale clearing would throw away the block being streamed
		// and break the warm-read guarantee for any file that fits.
		for k := range ifs.cache {
			delete(ifs.cache, k)
			break
		}
	}
	d, err := ifs.fetchBlock(i)
	if err != nil {
		return nil, err
	}
	ifs.cache[i] = d
	for j := i + 1; j <= i+readAhead && j < ifs.nBlocks; j++ {
		if _, ok := ifs.cache[j]; ok {
			continue
		}
		rd, err := ifs.fetchBlock(j)
		if err != nil {
			// A tampered block further ahead must not fail this read;
			// the failure re-surfaces if the reader actually gets there.
			break
		}
		ifs.cache[j] = rd
		atomic.AddUint64(&fsStats.ReadAheads, 1)
	}
	return d, nil
}

func (ifs *ImageFS) readInode(ino int) (imgInode, error) {
	if ino < 1 || ino > ifs.nInodes {
		return imgInode{}, fmt.Errorf("%w: bad image inode %d", ErrCorrupt, ino)
	}
	blk := 1 + (ino-1)/imgInodesPerBlk
	d, err := ifs.getBlock(blk)
	if err != nil {
		return imgInode{}, err
	}
	off := ((ino - 1) % imgInodesPerBlk) * imgInodeSize
	in := imgInode{
		mode:  binary.LittleEndian.Uint16(d[off:]),
		size:  binary.LittleEndian.Uint64(d[off+8:]),
		start: binary.LittleEndian.Uint32(d[off+16:]),
	}
	// Extent bounds are attacker-controlled until verified reads prove
	// them; reject geometry that escapes the block region outright.
	if in.size > 0 {
		end := int(in.start) + in.blocks()
		if int(in.start) <= 0 || end > ifs.nBlocks {
			return imgInode{}, fmt.Errorf("%w: inode %d extent out of range", ErrCorrupt, ino)
		}
	}
	return in, nil
}

// readAt reads file content from an inode's extent with sequential
// read-ahead.
func (ifs *ImageFS) readAt(in imgInode, p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("fs: negative offset")
	}
	if off >= int64(in.size) {
		return 0, nil
	}
	if int64(len(p)) > int64(in.size)-off {
		p = p[:int64(in.size)-off]
	}
	extentEnd := int(in.start) + in.blocks()
	total := 0
	ifs.mu.Lock()
	defer ifs.mu.Unlock()
	for len(p) > 0 {
		blk := int(in.start) + int(off/BlockSize)
		bo := int(off % BlockSize)
		n := min(BlockSize-bo, len(p))
		ra := min(readAheadWindow, extentEnd-blk-1)
		d, err := ifs.getBlockLocked(blk, ra)
		if err != nil {
			return total, err
		}
		copy(p[:n], d[bo:bo+n])
		p = p[n:]
		off += int64(n)
		total += n
	}
	return total, nil
}

// forEachDirent walks a directory extent block at a time (dirents never
// straddle blocks: direntSize divides BlockSize), calling fn for each
// entry until it returns stop or an error.
func (ifs *ImageFS) forEachDirent(din imgInode, fn func(ino int, name string) (stop bool, err error)) error {
	if din.mode != modeDir {
		return ErrNotDir
	}
	if din.size > imgMaxDirBytes {
		return fmt.Errorf("%w: directory inode oversized", ErrCorrupt)
	}
	ents := int(din.size) / direntSize
	perBlock := BlockSize / direntSize
	ifs.mu.Lock()
	defer ifs.mu.Unlock()
	for i := 0; i < ents; i++ {
		d, err := ifs.getBlockLocked(int(din.start)+i/perBlock, 0)
		if err != nil {
			return err
		}
		e := d[(i%perBlock)*direntSize:]
		nl := int(e[4])
		if nl > maxNameLen {
			return fmt.Errorf("%w: dirent name length", ErrCorrupt)
		}
		stop, err := fn(int(binary.LittleEndian.Uint32(e)), string(e[5:5+nl]))
		if err != nil || stop {
			return err
		}
	}
	return nil
}

func (ifs *ImageFS) lookup(dirIno int, name string) (int, error) {
	din, err := ifs.readInode(dirIno)
	if err != nil {
		return 0, err
	}
	found := 0
	err = ifs.forEachDirent(din, func(ino int, n string) (bool, error) {
		if n == name {
			found = ino
			return true, nil
		}
		return false, nil
	})
	if err != nil {
		return 0, err
	}
	if found == 0 {
		return 0, fmt.Errorf("%w: %s", ErrNotExist, name)
	}
	return found, nil
}

func (ifs *ImageFS) resolve(p string) (int, error) {
	ino := 1
	for _, comp := range splitPath(p) {
		next, err := ifs.lookup(ino, comp)
		if err != nil {
			return 0, err
		}
		ino = next
	}
	return ino, nil
}

// imageNode is an open file on the image layer.
type imageNode struct {
	ifs *ImageFS
	ino int
	in  imgInode
}

var _ Node = (*imageNode)(nil)

func (n *imageNode) ReadAt(p []byte, off int64) (int, error) { return n.ifs.readAt(n.in, p, off) }

// ReadBorrow implements BorrowReader: it lends a read-only view of the
// verified page cache covering [off, off+max), clipped to one block and
// to the file size. The lent slice is safe indefinitely: cache entries
// are immutable after verification, and eviction only drops the map
// reference — it never recycles the storage under a borrower.
func (n *imageNode) ReadBorrow(off int64, max int) ([]byte, error) {
	in := n.in
	if off < 0 {
		return nil, fmt.Errorf("fs: negative offset")
	}
	if off >= int64(in.size) || max <= 0 {
		return nil, nil
	}
	if int64(max) > int64(in.size)-off {
		max = int(int64(in.size) - off)
	}
	blk := int(in.start) + int(off/BlockSize)
	bo := int(off % BlockSize)
	want := min(BlockSize-bo, max)
	extentEnd := int(in.start) + in.blocks()
	n.ifs.mu.Lock()
	d, err := n.ifs.getBlockLocked(blk, min(readAheadWindow, extentEnd-blk-1))
	n.ifs.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return d[bo : bo+want : bo+want], nil
}

var _ BorrowReader = (*imageNode)(nil)

func (n *imageNode) WriteAt(p []byte, off int64) (int, error) {
	return 0, ErrReadOnly
}
func (n *imageNode) Size() int64  { return int64(n.in.size) }
func (n *imageNode) Close() error { return nil }

// Version implements Versioned. The image is immutable, so one
// generation serves for the life of the mount.
func (n *imageNode) Version() FileVersion { return FileVersion{FS: n.ifs, Ino: n.ino} }

var _ Versioned = (*imageNode)(nil)

// Version implements VersionedFS: what Version on the node Open(p)
// returns.
func (ifs *ImageFS) Version(p string) (FileVersion, bool, error) {
	ino, err := ifs.resolve(p)
	if err != nil {
		return FileVersion{}, false, err
	}
	return FileVersion{FS: ifs, Ino: ino}, true, nil
}

var _ VersionedFS = (*ImageFS)(nil)

// Open opens a file or directory read-only; any writable flag fails
// with ErrReadOnly (the union layer turns that into a copy-up).
func (ifs *ImageFS) Open(p string, flags OpenFlag) (Node, error) {
	if flags.Writable() || flags&(OCreate|OTrunc) != 0 {
		return nil, ErrReadOnly
	}
	ino, err := ifs.resolve(p)
	if err != nil {
		return nil, err
	}
	in, err := ifs.readInode(ino)
	if err != nil {
		return nil, err
	}
	return &imageNode{ifs: ifs, ino: ino, in: in}, nil
}

// Mkdir always fails: the image is immutable.
func (ifs *ImageFS) Mkdir(string) error { return ErrReadOnly }

// Unlink always fails: the image is immutable.
func (ifs *ImageFS) Unlink(string) error { return ErrReadOnly }

// ReadDir lists a directory.
func (ifs *ImageFS) ReadDir(p string) ([]FileInfo, error) {
	ino, err := ifs.resolve(p)
	if err != nil {
		return nil, err
	}
	din, err := ifs.readInode(ino)
	if err != nil {
		return nil, err
	}
	// Collect (ino, name) pairs first: forEachDirent holds ifs.mu, and
	// readInode takes it again.
	type ent struct {
		ino  int
		name string
	}
	var raw []ent
	if err := ifs.forEachDirent(din, func(cIno int, name string) (bool, error) {
		raw = append(raw, ent{cIno, name})
		return false, nil
	}); err != nil {
		return nil, err
	}
	var out []FileInfo
	for _, e := range raw {
		cin, err := ifs.readInode(e.ino)
		if err != nil {
			return nil, err
		}
		out = append(out, FileInfo{
			Name:  e.name,
			Size:  int64(cin.size),
			IsDir: cin.mode == modeDir,
		})
	}
	return out, nil
}

// Stat describes a path.
func (ifs *ImageFS) Stat(p string) (FileInfo, error) {
	ino, err := ifs.resolve(p)
	if err != nil {
		return FileInfo{}, err
	}
	in, err := ifs.readInode(ino)
	if err != nil {
		return FileInfo{}, err
	}
	return FileInfo{Name: path.Base(cleanAbs(p)), Size: int64(in.size), IsDir: in.mode == modeDir}, nil
}
