package fs

import (
	"encoding/binary"
	"errors"
	"fmt"
	"path"
	"strings"
	"sync"
)

// Filesystem errors.
var (
	// ErrNotExist reports a missing path.
	ErrNotExist = errors.New("fs: no such file or directory")
	// ErrExist reports a path that already exists.
	ErrExist = errors.New("fs: file exists")
	// ErrIsDir reports a file operation on a directory.
	ErrIsDir = errors.New("fs: is a directory")
	// ErrNotDir reports a directory operation on a file.
	ErrNotDir = errors.New("fs: not a directory")
	// ErrNotEmpty reports removing a non-empty directory.
	ErrNotEmpty = errors.New("fs: directory not empty")
	// ErrNameTooLong reports a path component over 58 bytes.
	ErrNameTooLong = errors.New("fs: name too long")
	// ErrReadOnly reports a write through a read-only handle or
	// filesystem.
	ErrReadOnly = errors.New("fs: read-only")
	// ErrCrossDevice reports a rename across mounts (EXDEV).
	ErrCrossDevice = errors.New("fs: cross-device rename")
	// ErrInvalid reports a structurally invalid operation, e.g. renaming
	// a directory into its own subtree (EINVAL).
	ErrInvalid = errors.New("fs: invalid operation")
)

const (
	inodeSize     = 128
	inodesPerBlk  = BlockSize / inodeSize
	numDirect     = 24
	ptrsPerBlk    = BlockSize / 4
	direntSize    = 64
	maxNameLen    = 58
	modeFile      = 1
	modeDir       = 2
	defaultInodes = 1024
)

type inode struct {
	mode     uint16
	nlink    uint16
	size     uint64
	direct   [numDirect]uint32
	indirect uint32
	dblIndir uint32
}

func (in *inode) marshal() []byte {
	b := make([]byte, inodeSize)
	binary.LittleEndian.PutUint16(b[0:], in.mode)
	binary.LittleEndian.PutUint16(b[2:], in.nlink)
	binary.LittleEndian.PutUint64(b[8:], in.size)
	for i, p := range in.direct {
		binary.LittleEndian.PutUint32(b[16+4*i:], p)
	}
	binary.LittleEndian.PutUint32(b[16+4*numDirect:], in.indirect)
	binary.LittleEndian.PutUint32(b[20+4*numDirect:], in.dblIndir)
	return b
}

func unmarshalInode(b []byte) inode {
	var in inode
	in.mode = binary.LittleEndian.Uint16(b[0:])
	in.nlink = binary.LittleEndian.Uint16(b[2:])
	in.size = binary.LittleEndian.Uint64(b[8:])
	for i := range in.direct {
		in.direct[i] = binary.LittleEndian.Uint32(b[16+4*i:])
	}
	in.indirect = binary.LittleEndian.Uint32(b[16+4*numDirect:])
	in.dblIndir = binary.LittleEndian.Uint32(b[20+4*numDirect:])
	return in
}

// EncFS is Occlum's writable encrypted filesystem: a Unix-like filesystem
// (superblock, bitmap, inode table, directories) over a protected block
// store, with a page cache shared by every SIP in the enclave.
type EncFS struct {
	mu    sync.Mutex
	store *BlockStore

	numInodes   int
	bitmapStart int
	bitmapBlks  int
	inodeStart  int
	inodeBlks   int
	dataStart   int

	// The page cache. cache maps a device block to its frame; frames
	// holds every frame ever made, in CLOCK order, and free those of them
	// that map no block. A miss at cacheCap evicts one page and refills
	// its frame; only the allocation path makes new frames, and it is
	// not bounded (DESIGN.md, "EncFS page cache").
	cache    map[int]*cpage
	cacheCap int
	frames   []*cpage
	free     []*cpage
	hand     int

	// vers[ino] counts the mutations of an inode since mount: every
	// write, truncate, free and allocation bumps it, and it is never
	// reset, so (ino, vers[ino]) never names two different contents —
	// not even across unlink and reuse of the inode number. In memory
	// only: it versions what this mount has served, for Regular.Version.
	vers []uint64

	// stats for /proc and tests
	reads, writes, hits uint64
}

// cpage is one page-cache frame. A *cpage is valid until the next
// getBlock or allocBlock: either may evict the page and hand its frame
// to another block. Take what you need from it, or fetch it again.
type cpage struct {
	data  []byte
	blk   int  // device block mapped here; -1 on the free list
	dirty bool // written back on eviction or Sync
	ref   bool // CLOCK reference bit: set by a hit, cleared by the hand
}

func geometry(maxBlocks int) (bitmapBlks, inodeBlks int) {
	bitmapBlks = (maxBlocks + BlockSize*8 - 1) / (BlockSize * 8)
	inodeBlks = (defaultInodes + inodesPerBlk - 1) / inodesPerBlk
	return
}

// Mkfs formats the block store with an empty filesystem.
func Mkfs(store *BlockStore) error {
	bitmapBlks, inodeBlks := geometry(store.MaxBlocks())
	fs := &EncFS{
		store:       store,
		numInodes:   defaultInodes,
		bitmapStart: 1,
		bitmapBlks:  bitmapBlks,
		inodeStart:  1 + bitmapBlks,
		inodeBlks:   inodeBlks,
		dataStart:   1 + bitmapBlks + inodeBlks,
		cache:       make(map[int]*cpage),
		cacheCap:    1024,
		vers:        make([]uint64, defaultInodes+1),
	}
	// Superblock.
	sb := make([]byte, BlockSize)
	copy(sb, "OCFS1\x00\x00\x00")
	binary.LittleEndian.PutUint32(sb[8:], uint32(fs.numInodes))
	if err := store.WriteBlock(0, sb); err != nil {
		return err
	}
	// Mark metadata blocks used in the bitmap.
	for b := 0; b < fs.dataStart; b++ {
		if err := fs.setBitmap(b, true); err != nil {
			return err
		}
	}
	// Root directory: inode 1.
	root := inode{mode: modeDir, nlink: 2}
	if err := fs.writeInode(1, &root); err != nil {
		return err
	}
	if err := fs.Sync(); err != nil {
		return err
	}
	return nil
}

// Mount opens a formatted filesystem.
func Mount(store *BlockStore) (*EncFS, error) {
	sb, err := store.ReadBlock(0)
	if err != nil {
		return nil, err
	}
	if string(sb[:5]) != "OCFS1" {
		return nil, fmt.Errorf("%w: bad superblock", ErrBadKey)
	}
	bitmapBlks, inodeBlks := geometry(store.MaxBlocks())
	numInodes := int(binary.LittleEndian.Uint32(sb[8:]))
	return &EncFS{
		store:       store,
		numInodes:   numInodes,
		bitmapStart: 1,
		bitmapBlks:  bitmapBlks,
		inodeStart:  1 + bitmapBlks,
		inodeBlks:   inodeBlks,
		dataStart:   1 + bitmapBlks + inodeBlks,
		cache:       make(map[int]*cpage),
		cacheCap:    1024,
		vers:        make([]uint64, numInodes+1),
	}, nil
}

// --- Page cache ------------------------------------------------------------

func (fs *EncFS) getBlock(i int) (*cpage, error) {
	if p, ok := fs.cache[i]; ok {
		fs.hits++
		p.ref = true
		return p, nil
	}
	for len(fs.cache) >= fs.cacheCap {
		if err := fs.evictOne(); err != nil {
			return nil, err
		}
	}
	p := fs.takeFrame()
	if err := fs.store.ReadBlockInto(i, p.data); err != nil {
		fs.free = append(fs.free, p)
		return nil, err
	}
	fs.reads++
	fs.mapFrame(p, i)
	return p, nil
}

// evictOne advances the CLOCK hand to the next mapped page not
// referenced since the hand last passed, writes it back if dirty — it
// and no other — and frees its frame.
func (fs *EncFS) evictOne() error {
	for {
		p := fs.frames[fs.hand]
		fs.hand = (fs.hand + 1) % len(fs.frames)
		if p.blk < 0 {
			continue
		}
		if p.ref {
			p.ref = false
			continue
		}
		if err := fs.writeBack(p); err != nil {
			return err
		}
		fs.unmapFrame(p)
		return nil
	}
}

func (fs *EncFS) writeBack(p *cpage) error {
	if !p.dirty {
		return nil
	}
	if err := fs.store.WriteBlock(p.blk, p.data); err != nil {
		return err
	}
	fs.writes++
	p.dirty = false
	return nil
}

// takeFrame returns an unmapped frame: a freed one before a new one.
func (fs *EncFS) takeFrame() *cpage {
	if n := len(fs.free); n > 0 {
		p := fs.free[n-1]
		fs.free = fs.free[:n-1]
		return p
	}
	p := &cpage{data: make([]byte, BlockSize), blk: -1}
	fs.frames = append(fs.frames, p)
	return p
}

func (fs *EncFS) mapFrame(p *cpage, blk int) {
	p.blk = blk
	fs.cache[blk] = p
}

// unmapFrame drops p's page without writing it back.
func (fs *EncFS) unmapFrame(p *cpage) {
	delete(fs.cache, p.blk)
	p.blk, p.dirty, p.ref = -1, false, false
	fs.free = append(fs.free, p)
}

// flushCacheLocked writes back every dirty page, in frame order: the
// same call sequence produces the same host write sequence.
func (fs *EncFS) flushCacheLocked() error {
	for _, p := range fs.frames {
		if p.blk >= 0 {
			if err := fs.writeBack(p); err != nil {
				return err
			}
		}
	}
	return nil
}

// Sync writes back every dirty page and persists the store's
// authentication state.
func (fs *EncFS) Sync() error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.flushCacheLocked(); err != nil {
		return err
	}
	return fs.store.Flush()
}

// CacheStats returns (device reads, device writes, cache hits).
func (fs *EncFS) CacheStats() (reads, writes, hits uint64) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.reads, fs.writes, fs.hits
}

// --- Bitmap and inode helpers ----------------------------------------------

func (fs *EncFS) setBitmap(block int, used bool) error {
	blk := fs.bitmapStart + block/(BlockSize*8)
	p, err := fs.getBlock(blk)
	if err != nil {
		return err
	}
	bit := block % (BlockSize * 8)
	if used {
		p.data[bit/8] |= 1 << (bit % 8)
	} else {
		p.data[bit/8] &^= 1 << (bit % 8)
	}
	p.dirty = true
	return nil
}

func (fs *EncFS) allocBlock() (int, error) {
	for blk := 0; blk < fs.bitmapBlks; blk++ {
		p, err := fs.getBlock(fs.bitmapStart + blk)
		if err != nil {
			return 0, err
		}
		for i, by := range p.data {
			if by == 0xFF {
				continue
			}
			for bit := 0; bit < 8; bit++ {
				if by&(1<<bit) == 0 {
					block := blk*BlockSize*8 + i*8 + bit
					if block >= fs.store.MaxBlocks() {
						return 0, ErrFull
					}
					p.data[i] |= 1 << bit
					p.dirty = true
					// Fresh blocks read as zero. Not bounded by
					// cacheCap: see the cache fields.
					zp := fs.takeFrame()
					clear(zp.data)
					zp.dirty = true
					fs.mapFrame(zp, block)
					return block, nil
				}
			}
		}
	}
	return 0, ErrFull
}

func (fs *EncFS) freeBlock(block int) error {
	if p, ok := fs.cache[block]; ok {
		fs.unmapFrame(p)
	}
	return fs.setBitmap(block, false)
}

func (fs *EncFS) readInode(ino int) (inode, error) {
	if ino < 1 || ino > fs.numInodes {
		return inode{}, fmt.Errorf("fs: bad inode %d", ino)
	}
	blk := fs.inodeStart + (ino-1)/inodesPerBlk
	p, err := fs.getBlock(blk)
	if err != nil {
		return inode{}, err
	}
	off := ((ino - 1) % inodesPerBlk) * inodeSize
	return unmarshalInode(p.data[off : off+inodeSize]), nil
}

// writeInode stores an inode and bumps its version: size, block
// pointers, allocation and freeing all pass through here, so no change of
// a file's extent or identity can leave its version standing.
func (fs *EncFS) writeInode(ino int, in *inode) error {
	fs.vers[ino]++
	blk := fs.inodeStart + (ino-1)/inodesPerBlk
	p, err := fs.getBlock(blk)
	if err != nil {
		return err
	}
	off := ((ino - 1) % inodesPerBlk) * inodeSize
	copy(p.data[off:off+inodeSize], in.marshal())
	p.dirty = true
	return nil
}

func (fs *EncFS) allocInode() (int, error) {
	for ino := 1; ino <= fs.numInodes; ino++ {
		in, err := fs.readInode(ino)
		if err != nil {
			return 0, err
		}
		if in.mode == 0 {
			return ino, nil
		}
	}
	return 0, ErrFull
}

// --- File block mapping ------------------------------------------------------

// fileBlock returns the device block holding file block fb of the inode,
// allocating it if alloc is set. Returns 0 for an unallocated hole.
func (fs *EncFS) fileBlock(in *inode, fb int, alloc bool) (int, error) {
	getPtr := func(tableBlk int, idx int) (int, error) {
		p, err := fs.getBlock(tableBlk)
		if err != nil {
			return 0, err
		}
		ptr := int(binary.LittleEndian.Uint32(p.data[idx*4:]))
		if ptr == 0 && alloc {
			nb, err := fs.allocBlock()
			if err != nil {
				return 0, err
			}
			// allocBlock may have evicted the table page: fetch it again.
			if p, err = fs.getBlock(tableBlk); err != nil {
				return 0, err
			}
			binary.LittleEndian.PutUint32(p.data[idx*4:], uint32(nb))
			p.dirty = true
			ptr = nb
		}
		return ptr, nil
	}

	switch {
	case fb < numDirect:
		ptr := int(in.direct[fb])
		if ptr == 0 && alloc {
			nb, err := fs.allocBlock()
			if err != nil {
				return 0, err
			}
			in.direct[fb] = uint32(nb)
			ptr = nb
		}
		return ptr, nil
	case fb < numDirect+ptrsPerBlk:
		if in.indirect == 0 {
			if !alloc {
				return 0, nil
			}
			nb, err := fs.allocBlock()
			if err != nil {
				return 0, err
			}
			in.indirect = uint32(nb)
		}
		return getPtr(int(in.indirect), fb-numDirect)
	default:
		fb -= numDirect + ptrsPerBlk
		if fb >= ptrsPerBlk*ptrsPerBlk {
			return 0, fmt.Errorf("fs: file too large")
		}
		if in.dblIndir == 0 {
			if !alloc {
				return 0, nil
			}
			nb, err := fs.allocBlock()
			if err != nil {
				return 0, err
			}
			in.dblIndir = uint32(nb)
		}
		l1, err := getPtr(int(in.dblIndir), fb/ptrsPerBlk)
		if err != nil || l1 == 0 {
			return l1, err
		}
		return getPtr(l1, fb%ptrsPerBlk)
	}
}

func (fs *EncFS) readAtLocked(ino int, p []byte, off int64) (int, error) {
	in, err := fs.readInode(ino)
	if err != nil {
		return 0, err
	}
	if off >= int64(in.size) {
		return 0, nil
	}
	if int64(len(p)) > int64(in.size)-off {
		p = p[:int64(in.size)-off]
	}
	total := 0
	for len(p) > 0 {
		fb := int(off / BlockSize)
		bo := int(off % BlockSize)
		n := min(BlockSize-bo, len(p))
		blk, err := fs.fileBlock(&in, fb, false)
		if err != nil {
			return total, err
		}
		if blk == 0 {
			for i := 0; i < n; i++ {
				p[i] = 0
			}
		} else {
			cp, err := fs.getBlock(blk)
			if err != nil {
				return total, err
			}
			copy(p[:n], cp.data[bo:bo+n])
		}
		p = p[n:]
		off += int64(n)
		total += n
	}
	return total, nil
}

func (fs *EncFS) writeAtLocked(ino int, p []byte, off int64) (int, error) {
	// Bumped before the first byte lands, not only by the writeInode at
	// the end: a write that fails midway has still changed the content.
	fs.vers[ino]++
	in, err := fs.readInode(ino)
	if err != nil {
		return 0, err
	}
	total := 0
	for len(p) > 0 {
		fb := int(off / BlockSize)
		bo := int(off % BlockSize)
		n := min(BlockSize-bo, len(p))
		blk, err := fs.fileBlock(&in, fb, true)
		if err != nil {
			return total, err
		}
		cp, err := fs.getBlock(blk)
		if err != nil {
			return total, err
		}
		copy(cp.data[bo:bo+n], p[:n])
		cp.dirty = true
		p = p[n:]
		off += int64(n)
		total += n
	}
	if uint64(off) > in.size {
		in.size = uint64(off)
	}
	if err := fs.writeInode(ino, &in); err != nil {
		return total, err
	}
	return total, nil
}

// level1Tables returns the level-1 table blocks a double-indirect block
// points at.
func (fs *EncFS) level1Tables(dblIndir int) ([]int, error) {
	p, err := fs.getBlock(dblIndir)
	if err != nil {
		return nil, err
	}
	var l1s []int
	for i := 0; i < ptrsPerBlk; i++ {
		if l1 := binary.LittleEndian.Uint32(p.data[i*4:]); l1 != 0 {
			l1s = append(l1s, int(l1))
		}
	}
	return l1s, nil
}

// truncateLocked frees all blocks of the inode and zeroes its size.
func (fs *EncFS) truncateLocked(ino int) error {
	in, err := fs.readInode(ino)
	if err != nil {
		return err
	}
	nblocks := int((in.size + BlockSize - 1) / BlockSize)
	for fb := 0; fb < nblocks; fb++ {
		blk, err := fs.fileBlock(&in, fb, false)
		if err != nil {
			return err
		}
		if blk != 0 {
			if err := fs.freeBlock(blk); err != nil {
				return err
			}
		}
	}
	if in.indirect != 0 {
		if err := fs.freeBlock(int(in.indirect)); err != nil {
			return err
		}
	}
	if in.dblIndir != 0 {
		// Free the level-1 tables too; freeBlock fetches the bitmap, so
		// their pointers are copied out of the page first.
		l1s, err := fs.level1Tables(int(in.dblIndir))
		if err != nil {
			return err
		}
		for _, l1 := range l1s {
			if err := fs.freeBlock(l1); err != nil {
				return err
			}
		}
		if err := fs.freeBlock(int(in.dblIndir)); err != nil {
			return err
		}
	}
	in.size = 0
	in.direct = [numDirect]uint32{}
	in.indirect, in.dblIndir = 0, 0
	return fs.writeInode(ino, &in)
}

// --- Directories -------------------------------------------------------------

func splitPath(p string) []string {
	p = path.Clean("/" + p)
	if p == "/" {
		return nil
	}
	return strings.Split(strings.TrimPrefix(p, "/"), "/")
}

// resolve walks a path to an inode number.
func (fs *EncFS) resolve(p string) (int, error) {
	ino := 1
	for _, comp := range splitPath(p) {
		next, err := fs.lookup(ino, comp)
		if err != nil {
			return 0, err
		}
		ino = next
	}
	return ino, nil
}

// resolveParent returns the inode of the parent directory and the final
// path component. The parent must actually be a directory: without the
// final mode check, creating "/f/child" under a regular file /f would
// hand the file's inode to addEntry, which would then append a dirent
// into the file's data (silent corruption, caught by the differential
// test).
func (fs *EncFS) resolveParent(p string) (int, string, error) {
	comps := splitPath(p)
	if len(comps) == 0 {
		return 0, "", fmt.Errorf("%w: root has no parent", ErrExist)
	}
	dir := 1
	for _, comp := range comps[:len(comps)-1] {
		next, err := fs.lookup(dir, comp)
		if err != nil {
			return 0, "", err
		}
		dir = next
	}
	din, err := fs.readInode(dir)
	if err != nil {
		return 0, "", err
	}
	if din.mode != modeDir {
		return 0, "", ErrNotDir
	}
	return dir, comps[len(comps)-1], nil
}

func (fs *EncFS) lookup(dirIno int, name string) (int, error) {
	din, err := fs.readInode(dirIno)
	if err != nil {
		return 0, err
	}
	if din.mode != modeDir {
		return 0, ErrNotDir
	}
	ents := int(din.size) / direntSize
	buf := make([]byte, direntSize)
	for i := 0; i < ents; i++ {
		if _, err := fs.readAtLocked(dirIno, buf, int64(i*direntSize)); err != nil {
			return 0, err
		}
		ino := binary.LittleEndian.Uint32(buf)
		if ino == 0 {
			continue
		}
		nl := int(buf[4])
		if string(buf[5:5+nl]) == name {
			return int(ino), nil
		}
	}
	return 0, fmt.Errorf("%w: %s", ErrNotExist, name)
}

func (fs *EncFS) addEntry(dirIno int, name string, ino int) error {
	if len(name) > maxNameLen {
		return ErrNameTooLong
	}
	din, err := fs.readInode(dirIno)
	if err != nil {
		return err
	}
	ent := make([]byte, direntSize)
	binary.LittleEndian.PutUint32(ent, uint32(ino))
	ent[4] = byte(len(name))
	copy(ent[5:], name)
	// Reuse a free slot if any.
	ents := int(din.size) / direntSize
	buf := make([]byte, direntSize)
	for i := 0; i < ents; i++ {
		if _, err := fs.readAtLocked(dirIno, buf, int64(i*direntSize)); err != nil {
			return err
		}
		if binary.LittleEndian.Uint32(buf) == 0 {
			_, err := fs.writeAtLocked(dirIno, ent, int64(i*direntSize))
			return err
		}
	}
	_, err = fs.writeAtLocked(dirIno, ent, int64(din.size))
	return err
}

func (fs *EncFS) removeEntry(dirIno int, name string) error {
	din, err := fs.readInode(dirIno)
	if err != nil {
		return err
	}
	ents := int(din.size) / direntSize
	buf := make([]byte, direntSize)
	for i := 0; i < ents; i++ {
		if _, err := fs.readAtLocked(dirIno, buf, int64(i*direntSize)); err != nil {
			return err
		}
		if binary.LittleEndian.Uint32(buf) == 0 {
			continue
		}
		nl := int(buf[4])
		if string(buf[5:5+nl]) == name {
			zero := make([]byte, direntSize)
			_, err := fs.writeAtLocked(dirIno, zero, int64(i*direntSize))
			return err
		}
	}
	return fmt.Errorf("%w: %s", ErrNotExist, name)
}

func (fs *EncFS) dirEmpty(ino int) (bool, error) {
	din, err := fs.readInode(ino)
	if err != nil {
		return false, err
	}
	ents := int(din.size) / direntSize
	buf := make([]byte, direntSize)
	for i := 0; i < ents; i++ {
		if _, err := fs.readAtLocked(ino, buf, int64(i*direntSize)); err != nil {
			return false, err
		}
		if binary.LittleEndian.Uint32(buf) != 0 {
			return false, nil
		}
	}
	return true, nil
}
