package fs

import (
	"encoding/binary"
	"fmt"
)

// Fsck checks the on-disk invariants of the encrypted filesystem: every
// directory entry references a live inode of a sane mode, the tree is
// acyclic, no block is claimed by two owners, every claimed block is
// marked used in the bitmap, and no data block is marked used without an
// owner (a leak). The crash-consistency tests run it after remounting an
// image whose sync was cut short: the A/B-slot store plus the atomic
// header+table commit must leave a tree for which all of this still
// holds.
func (fs *EncFS) Fsck() error {
	fs.mu.Lock()
	defer fs.mu.Unlock()

	owner := make(map[int]int) // device block → owning inode
	claim := func(blk, ino int) error {
		if blk < fs.dataStart || blk >= fs.store.MaxBlocks() {
			return fmt.Errorf("fs: fsck: inode %d references out-of-range block %d", ino, blk)
		}
		if prev, ok := owner[blk]; ok {
			return fmt.Errorf("fs: fsck: block %d double-allocated (inodes %d and %d)", blk, prev, ino)
		}
		owner[blk] = ino
		used, err := fs.bitmapBit(blk)
		if err != nil {
			return err
		}
		if !used {
			return fmt.Errorf("fs: fsck: block %d of inode %d not marked used", blk, ino)
		}
		return nil
	}

	// claimInode walks one inode's block mapping, including the mapping
	// tables themselves.
	claimInode := func(ino int, in *inode) error {
		nblocks := int((in.size + BlockSize - 1) / BlockSize)
		for fb := 0; fb < nblocks; fb++ {
			blk, err := fs.fileBlock(in, fb, false)
			if err != nil {
				return err
			}
			if blk != 0 {
				if err := claim(blk, ino); err != nil {
					return err
				}
			}
		}
		if in.indirect != 0 {
			if err := claim(int(in.indirect), ino); err != nil {
				return err
			}
		}
		if in.dblIndir != 0 {
			if err := claim(int(in.dblIndir), ino); err != nil {
				return err
			}
			l1s, err := fs.level1Tables(int(in.dblIndir))
			if err != nil {
				return err
			}
			for _, l1 := range l1s {
				if err := claim(l1, ino); err != nil {
					return err
				}
			}
		}
		return nil
	}

	visited := make(map[int]bool)
	var walk func(ino int) error
	walk = func(ino int) error {
		if visited[ino] {
			return fmt.Errorf("fs: fsck: inode %d referenced twice (cycle or duplicate dirent)", ino)
		}
		visited[ino] = true
		in, err := fs.readInode(ino)
		if err != nil {
			return err
		}
		if in.mode != modeFile && in.mode != modeDir {
			return fmt.Errorf("fs: fsck: inode %d has invalid mode %d", ino, in.mode)
		}
		if err := claimInode(ino, &in); err != nil {
			return err
		}
		if in.mode != modeDir {
			return nil
		}
		ents := int(in.size) / direntSize
		buf := make([]byte, direntSize)
		for i := 0; i < ents; i++ {
			if _, err := fs.readAtLocked(ino, buf, int64(i*direntSize)); err != nil {
				return err
			}
			cIno := int(binary.LittleEndian.Uint32(buf))
			if cIno == 0 {
				continue
			}
			if nl := int(buf[4]); nl > maxNameLen {
				return fmt.Errorf("fs: fsck: dirent %d of inode %d has bad name length %d", i, ino, nl)
			}
			if err := walk(cIno); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(1); err != nil {
		return err
	}

	// Leak check: every data-area block marked used must have an owner.
	for blk := fs.dataStart; blk < fs.store.MaxBlocks(); blk++ {
		used, err := fs.bitmapBit(blk)
		if err != nil {
			return err
		}
		if used {
			if _, ok := owner[blk]; !ok {
				return fmt.Errorf("fs: fsck: block %d leaked (marked used, no owner)", blk)
			}
		}
	}
	return nil
}

// bitmapBit reads one allocation bit. Caller holds fs.mu.
func (fs *EncFS) bitmapBit(block int) (bool, error) {
	p, err := fs.getBlock(fs.bitmapStart + block/(BlockSize*8))
	if err != nil {
		return false, err
	}
	bit := block % (BlockSize * 8)
	return p.data[bit/8]&(1<<(bit%8)) != 0, nil
}
