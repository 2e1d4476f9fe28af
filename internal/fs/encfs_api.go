package fs

import (
	"encoding/binary"
	"errors"
	"fmt"
	"path"
	"strings"
)

// Regular is an open file on the encrypted filesystem. Offsets live in the
// LibOS open-file descriptions; Regular is stateless position-wise. It
// holds its inode's life at Open and is dead once the inode is freed, so
// it never reaches the file that reuses the inode number (DESIGN.md,
// "Occlum FS: image layer & union mount": the stale-handle rule).
type Regular struct {
	fs    *EncFS
	ino   int
	flags OpenFlag
	life  uint64
}

var _ Node = (*Regular)(nil)

// Open opens (and with OCreate, creates) a file.
func (fs *EncFS) Open(p string, flags OpenFlag) (Node, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	ino, err := fs.resolve(p)
	if err != nil {
		if flags&OCreate == 0 {
			return nil, err
		}
		dir, name, perr := fs.resolveParent(p)
		if perr != nil {
			return nil, perr
		}
		ino, err = fs.allocInode()
		if err != nil {
			return nil, err
		}
		in := inode{mode: modeFile, nlink: 1}
		if err := fs.writeInode(ino, &in); err != nil {
			return nil, err
		}
		if err := fs.addEntry(dir, name, ino); err != nil {
			return nil, err
		}
	} else {
		in, err := fs.readInode(ino)
		if err != nil {
			return nil, err
		}
		if in.mode == modeDir {
			if flags.Writable() {
				return nil, ErrIsDir
			}
		}
		if flags&OTrunc != 0 && in.mode == modeFile {
			if err := fs.truncateLocked(ino); err != nil {
				return nil, err
			}
		}
	}
	return &Regular{fs: fs, ino: ino, flags: flags, life: fs.life[ino]}, nil
}

// freed reports whether the handle's inode was freed since Open. Caller
// holds r.fs.mu.
func (r *Regular) freed() bool { return r.fs.life[r.ino] != r.life }

// ReadAt reads from the file at the given offset.
func (r *Regular) ReadAt(p []byte, off int64) (int, error) {
	if !r.flags.Readable() {
		return 0, ErrReadOnly
	}
	r.fs.mu.Lock()
	defer r.fs.mu.Unlock()
	if r.freed() {
		return 0, ErrNotExist
	}
	return r.fs.readAtLocked(r.ino, p, off)
}

// WriteAt writes to the file at the given offset.
func (r *Regular) WriteAt(p []byte, off int64) (int, error) {
	if !r.flags.Writable() {
		return 0, ErrReadOnly
	}
	r.fs.mu.Lock()
	defer r.fs.mu.Unlock()
	if r.freed() {
		return 0, ErrNotExist
	}
	return r.fs.writeAtLocked(r.ino, p, off)
}

// Size returns the current file size.
func (r *Regular) Size() int64 {
	r.fs.mu.Lock()
	defer r.fs.mu.Unlock()
	if r.freed() {
		return 0
	}
	in, err := r.fs.readInode(r.ino)
	if err != nil {
		return 0
	}
	return int64(in.size)
}

// Close releases the handle (data durability needs Sync).
func (r *Regular) Close() error { return nil }

// Version implements Versioned: the inode's mutation count, read under
// the lock every mutation holds. A freed file has the zero version,
// which no path's version equals.
func (r *Regular) Version() FileVersion {
	r.fs.mu.Lock()
	defer r.fs.mu.Unlock()
	if r.freed() {
		return FileVersion{}
	}
	return FileVersion{FS: r.fs, Ino: r.ino, Gen: r.fs.vers[r.ino]}
}

var _ Versioned = (*Regular)(nil)

// Version implements VersionedFS: what Version on the node Open(p)
// returns.
func (fs *EncFS) Version(p string) (FileVersion, bool, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	ino, err := fs.resolve(p)
	if err != nil {
		return FileVersion{}, false, err
	}
	return FileVersion{FS: fs, Ino: ino, Gen: fs.vers[ino]}, true, nil
}

var _ VersionedFS = (*EncFS)(nil)

// Mkdir creates a directory.
func (fs *EncFS) Mkdir(p string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if _, err := fs.resolve(p); err == nil {
		return fmt.Errorf("%w: %s", ErrExist, p)
	}
	dir, name, err := fs.resolveParent(p)
	if err != nil {
		return err
	}
	ino, err := fs.allocInode()
	if err != nil {
		return err
	}
	in := inode{mode: modeDir, nlink: 2}
	if err := fs.writeInode(ino, &in); err != nil {
		return err
	}
	return fs.addEntry(dir, name, ino)
}

// Unlink removes a file or an empty directory.
func (fs *EncFS) Unlink(p string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	ino, err := fs.resolve(p)
	if err != nil {
		return err
	}
	in, err := fs.readInode(ino)
	if err != nil {
		return err
	}
	if in.mode == modeDir {
		empty, err := fs.dirEmpty(ino)
		if err != nil {
			return err
		}
		if !empty {
			return ErrNotEmpty
		}
	}
	dir, name, err := fs.resolveParent(p)
	if err != nil {
		return err
	}
	return fs.freeInode(dir, name, ino)
}

// freeInode removes name, which links ino, from directory dir and frees
// the inode: its life ends first, so no open Regular reaches it again,
// then its blocks and the inode itself go.
func (fs *EncFS) freeInode(dir int, name string, ino int) error {
	if err := fs.removeEntry(dir, name); err != nil {
		return err
	}
	fs.life[ino]++
	if err := fs.truncateLocked(ino); err != nil {
		return err
	}
	return fs.writeInode(ino, &inode{})
}

// Rename moves oldp to newp, atomically replacing an existing target
// (file over file, directory over empty directory), as rename(2).
func (fs *EncFS) Rename(oldp, newp string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	oc, nc := cleanAbs(oldp), cleanAbs(newp)
	ino, err := fs.resolve(oc)
	if err != nil {
		return err
	}
	if oc == nc {
		return nil
	}
	if oc == "/" || nc == "/" {
		return fmt.Errorf("%w: rename of root", ErrInvalid)
	}
	// Directory cycle: EncFS paths are canonical (no hard links to
	// directories), so a prefix check suffices.
	if strings.HasPrefix(nc, oc+"/") {
		return fmt.Errorf("%w: rename into own subtree", ErrInvalid)
	}
	odir, oname, err := fs.resolveParent(oc)
	if err != nil {
		return err
	}
	ndir, nname, err := fs.resolveParent(nc)
	if err != nil {
		return err
	}
	if len(nname) > maxNameLen {
		return ErrNameTooLong
	}
	in, err := fs.readInode(ino)
	if err != nil {
		return err
	}
	tIno, terr := fs.lookup(ndir, nname)
	if terr != nil && !errors.Is(terr, ErrNotExist) {
		// A corrupt dirent block must not be mistaken for "no target":
		// proceeding could install a duplicate name in the directory.
		return terr
	}
	if terr == nil {
		tin, err := fs.readInode(tIno)
		if err != nil {
			return err
		}
		if in.mode == modeDir {
			if tin.mode != modeDir {
				return ErrNotDir
			}
			empty, err := fs.dirEmpty(tIno)
			if err != nil {
				return err
			}
			if !empty {
				return ErrNotEmpty
			}
		} else if tin.mode == modeDir {
			return ErrIsDir
		}
		if err := fs.freeInode(ndir, nname, tIno); err != nil {
			return err
		}
	}
	// Link under the new name before unlinking the old one: a failure
	// (e.g. ErrFull growing the target directory) leaves the file
	// reachable at its old path rather than lost.
	if err := fs.addEntry(ndir, nname, ino); err != nil {
		return err
	}
	return fs.removeEntry(odir, oname)
}

var _ Renamer = (*EncFS)(nil)

// ReadDir lists a directory.
func (fs *EncFS) ReadDir(p string) ([]FileInfo, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	ino, err := fs.resolve(p)
	if err != nil {
		return nil, err
	}
	din, err := fs.readInode(ino)
	if err != nil {
		return nil, err
	}
	if din.mode != modeDir {
		return nil, ErrNotDir
	}
	var out []FileInfo
	ents := int(din.size) / direntSize
	buf := make([]byte, direntSize)
	for i := 0; i < ents; i++ {
		if _, err := fs.readAtLocked(ino, buf, int64(i*direntSize)); err != nil {
			return nil, err
		}
		cIno := binary.LittleEndian.Uint32(buf)
		if cIno == 0 {
			continue
		}
		nl := int(buf[4])
		cin, err := fs.readInode(int(cIno))
		if err != nil {
			return nil, err
		}
		out = append(out, FileInfo{
			Name:  string(buf[5 : 5+nl]),
			Size:  int64(cin.size),
			IsDir: cin.mode == modeDir,
		})
	}
	return out, nil
}

// Stat describes a path.
func (fs *EncFS) Stat(p string) (FileInfo, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	ino, err := fs.resolve(p)
	if err != nil {
		return FileInfo{}, err
	}
	in, err := fs.readInode(ino)
	if err != nil {
		return FileInfo{}, err
	}
	return FileInfo{Name: path.Base(p), Size: int64(in.size), IsDir: in.mode == modeDir}, nil
}

var _ FileSystem = (*EncFS)(nil)
