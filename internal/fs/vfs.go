package fs

import (
	"fmt"
	"path"
	"sort"
	"strings"
)

// OpenFlag is the open(2)-style flag set of the LibOS VFS.
type OpenFlag int

// Open flags.
const (
	ORdOnly OpenFlag = 0
	OWrOnly OpenFlag = 1
	ORdWr   OpenFlag = 2

	OCreate OpenFlag = 0x40
	OTrunc  OpenFlag = 0x200
	OAppend OpenFlag = 0x400

	oAccMask OpenFlag = 3
)

// Readable reports whether the access mode permits reads.
func (f OpenFlag) Readable() bool { return f&oAccMask != OWrOnly }

// Writable reports whether the access mode permits writes.
func (f OpenFlag) Writable() bool { return f&oAccMask != ORdOnly }

// FileInfo describes a file for Stat and ReadDir.
type FileInfo struct {
	Name  string
	Size  int64
	IsDir bool
}

// Node is an open regular-file-like object. Stream objects (pipes,
// sockets, TTYs) live at the LibOS FD layer, not in the VFS.
type Node interface {
	ReadAt(p []byte, off int64) (int, error)
	WriteAt(p []byte, off int64) (int, error)
	Size() int64
	Close() error
}

// BorrowReader is the zero-copy read interface: nodes whose data lives
// in an immutable in-enclave cache (the ImageFS verified page cache)
// lend a read-only view of [off, off+max) instead of copying it out.
// The returned slice aliases the cache and must not be modified; one
// call lends at most one cache block, so callers loop. A (nil, nil)
// return means EOF. sendfile uses this to move image bytes to a socket
// ring with no intermediate buffer — and because the lend comes from
// the verified cache, lazy Merkle verification still happens exactly
// once per block, on the first touch.
type BorrowReader interface {
	ReadBorrow(off int64, max int) ([]byte, error)
}

// FileVersion names the content of one file at one moment: two equal
// FileVersions, taken from nodes of a running system, mean byte-identical
// content. FS is the filesystem instance that holds the file (identity,
// never dereferenced), Ino its inode there, and Gen a count that moves on
// every change to that inode's content or identity and is never reused.
type FileVersion struct {
	FS  FileSystem
	Ino int
	Gen uint64
}

// Versioned is the optional content-version capability of a Node; the
// LibOS loader keys its verified-image cache on it. Filesystems whose
// content is synthesized per open (devfs, procfs) do not implement it,
// and their files are loaded uncached. A union mount hands out the
// answering layer's own node for read-only opens, so the version is that
// layer's and a copy-up — which moves the answer to the upper layer —
// changes it.
type Versioned interface {
	Version() FileVersion
}

// FileSystem is one mountable filesystem.
type FileSystem interface {
	Open(path string, flags OpenFlag) (Node, error)
	Mkdir(path string) error
	Unlink(path string) error
	ReadDir(path string) ([]FileInfo, error)
	Stat(path string) (FileInfo, error)
}

// Renamer is the optional rename capability of a FileSystem. Read-only
// and special filesystems (devfs, procfs, the image layer) simply do not
// implement it.
type Renamer interface {
	Rename(oldpath, newpath string) error
}

// VFS dispatches paths across mounted filesystems by longest prefix, as
// the Occlum LibOS does for /, /dev and /proc.
type VFS struct {
	mounts []mountPoint
}

type mountPoint struct {
	prefix string
	fs     FileSystem
}

// NewVFS creates an empty mount table.
func NewVFS() *VFS { return &VFS{} }

// Mount attaches fs at prefix ("/" for the root filesystem). Longest
// prefix wins during resolution.
func (v *VFS) Mount(prefix string, fs FileSystem) {
	prefix = path.Clean("/" + prefix)
	v.mounts = append(v.mounts, mountPoint{prefix: prefix, fs: fs})
	sort.Slice(v.mounts, func(i, j int) bool {
		return len(v.mounts[i].prefix) > len(v.mounts[j].prefix)
	})
}

func (v *VFS) route(p string) (FileSystem, string, error) {
	p = path.Clean("/" + p)
	for _, m := range v.mounts {
		if p == m.prefix || strings.HasPrefix(p, m.prefix+"/") || m.prefix == "/" {
			rel := strings.TrimPrefix(p, m.prefix)
			if rel == "" {
				rel = "/"
			}
			return m.fs, rel, nil
		}
	}
	return nil, "", fmt.Errorf("%w: %s (nothing mounted)", ErrNotExist, p)
}

// Open resolves and opens a path.
func (v *VFS) Open(p string, flags OpenFlag) (Node, error) {
	fs, rel, err := v.route(p)
	if err != nil {
		return nil, err
	}
	return fs.Open(rel, flags)
}

// Mkdir creates a directory.
func (v *VFS) Mkdir(p string) error {
	fs, rel, err := v.route(p)
	if err != nil {
		return err
	}
	return fs.Mkdir(rel)
}

// Unlink removes a file or empty directory.
func (v *VFS) Unlink(p string) error {
	fs, rel, err := v.route(p)
	if err != nil {
		return err
	}
	return fs.Unlink(rel)
}

// ReadDir lists a directory.
func (v *VFS) ReadDir(p string) ([]FileInfo, error) {
	fs, rel, err := v.route(p)
	if err != nil {
		return nil, err
	}
	return fs.ReadDir(rel)
}

// Stat describes a path.
func (v *VFS) Stat(p string) (FileInfo, error) {
	fs, rel, err := v.route(p)
	if err != nil {
		return FileInfo{}, err
	}
	return fs.Stat(rel)
}

// Rename moves oldp to newp. Both paths must resolve to the same mount
// (no cross-filesystem moves, as rename(2)'s EXDEV), and the mount must
// implement Renamer.
func (v *VFS) Rename(oldp, newp string) error {
	ofs, orel, err := v.route(oldp)
	if err != nil {
		return err
	}
	nfs, nrel, err := v.route(newp)
	if err != nil {
		return err
	}
	if ofs != nfs {
		return fmt.Errorf("%w: %s -> %s", ErrCrossDevice, oldp, newp)
	}
	r, ok := ofs.(Renamer)
	if !ok {
		return ErrReadOnly
	}
	return r.Rename(orel, nrel)
}
