package fs

import (
	"errors"
	"fmt"
	"path"
	"strings"
	"sync"
	"sync/atomic"
)

// UnionFS completes Occlum's filesystem picture (§6): the writable
// encrypted EncFS layered over the integrity-verified read-only image.
// Reads fall through to the lowest layer holding the path; opening an
// image file for writing (or truncating) copies it up into the writable
// layer, as overlayfs does; unlink of an image path leaves a whiteout
// marker so the name stays dead across remounts. SIPs see one ordinary
// tree — the VFS dispatches to the union exactly like to any other
// mounted filesystem.
//
// Whiteout convention (overlayfs-style, adapted to a filesystem without
// xattrs): a zero-length upper file ".wh.<name>" hides <name> in the
// lower layer; an upper directory containing ".wh..wh..opq" is opaque
// (its lower counterpart does not show through). Names beginning with
// ".wh." are reserved and cannot be created or addressed through the
// union.

// ErrReservedName reports a path component using the whiteout prefix.
var ErrReservedName = errors.New("fs: name reserved by the union layer")

const (
	whPrefix     = ".wh."
	opaqueMarker = ".wh..wh..opq"
)

// UnionFS is a two-layer union mount.
type UnionFS struct {
	// mu serializes compound operations (copy-up, whiteout transitions,
	// rename). Plain reads only take the underlying filesystems' locks.
	mu    sync.Mutex
	upper FileSystem
	lower FileSystem
}

var _ FileSystem = (*UnionFS)(nil)
var _ VersionedFS = (*UnionFS)(nil)
var _ Renamer = (*UnionFS)(nil)

// NewUnionFS layers the writable upper filesystem over the read-only
// lower one.
func NewUnionFS(upper, lower FileSystem) *UnionFS {
	return &UnionFS{upper: upper, lower: lower}
}

func whiteoutPath(p string) string {
	dir, base := path.Split(cleanAbs(p))
	return path.Join(dir, whPrefix+base)
}

func reservedName(p string) bool {
	for _, c := range splitPath(p) {
		if strings.HasPrefix(c, whPrefix) {
			return true
		}
	}
	return false
}

// absent reports whether a Stat error means "no such entry" (as opposed
// to an integrity failure, which must surface as itself — treating a
// corrupt layer as empty would fail open).
func absent(err error) bool {
	return errors.Is(err, ErrNotExist) || errors.Is(err, ErrNotDir)
}

// hasWhiteout reports whether p is whited out. A whiteout name too long
// for the upper layer was never made: a name of 55–58 bytes has none.
func (u *UnionFS) hasWhiteout(p string) (bool, error) {
	_, err := u.upper.Stat(whiteoutPath(p))
	if err == nil {
		return true, nil
	}
	if absent(err) || errors.Is(err, ErrNameTooLong) {
		return false, nil
	}
	return false, err
}

func (u *UnionFS) isOpaque(dir string) (bool, error) {
	_, err := u.upper.Stat(path.Join(cleanAbs(dir), opaqueMarker))
	if err == nil {
		return true, nil
	}
	if absent(err) {
		return false, nil
	}
	return false, err
}

// loc describes where a union path lives.
type loc struct {
	upOK bool
	upFi FileInfo
	// loOK means the lower entry is visible: present, not whited out,
	// not shadowed by an upper file, and under no opaque upper dir.
	loOK bool
	loFi FileInfo
	// loPresent means the lower entry exists beneath a live lower chain
	// even if an upper file or opaque dir currently shadows it — the
	// cases where removing the upper entry would resurrect it, so
	// unlink/rename must leave a whiteout.
	loPresent bool
}

func (l loc) exists() bool { return l.upOK || l.loOK }

func (l loc) fi() FileInfo {
	if l.upOK {
		return l.upFi
	}
	return l.loFi
}

func (l loc) isDir() bool { return l.fi().IsDir }

// locate walks p component by component, tracking whether the lower
// layer is still alive at each step (an upper regular file or an opaque
// upper directory kills the lower subtree; a whiteout kills one name).
func (u *UnionFS) locate(p string) (loc, error) {
	p = cleanAbs(p)
	if reservedName(p) {
		return loc{}, fmt.Errorf("%w: %s", ErrReservedName, p)
	}
	cur := "/"
	l := loc{}
	if fi, err := u.upper.Stat("/"); err == nil {
		l.upOK, l.upFi = true, fi
	} else if !absent(err) {
		return loc{}, err // fail closed on upper-root corruption
	}
	if fi, err := u.lower.Stat("/"); err == nil {
		opq, oerr := u.isOpaque("/")
		if oerr != nil {
			return loc{}, oerr
		}
		if !opq {
			l.loOK, l.loPresent, l.loFi = true, true, fi
		}
	} else if !absent(err) {
		return loc{}, err // fail closed on lower-root corruption
	}
	for _, comp := range splitPath(p) {
		// The parent must be a directory in at least one live layer.
		if !l.exists() {
			return loc{}, fmt.Errorf("%w: %s", ErrNotExist, cur)
		}
		if !l.isDir() {
			return loc{}, fmt.Errorf("%w: %s", ErrNotDir, cur)
		}
		parentUpDir := l.upOK && l.upFi.IsDir
		parentLoDir := l.loOK && l.loFi.IsDir
		cur = path.Join(cur, comp)
		next := loc{}
		if parentUpDir {
			fi, err := u.upper.Stat(cur)
			switch {
			case err == nil:
				next.upOK, next.upFi = true, fi
			case absent(err):
				// genuinely absent above
			default:
				// A corrupt upper layer must not fall back to stale
				// lower content (an undetected rollback of user data).
				return loc{}, err
			}
		}
		if parentLoDir {
			whited := false
			if parentUpDir {
				var werr error
				whited, werr = u.hasWhiteout(cur)
				if werr != nil {
					return loc{}, werr
				}
			}
			if !whited {
				fi, err := u.lower.Stat(cur)
				switch {
				case err == nil:
					next.loOK, next.loPresent, next.loFi = true, true, fi
				case absent(err):
					// genuinely absent below
				default:
					// Integrity failures (ErrCorrupt) must surface as
					// themselves, not masquerade as a missing path.
					return loc{}, err
				}
			}
		}
		// An upper file shadows the lower subtree; an opaque upper dir
		// hides the lower counterpart's contents (the dir itself stays
		// merged for Stat, but children resolve upper-only). Either way
		// the lower entry is still *present*: unlinking the upper entry
		// alone would resurrect it. The opaque probe (an upper Stat)
		// only runs when there is a lower counterpart to hide.
		if next.upOK && next.loOK {
			shadow := !next.upFi.IsDir
			if !shadow {
				var oerr error
				shadow, oerr = u.isOpaque(cur)
				if oerr != nil {
					return loc{}, oerr
				}
			}
			if shadow {
				next.loOK = false
			}
		}
		l = next
	}
	if !l.exists() {
		return l, fmt.Errorf("%w: %s", ErrNotExist, p)
	}
	return l, nil
}

// ensureUpperDirsLocked materializes the directory chain of dir in the
// upper layer (each missing component must be a visible lower
// directory). Caller holds u.mu.
func (u *UnionFS) ensureUpperDirsLocked(dir string) error {
	dir = cleanAbs(dir)
	if dir == "/" {
		return nil
	}
	comps := splitPath(dir)
	cur := ""
	for _, c := range comps {
		cur = cur + "/" + c
		if fi, err := u.upper.Stat(cur); err == nil {
			if !fi.IsDir {
				return fmt.Errorf("%w: %s", ErrNotDir, cur)
			}
			continue
		}
		if err := u.upper.Mkdir(cur); err != nil {
			return err
		}
	}
	return nil
}

func (u *UnionFS) setWhiteoutLocked(p string) error {
	if err := u.ensureUpperDirsLocked(path.Dir(cleanAbs(p))); err != nil {
		return err
	}
	n, err := u.upper.Open(whiteoutPath(p), OCreate|OWrOnly)
	if err != nil {
		return err
	}
	n.Close()
	atomic.AddUint64(&fsStats.Whiteouts, 1)
	return nil
}

// copyUpLocked copies the lower file at p into the upper layer,
// returning an upper node open with the given flags. Caller holds u.mu.
func (u *UnionFS) copyUpLocked(p string, flags OpenFlag, copyData bool) (Node, error) {
	if _, err := u.upper.Stat(p); err == nil {
		// Someone else copied up between the check and now. OTrunc must
		// survive the reopen — a concurrent truncating open still has
		// to truncate; only the create flag is spent.
		return u.upper.Open(p, flags&^OCreate)
	}
	if wh, err := u.hasWhiteout(p); err != nil {
		return nil, err
	} else if wh {
		// The path was unlinked between the caller's locate and u.mu:
		// copying up now would re-publish the deleted name.
		return nil, fmt.Errorf("%w: %s unlinked", ErrNotExist, p)
	}
	if err := u.ensureUpperDirsLocked(path.Dir(cleanAbs(p))); err != nil {
		return nil, err
	}
	un, err := u.upper.Open(p, flags|OCreate)
	if err != nil {
		return nil, err
	}
	if copyData {
		ln, err := u.lower.Open(p, ORdOnly)
		if err != nil {
			un.Close()
			return nil, err
		}
		defer ln.Close()
		buf := make([]byte, 64*1024)
		for off := int64(0); off < ln.Size(); {
			n, err := ln.ReadAt(buf, off)
			if n > 0 {
				if _, werr := un.WriteAt(buf[:n], off); werr != nil {
					un.Close()
					return nil, werr
				}
				off += int64(n)
			}
			if err != nil {
				un.Close()
				return nil, err
			}
			if n == 0 {
				break
			}
		}
	}
	atomic.AddUint64(&fsStats.CopyUps, 1)
	return un, nil
}

// Open resolves p across both layers. A writable or truncating open of
// a lower-only file copies it up before returning (OTrunc skips the data
// copy), so every handle that can change a file is an upper-layer handle
// and follows that layer's stale-handle rule; a read-only handle on a
// lower file keeps reading the immutable lower bytes. Creates land in
// the upper layer, clearing any whiteout.
func (u *UnionFS) Open(p string, flags OpenFlag) (Node, error) {
	p = cleanAbs(p)
	l, err := u.locate(p)
	if err != nil {
		if !errors.Is(err, ErrNotExist) || flags&OCreate == 0 {
			return nil, err
		}
		// Create: the parent must exist and be a directory.
		u.mu.Lock()
		defer u.mu.Unlock()
		pl, perr := u.locate(path.Dir(p))
		if perr != nil {
			return nil, perr
		}
		if !pl.isDir() {
			return nil, ErrNotDir
		}
		if err := u.ensureUpperDirsLocked(path.Dir(p)); err != nil {
			return nil, err
		}
		// Create first, clear the whiteout after: if the create fails
		// (e.g. upper layer full), the whiteout must keep hiding the
		// deleted lower entry. The transient both-exist state is benign
		// — the upper entry shadows the name either way.
		n, err := u.upper.Open(p, flags)
		if err != nil {
			return nil, err
		}
		u.upper.Unlink(whiteoutPath(p)) // ignore error: may not exist
		return n, nil
	}
	if l.upOK {
		return u.upper.Open(p, flags)
	}
	// Lower only. The read-only layer rejects OCreate/OTrunc outright,
	// but open(2) with O_CREAT on an existing file is an ordinary open —
	// strip the flag before delegating.
	if l.loFi.IsDir {
		if flags.Writable() {
			return nil, ErrIsDir
		}
		return u.lower.Open(p, flags&^OCreate)
	}
	if !flags.Writable() && flags&OTrunc == 0 {
		return u.lower.Open(p, flags&^OCreate)
	}
	// Truncating opens copy up too (EncFS truncates even on read-only
	// handles, so the union must): the lower content is dead, no copy.
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.copyUpLocked(p, flags, flags&OTrunc == 0)
}

// Version implements VersionedFS. A read-only Open hands out the
// answering layer's node, so the version is that layer's.
func (u *UnionFS) Version(p string) (FileVersion, bool, error) {
	p = cleanAbs(p)
	l, err := u.locate(p)
	if err != nil {
		return FileVersion{}, false, err
	}
	layer := u.lower
	if l.upOK {
		layer = u.upper
	}
	if vfs, ok := layer.(VersionedFS); ok {
		return vfs.Version(p)
	}
	return FileVersion{}, false, nil
}

// Mkdir creates a directory in the upper layer. Re-creating a name
// whited out over a lower directory makes the new directory opaque, so
// the old lower contents do not resurface.
func (u *UnionFS) Mkdir(p string) error {
	p = cleanAbs(p)
	u.mu.Lock()
	defer u.mu.Unlock()
	if _, err := u.locate(p); err == nil {
		return fmt.Errorf("%w: %s", ErrExist, p)
	} else if !errors.Is(err, ErrNotExist) {
		return err
	}
	pl, err := u.locate(path.Dir(p))
	if err != nil {
		return err
	}
	if !pl.isDir() {
		return ErrNotDir
	}
	if err := u.ensureUpperDirsLocked(path.Dir(p)); err != nil {
		return err
	}
	// Order matters for failure atomicity: the directory (and, when a
	// hidden lower dir exists, its opacity marker) must be in place
	// before the whiteout goes away, or a failure mid-sequence would
	// resurrect the deleted lower contents.
	wasWhiteout, err := u.hasWhiteout(p)
	if err != nil {
		return err
	}
	if err := u.upper.Mkdir(p); err != nil {
		return err
	}
	if wasWhiteout {
		if _, lerr := u.lower.Stat(p); lerr == nil {
			n, err := u.upper.Open(path.Join(p, opaqueMarker), OCreate|OWrOnly)
			if err != nil {
				return err
			}
			n.Close()
		}
		if err := u.upper.Unlink(whiteoutPath(p)); err != nil {
			return err
		}
	}
	return nil
}

// readDirLocked merges both layers' listings of a located directory.
func (u *UnionFS) readDirLocked(p string, l loc) ([]FileInfo, error) {
	var out []FileInfo
	seen := map[string]bool{}
	if l.upOK {
		ents, err := u.upper.ReadDir(p)
		if err != nil {
			return nil, err
		}
		for _, e := range ents {
			if strings.HasPrefix(e.Name, whPrefix) {
				continue
			}
			out = append(out, e)
			seen[e.Name] = true
		}
	}
	if l.loOK && l.loFi.IsDir {
		opq := false
		if l.upOK {
			var err error
			opq, err = u.isOpaque(p)
			if err != nil {
				return nil, err
			}
		}
		if !opq {
			ents, err := u.lower.ReadDir(p)
			if err != nil {
				return nil, err
			}
			for _, e := range ents {
				if seen[e.Name] {
					continue
				}
				if l.upOK {
					wh, err := u.hasWhiteout(path.Join(p, e.Name))
					if err != nil {
						return nil, err
					}
					if wh {
						continue
					}
				}
				out = append(out, e)
			}
		}
	}
	return out, nil
}

// ReadDir lists the merged directory.
func (u *UnionFS) ReadDir(p string) ([]FileInfo, error) {
	p = cleanAbs(p)
	l, err := u.locate(p)
	if err != nil {
		return nil, err
	}
	if !l.isDir() {
		return nil, ErrNotDir
	}
	return u.readDirLocked(p, l)
}

// Stat describes the union view of p.
func (u *UnionFS) Stat(p string) (FileInfo, error) {
	l, err := u.locate(p)
	if err != nil {
		return FileInfo{}, err
	}
	return l.fi(), nil
}

// Unlink removes a file or empty directory from the union: upper
// entries are really deleted, lower entries get a whiteout.
func (u *UnionFS) Unlink(p string) error {
	p = cleanAbs(p)
	u.mu.Lock()
	defer u.mu.Unlock()
	l, err := u.locate(p)
	if err != nil {
		return err
	}
	if l.isDir() {
		ents, err := u.readDirLocked(p, l)
		if err != nil {
			return err
		}
		if len(ents) != 0 {
			return ErrNotEmpty
		}
	}
	return u.unlinkLocated(p, l)
}

// Rename moves old to new within the union. Lower-only files are copied
// up first; merged or lower directories cannot be renamed (the image is
// immutable), only directories living purely in the upper layer can.
func (u *UnionFS) Rename(oldp, newp string) error {
	oldp, newp = cleanAbs(oldp), cleanAbs(newp)
	u.mu.Lock()
	defer u.mu.Unlock()
	ol, err := u.locate(oldp)
	if err != nil {
		return err
	}
	if oldp == newp {
		return nil
	}
	if oldp == "/" || newp == "/" || strings.HasPrefix(newp, oldp+"/") {
		return fmt.Errorf("%w: rename into own subtree", ErrInvalid)
	}
	pl, err := u.locate(path.Dir(newp))
	if err != nil {
		return err
	}
	if !pl.isDir() {
		return ErrNotDir
	}
	nl, nerr := u.locate(newp)
	if nerr == nil {
		// Overwrite semantics as in rename(2).
		if nl.isDir() != ol.isDir() {
			if nl.isDir() {
				return ErrIsDir
			}
			return ErrNotDir
		}
	} else if !errors.Is(nerr, ErrNotExist) {
		return nerr
	}

	if ol.isDir() {
		// Target conflicts (ErrNotEmpty) are reported before the
		// union-specific immutability restriction, matching EncFS's
		// check order so the differential oracle holds for both.
		if nerr == nil {
			ents, err := u.readDirLocked(newp, nl)
			if err != nil {
				return err
			}
			if len(ents) != 0 {
				return ErrNotEmpty
			}
		}
		if ol.loOK {
			return fmt.Errorf("%w: directory lives in the image layer", ErrReadOnly)
		}
		// An opaque upper dir over a (hidden) lower dir can move: its
		// opacity marker travels with it, and the old name gets a
		// whiteout below.
		if nerr == nil {
			if err := u.unlinkLocated(newp, nl); err != nil {
				return err
			}
		}
		if err := u.ensureUpperDirsLocked(path.Dir(newp)); err != nil {
			return err
		}
		r, ok := u.upper.(Renamer)
		if !ok {
			return ErrReadOnly
		}
		if err := r.Rename(oldp, newp); err != nil {
			return err
		}
		if _, lerr := u.lower.Stat(newp); lerr == nil {
			// Without the opacity marker the image's children of newp
			// would merge into the moved directory — a failure here must
			// fail the rename (the whiteout below stays, keeping the
			// lower dir hidden at the target name).
			n, err := u.upper.Open(path.Join(newp, opaqueMarker), OCreate|OWrOnly)
			if err != nil {
				return err
			}
			n.Close()
		}
		// Only now retire the target's whiteout: a failed rename above
		// must leave a previously deleted lower entry hidden.
		u.upper.Unlink(whiteoutPath(newp))
		if ol.loPresent {
			return u.setWhiteoutLocked(oldp)
		}
		return nil
	}

	// File source: materialize in upper under the old name if needed,
	// then rename within the upper layer.
	if !ol.upOK {
		n, err := u.copyUpLocked(oldp, ORdWr, true)
		if err != nil {
			return err
		}
		n.Close()
		ol.upOK = true
	}
	if nerr == nil {
		if err := u.unlinkLocated(newp, nl); err != nil {
			return err
		}
	}
	if err := u.ensureUpperDirsLocked(path.Dir(newp)); err != nil {
		return err
	}
	r, ok := u.upper.(Renamer)
	if !ok {
		return ErrReadOnly
	}
	if err := r.Rename(oldp, newp); err != nil {
		return err
	}
	// Only now retire the target's whiteout (see the dir branch).
	u.upper.Unlink(whiteoutPath(newp))
	if ol.loPresent {
		return u.setWhiteoutLocked(oldp)
	}
	return nil
}

// unlinkLocated removes an already-located entry (Unlink, and the
// target of a rename-overwrite). Whiteout before the upper deletion: if
// the whiteout creation fails, nothing has been removed yet (the entry
// stays visible via the upper layer, and the lower stays shadowed or
// merged); deleting the upper copy first and then failing the whiteout
// would silently roll the name back to stale image content. Caller
// holds u.mu.
func (u *UnionFS) unlinkLocated(p string, l loc) error {
	if l.loPresent {
		if err := u.setWhiteoutLocked(p); err != nil {
			return err
		}
	}
	if l.upOK {
		if l.upFi.IsDir {
			upEnts, err := u.upper.ReadDir(p)
			if err != nil {
				return err
			}
			for _, e := range upEnts {
				if err := u.upper.Unlink(path.Join(p, e.Name)); err != nil {
					return err
				}
			}
		}
		if err := u.upper.Unlink(p); err != nil {
			return err
		}
	}
	return nil
}
