package linuxsim

import (
	"repro/internal/libos"
	"repro/internal/sysdispatch"
)

// Register implements baseline.Model: the file-system calls only the
// writable plaintext FS answers. The namespace is flat, so mkdir and
// unlink stay unregistered (-ENOSYS).
func (l *Linux) Register(t *sysdispatch.Table) {
	t.Register(libos.SysLseek, sysdispatch.Lseek)
	t.Register(libos.SysFsync, func(sysdispatch.Kernel, *[5]uint64) sysdispatch.Result {
		return sysdispatch.Ok(0) // plaintext FS: no deferred integrity state
	})
	t.Register(libos.SysRename, func(k sysdispatch.Kernel, a *[5]uint64) sysdispatch.Result {
		oldp, ok := sysdispatch.ReadPath(k, a[0], a[1])
		if !ok {
			return sysdispatch.Errno(libos.EFAULT)
		}
		newp, ok := sysdispatch.ReadPath(k, a[2], a[3])
		if !ok {
			return sysdispatch.Errno(libos.EFAULT)
		}
		if err := l.renamePlain(oldp, newp); err != nil {
			return sysdispatch.Errno(libos.ENOENT)
		}
		return sysdispatch.Ok(0)
	})
}

// renamePlain moves a plaintext file (the flat-namespace rename of the
// baseline's map-backed "ext4").
func (l *Linux) renamePlain(oldp, newp string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	f, ok := l.files[oldp]
	if !ok {
		return noFile(oldp)
	}
	if oldp == newp {
		return nil // rename to self is a legal no-op, not a delete
	}
	l.files[newp] = f
	delete(l.files, oldp)
	delete(l.binCache, oldp)
	delete(l.binCache, newp)
	return nil
}

// Open implements baseline.Model — the shared file system is writable
// (Table 1): a plaintext file of the "ext4".
func (l *Linux) Open(_ *Proc, path string, flags int) (sysdispatch.File, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	_, ok := l.files[path]
	if !ok {
		if flags&libos.OCreate == 0 {
			return nil, noFile(path)
		}
		l.files[path] = nil
	}
	if flags&libos.OTrunc != 0 {
		l.files[path] = nil
	}
	return libos.OpenNodeFile(&plainNode{l: l, path: path}, libos.ORdWr), nil
}

// plainNode adapts a map-backed file to the fs.Node interface.
type plainNode struct {
	l    *Linux
	path string
}

func (n *plainNode) ReadAt(p []byte, off int64) (int, error) {
	n.l.mu.Lock()
	defer n.l.mu.Unlock()
	f := n.l.files[n.path]
	if off >= int64(len(f)) {
		return 0, nil
	}
	return copy(p, f[off:]), nil
}

func (n *plainNode) WriteAt(p []byte, off int64) (int, error) {
	n.l.mu.Lock()
	defer n.l.mu.Unlock()
	f := n.l.files[n.path]
	if need := int(off) + len(p); need > len(f) {
		if need > cap(f) {
			nf := make([]byte, need, max(need, 2*cap(f)))
			copy(nf, f)
			f = nf
		} else {
			f = f[:need]
		}
	}
	copy(f[off:], p)
	n.l.files[n.path] = f
	delete(n.l.binCache, n.path)
	return len(p), nil
}

func (n *plainNode) Size() int64 {
	n.l.mu.Lock()
	defer n.l.mu.Unlock()
	return int64(len(n.l.files[n.path]))
}

func (n *plainNode) Close() error { return nil }
