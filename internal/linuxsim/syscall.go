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
	t.Register(libos.SysFsync, func(sysdispatch.Kernel, *sysdispatch.Call) sysdispatch.Result {
		return sysdispatch.Ok(0) // plaintext FS: no deferred integrity state
	})
	t.Register(libos.SysRename, func(_ sysdispatch.Kernel, c *sysdispatch.Call) sysdispatch.Result {
		return sysdispatch.Err(l.renamePlain(c.Path[0], c.Path[1]))
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
	return nil
}

// Open implements baseline.Model — the shared file system is writable
// (Table 1): a plaintext file of the "ext4".
func (l *Linux) Open(_ *Proc, path string, flags int) (sysdispatch.File, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	f, ok := l.files[path]
	if !ok {
		if flags&libos.OCreate == 0 {
			return nil, noFile(path)
		}
		f = &plainFile{}
		l.files[path] = f
	}
	if flags&libos.OTrunc != 0 {
		f.data, f.bin = nil, nil
	}
	return libos.OpenNodeFile(&plainNode{l: l, f: f}, libos.ORdWr), nil
}

// plainNode adapts a plaintext file to the fs.Node interface.
type plainNode struct {
	l *Linux
	f *plainFile
}

func (n *plainNode) ReadAt(p []byte, off int64) (int, error) {
	n.l.mu.Lock()
	defer n.l.mu.Unlock()
	d := n.f.data
	if off >= int64(len(d)) {
		return 0, nil
	}
	return copy(p, d[off:]), nil
}

func (n *plainNode) WriteAt(p []byte, off int64) (int, error) {
	n.l.mu.Lock()
	defer n.l.mu.Unlock()
	d := n.f.data
	if need := int(off) + len(p); need > len(d) {
		if need > cap(d) {
			nd := make([]byte, need, max(need, 2*cap(d)))
			copy(nd, d)
			d = nd
		} else {
			d = d[:need]
		}
	}
	copy(d[off:], p)
	n.f.data, n.f.bin = d, nil
	return len(p), nil
}

func (n *plainNode) Size() int64 {
	n.l.mu.Lock()
	defer n.l.mu.Unlock()
	return int64(len(n.f.data))
}

func (n *plainNode) Close() error { return nil }
