package libos

import (
	"fmt"
	"path"
	"sort"
	"strconv"
	"strings"

	"repro/internal/fs"
)

// procFS is the /proc special filesystem, synthesized by the LibOS: a
// unified view over every SIP in the enclave — something EIP-based
// LibOSes cannot offer, since each of their processes lives in a separate
// enclave.
type procFS struct {
	os *Occlum
}

func newProcFS(o *Occlum) *procFS { return &procFS{os: o} }

var _ fs.FileSystem = (*procFS)(nil)

// Open synthesizes the content of a proc file at open time.
func (pf *procFS) Open(p string, flags fs.OpenFlag) (fs.Node, error) {
	if flags.Writable() {
		return nil, fs.ErrReadOnly
	}
	content, err := pf.render(p)
	if err != nil {
		return nil, err
	}
	return &procNode{content: content}, nil
}

func (pf *procFS) render(p string) ([]byte, error) {
	comps := strings.Split(strings.Trim(path.Clean("/"+p), "/"), "/")
	switch {
	case len(comps) == 1 && comps[0] == "meminfo":
		o := pf.os
		o.mu.Lock()
		used := 0
		for _, d := range o.domains {
			if d.inUse {
				used++
			}
		}
		n := len(o.domains)
		o.mu.Unlock()
		return []byte(fmt.Sprintf("Domains: %d\nDomainsUsed: %d\nEPCPages: %d\n",
			n, used, pf.os.enclave.PagesAdded())), nil
	case len(comps) == 1 && comps[0] == "occlum":
		s := pf.os.SpawnStats()
		return []byte(fmt.Sprintf("ImagesVerified: %d\nImageCacheHits: %d\nImageBytesRead: %d\nImageBytesLoaded: %d\nPagesScrubbed: %d\nExits: %d\nSlotHits: %d\n",
			s.ImagesVerified, s.ImageCacheHits, s.ImageBytesRead, s.ImageBytesLoaded, s.PagesScrubbed, s.Exits, s.SlotHits)), nil
	case len(comps) == 1 && comps[0] == "cpuinfo":
		return []byte("model name: OVM virtual hart\nfeatures: mpx sgx mmdsfi\n"), nil
	case len(comps) == 2 && comps[1] == "status":
		pid, err := strconv.Atoi(comps[0])
		if err != nil {
			return nil, fs.ErrNotExist
		}
		o := pf.os
		o.mu.Lock()
		proc, ok := o.procs[pid]
		if !ok {
			o.mu.Unlock()
			return nil, fs.ErrNotExist
		}
		// Render under the lock: exited and ppid mutate on teardown.
		state := "R (running)"
		if proc.exited {
			state = "Z (zombie)"
		}
		out := fmt.Sprintf("Name:\t%s\nPid:\t%d\nPPid:\t%d\nState:\t%s\nDomain:\t%d\nCycles:\t%d\n",
			proc.name, proc.pid, proc.ppid, state, proc.dom.ID, proc.cycles.Load())
		o.mu.Unlock()
		return []byte(out), nil
	}
	return nil, fs.ErrNotExist
}

// Mkdir is not supported on procfs.
func (pf *procFS) Mkdir(string) error { return fs.ErrReadOnly }

// Unlink is not supported on procfs.
func (pf *procFS) Unlink(string) error { return fs.ErrReadOnly }

// ReadDir lists /proc: meminfo, cpuinfo, occlum (the spawn/exit counters)
// and one directory per process.
func (pf *procFS) ReadDir(p string) ([]fs.FileInfo, error) {
	clean := path.Clean("/" + p)
	if clean == "/" {
		out := []fs.FileInfo{{Name: "meminfo"}, {Name: "cpuinfo"}, {Name: "occlum"}}
		pids := pf.os.Procs()
		sort.Ints(pids)
		for _, pid := range pids {
			out = append(out, fs.FileInfo{Name: strconv.Itoa(pid), IsDir: true})
		}
		return out, nil
	}
	if pid, err := strconv.Atoi(strings.Trim(clean, "/")); err == nil {
		pf.os.mu.Lock()
		_, ok := pf.os.procs[pid]
		pf.os.mu.Unlock()
		if ok {
			return []fs.FileInfo{{Name: "status"}}, nil
		}
	}
	return nil, fs.ErrNotExist
}

// Stat describes a proc path.
func (pf *procFS) Stat(p string) (fs.FileInfo, error) {
	clean := path.Clean("/" + p)
	if clean == "/" {
		return fs.FileInfo{Name: "proc", IsDir: true}, nil
	}
	if content, err := pf.render(p); err == nil {
		return fs.FileInfo{Name: path.Base(clean), Size: int64(len(content))}, nil
	}
	if _, err := pf.ReadDir(p); err == nil {
		return fs.FileInfo{Name: path.Base(clean), IsDir: true}, nil
	}
	return fs.FileInfo{}, fs.ErrNotExist
}

type procNode struct {
	content []byte
}

func (n *procNode) ReadAt(p []byte, off int64) (int, error) {
	if off >= int64(len(n.content)) {
		return 0, nil
	}
	return copy(p, n.content[off:]), nil
}

func (n *procNode) WriteAt([]byte, int64) (int, error) { return 0, fs.ErrReadOnly }
func (n *procNode) Size() int64                        { return int64(len(n.content)) }
func (n *procNode) Close() error                       { return nil }
