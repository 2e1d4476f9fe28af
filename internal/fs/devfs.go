package fs

import (
	"fmt"
	"io"
	"math/rand"
	"path"
	"sync"
)

// DevFS is the /dev special filesystem: a handful of device nodes
// implemented entirely inside the enclave, as in the paper's §6.
type DevFS struct {
	mu      sync.Mutex
	console io.Writer
	rng     *rand.Rand
	// nodes holds one node per device, by devNames index: a node is
	// stateless, so every open of a device returns the same one.
	nodes [len(devNames)]devNode
}

// NewDevFS creates a /dev with null, zero, urandom and console. Writes to
// /dev/console go to the provided writer (the LibOS wires it to the
// host's stdout); a nil writer discards them.
func NewDevFS(console io.Writer) *DevFS {
	d := &DevFS{console: console, rng: rand.New(rand.NewSource(0x0cc1))}
	for i, n := range devNames {
		d.nodes[i] = devNode{fs: d, kind: n}
	}
	return d
}

var _ FileSystem = (*DevFS)(nil)

var devNames = [...]string{"null", "zero", "urandom", "console"}

// Open opens a device node.
func (d *DevFS) Open(p string, flags OpenFlag) (Node, error) {
	name := path.Base(cleanAbs(p))
	for i, dn := range devNames {
		if name == dn {
			return &d.nodes[i], nil
		}
	}
	return nil, fmt.Errorf("%w: /dev/%s", ErrNotExist, name)
}

// Mkdir is not supported on devfs.
func (d *DevFS) Mkdir(string) error { return ErrReadOnly }

// Unlink is not supported on devfs.
func (d *DevFS) Unlink(string) error { return ErrReadOnly }

// ReadDir lists the device nodes.
func (d *DevFS) ReadDir(p string) ([]FileInfo, error) {
	if cleanAbs(p) != "/" {
		return nil, ErrNotDir
	}
	var out []FileInfo
	for _, n := range devNames {
		out = append(out, FileInfo{Name: n})
	}
	return out, nil
}

// Stat describes a device node.
func (d *DevFS) Stat(p string) (FileInfo, error) {
	if cleanAbs(p) == "/" {
		return FileInfo{Name: "dev", IsDir: true}, nil
	}
	if _, err := d.Open(p, ORdOnly); err != nil {
		return FileInfo{}, err
	}
	return FileInfo{Name: path.Base(p)}, nil
}

type devNode struct {
	fs   *DevFS
	kind string
}

func (n *devNode) ReadAt(p []byte, off int64) (int, error) {
	switch n.kind {
	case "null", "console":
		return 0, io.EOF
	case "zero":
		for i := range p {
			p[i] = 0
		}
		return len(p), nil
	case "urandom":
		n.fs.mu.Lock()
		defer n.fs.mu.Unlock()
		n.fs.rng.Read(p)
		return len(p), nil
	}
	return 0, ErrNotExist
}

func (n *devNode) WriteAt(p []byte, off int64) (int, error) {
	switch n.kind {
	case "null", "zero", "urandom":
		return len(p), nil
	case "console":
		n.fs.mu.Lock()
		defer n.fs.mu.Unlock()
		if n.fs.console != nil {
			return n.fs.console.Write(p)
		}
		return len(p), nil
	}
	return 0, ErrNotExist
}

func (n *devNode) Size() int64  { return 0 }
func (n *devNode) Close() error { return nil }
