package fs

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"path"
	"sort"
	"strings"
	"testing"

	"repro/internal/hostos"
)

// This file is the filesystem analog of the interpreter's randomized
// differential test: a few thousand random operations are driven
// against the real filesystem and an in-memory model oracle in
// lockstep. Every operation's error class must agree, and the full tree
// state (names, types, sizes, contents) is compared periodically and at
// the end. The same harness runs twice — against bare EncFS and against
// the union mount (EncFS upper over a packed image lower), where the
// ops exercise copy-up, whiteouts and opaque directories for free.

// --- Model oracle ----------------------------------------------------------

type mnode struct {
	isDir bool
	// lowerDir marks directories seeded from the image layer: the union
	// cannot rename those (the image is immutable), so the model
	// predicts ErrReadOnly for them.
	lowerDir bool
	data     []byte
	children map[string]*mnode
}

func newModel() *mnode {
	return &mnode{isDir: true, children: map[string]*mnode{}}
}

func (m *mnode) clone() *mnode {
	c := &mnode{isDir: m.isDir, lowerDir: m.lowerDir, data: append([]byte(nil), m.data...)}
	if m.children != nil {
		c.children = make(map[string]*mnode, len(m.children))
		for n, ch := range m.children {
			c.children[n] = ch.clone()
		}
	}
	return c
}

func (m *mnode) resolve(p string) (*mnode, error) {
	cur := m
	for _, c := range splitPath(p) {
		if !cur.isDir {
			return nil, ErrNotDir
		}
		next, ok := cur.children[c]
		if !ok {
			return nil, ErrNotExist
		}
		cur = next
	}
	return cur, nil
}

// resolveParent mirrors EncFS.resolveParent: walk all but the last
// component.
func (m *mnode) resolveParent(p string) (*mnode, string, error) {
	comps := splitPath(p)
	if len(comps) == 0 {
		return nil, "", ErrExist // "root has no parent"
	}
	cur := m
	for _, c := range comps[:len(comps)-1] {
		if !cur.isDir {
			return nil, "", ErrNotDir
		}
		next, ok := cur.children[c]
		if !ok {
			return nil, "", ErrNotExist
		}
		cur = next
	}
	if !cur.isDir {
		return nil, "", ErrNotDir
	}
	return cur, comps[len(comps)-1], nil
}

// modelCreate mirrors Open(ORdWr|OCreate[|OTrunc]) returning the node.
func (m *mnode) create(p string, trunc bool) (*mnode, error) {
	if n, err := m.resolve(p); err == nil {
		if n.isDir {
			return nil, ErrIsDir
		}
		if trunc {
			n.data = nil
		}
		return n, nil
	}
	dir, name, err := m.resolveParent(p)
	if err != nil {
		return nil, err
	}
	if _, ok := dir.children[name]; ok {
		// resolve failed but the entry exists → intermediate weirdness;
		// cannot happen with a failed resolve of the full path.
		return nil, ErrExist
	}
	n := &mnode{}
	dir.children[name] = n
	return n, nil
}

func (m *mnode) write(p string, off int64, data []byte) error {
	n, err := m.resolve(p)
	if err != nil {
		return err
	}
	if n.isDir {
		return ErrIsDir
	}
	if need := off + int64(len(data)); need > int64(len(n.data)) {
		nd := make([]byte, need)
		copy(nd, n.data)
		n.data = nd
	}
	copy(n.data[off:], data)
	return nil
}

func (m *mnode) mkdir(p string) error {
	if _, err := m.resolve(p); err == nil {
		return ErrExist
	}
	dir, name, err := m.resolveParent(p)
	if err != nil {
		return err
	}
	dir.children[name] = &mnode{isDir: true, children: map[string]*mnode{}}
	return nil
}

func (m *mnode) unlink(p string) error {
	n, err := m.resolve(p)
	if err != nil {
		return err
	}
	if n.isDir && len(n.children) > 0 {
		return ErrNotEmpty
	}
	dir, name, err := m.resolveParent(p)
	if err != nil {
		return err
	}
	delete(dir.children, name)
	return nil
}

// rename mirrors EncFS.Rename's check order; union mode adds the
// immutable-lower-directory rule.
func (m *mnode) rename(oldp, newp string, union bool) error {
	oc, nc := path.Clean("/"+oldp), path.Clean("/"+newp)
	n, err := m.resolve(oc)
	if err != nil {
		return err
	}
	if oc == nc {
		return nil
	}
	if oc == "/" || nc == "/" {
		return ErrInvalid
	}
	if strings.HasPrefix(nc, oc+"/") {
		return ErrInvalid
	}
	odir, oname, err := m.resolveParent(oc)
	if err != nil {
		return err
	}
	ndir, nname, err := m.resolveParent(nc)
	if err != nil {
		return err
	}
	if t, ok := ndir.children[nname]; ok {
		if n.isDir != t.isDir {
			if t.isDir {
				return ErrIsDir
			}
			return ErrNotDir
		}
		if t.isDir && len(t.children) > 0 {
			return ErrNotEmpty
		}
	}
	if union && n.isDir && n.lowerDir {
		return ErrReadOnly
	}
	ndir.children[nname] = n
	delete(odir.children, oname)
	return nil
}

// --- Differential driver ---------------------------------------------------

// errClass buckets an error into the sentinel it wraps, so the model
// and the real filesystem can be compared without matching message
// strings.
func errClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, ErrNotExist):
		return "ENOENT"
	case errors.Is(err, ErrExist):
		return "EEXIST"
	case errors.Is(err, ErrIsDir):
		return "EISDIR"
	case errors.Is(err, ErrNotDir):
		return "ENOTDIR"
	case errors.Is(err, ErrNotEmpty):
		return "ENOTEMPTY"
	case errors.Is(err, ErrReadOnly):
		return "EROFS"
	case errors.Is(err, ErrInvalid):
		return "EINVAL"
	case errors.Is(err, ErrNameTooLong):
		return "ENAMETOOLONG"
	case errors.Is(err, ErrFull):
		return "ENOSPC"
	default:
		return "other:" + err.Error()
	}
}

// renamerFS is what the differential drives: a filesystem with rename.
type renamerFS interface {
	FileSystem
	Renamer
}

// diffState is one differential run's shared state.
type diffState struct {
	t     *testing.T
	rng   *rand.Rand
	fs    renamerFS
	model *mnode
	union bool
	ops   int
}

var diffNames = []string{"f0", "f1", "f2", "g", "sub", "deep", "x"}
var diffDirs = []string{"/", "/a", "/a/b", "/c", "/img", "/img/sub"}

func (d *diffState) randPath() string {
	dir := diffDirs[d.rng.Intn(len(diffDirs))]
	switch d.rng.Intn(10) {
	case 0:
		return dir // operate on the directory itself
	case 1: // deliberately deep/unlikely path
		return path.Join(dir, diffNames[d.rng.Intn(len(diffNames))], diffNames[d.rng.Intn(len(diffNames))])
	default:
		return path.Join(dir, diffNames[d.rng.Intn(len(diffNames))])
	}
}

// step applies one random operation to both systems and compares the
// error class.
func (d *diffState) step() {
	d.ops++
	p := d.randPath()
	var gotErr, wantErr error
	var op string
	switch r := d.rng.Intn(100); {
	case r < 20: // create (sometimes truncating)
		trunc := d.rng.Intn(3) == 0
		flags := ORdWr | OCreate
		if trunc {
			flags |= OTrunc
		}
		op = fmt.Sprintf("create(%s, trunc=%v)", p, trunc)
		n, err := d.fs.Open(p, flags)
		if err == nil {
			n.Close()
		}
		gotErr = err
		_, wantErr = d.model.create(p, trunc)
	case r < 45: // write at a random offset
		size := d.rng.Intn(8 << 10)
		if d.rng.Intn(50) == 0 {
			size = 200 << 10 // occasionally large: indirect blocks
		}
		off := int64(d.rng.Intn(20 << 10))
		data := make([]byte, size)
		d.rng.Read(data)
		op = fmt.Sprintf("write(%s, off=%d, len=%d)", p, off, size)
		n, err := d.fs.Open(p, ORdWr)
		if err == nil {
			_, werr := n.WriteAt(data, off)
			n.Close()
			err = werr
		}
		gotErr = err
		wantErr = d.model.write(p, off, data)
	case r < 55: // mkdir
		op = fmt.Sprintf("mkdir(%s)", p)
		gotErr = d.fs.Mkdir(p)
		wantErr = d.model.mkdir(p)
	case r < 65: // readdir (deep-compared below; here just error class)
		op = fmt.Sprintf("readdir(%s)", p)
		_, gotErr = d.fs.ReadDir(p)
		n, err := d.model.resolve(p)
		wantErr = err
		if err == nil && !n.isDir {
			wantErr = ErrNotDir
		}
	case r < 80: // unlink
		if path.Clean("/"+p) == "/" {
			return
		}
		op = fmt.Sprintf("unlink(%s)", p)
		gotErr = d.fs.Unlink(p)
		wantErr = d.model.unlink(p)
	default: // rename
		q := d.randPath()
		if path.Clean("/"+p) == "/" || path.Clean("/"+q) == "/" {
			return
		}
		op = fmt.Sprintf("rename(%s, %s)", p, q)
		gotErr = d.fs.Rename(p, q)
		wantErr = d.model.rename(p, q, d.union)
	}
	if errClass(gotErr) != errClass(wantErr) {
		d.t.Fatalf("op %d %s: fs=%v model=%v", d.ops, op, gotErr, wantErr)
	}
}

// compareTree deep-compares the filesystem against the model: exact
// name sets, types, file sizes and file contents.
func (d *diffState) compareTree() {
	var walk func(p string, n *mnode)
	walk = func(p string, n *mnode) {
		if !n.isDir {
			fi, err := d.fs.Stat(p)
			if err != nil {
				d.t.Fatalf("after op %d: Stat(%s): %v", d.ops, p, err)
			}
			if fi.IsDir || fi.Size != int64(len(n.data)) {
				d.t.Fatalf("after op %d: %s: fs {dir=%v size=%d}, model {file size=%d}",
					d.ops, p, fi.IsDir, fi.Size, len(n.data))
			}
			f, err := d.fs.Open(p, ORdOnly)
			if err != nil {
				d.t.Fatalf("after op %d: Open(%s): %v", d.ops, p, err)
			}
			got := make([]byte, len(n.data))
			if _, err := f.ReadAt(got, 0); err != nil {
				d.t.Fatalf("after op %d: Read(%s): %v", d.ops, p, err)
			}
			f.Close()
			if !bytes.Equal(got, n.data) {
				d.t.Fatalf("after op %d: content of %s diverged", d.ops, p)
			}
			return
		}
		ents, err := d.fs.ReadDir(p)
		if err != nil {
			d.t.Fatalf("after op %d: ReadDir(%s): %v", d.ops, p, err)
		}
		var fsNames []string
		entByName := map[string]FileInfo{}
		for _, e := range ents {
			fsNames = append(fsNames, e.Name)
			entByName[e.Name] = e
		}
		var modelNames []string
		for name := range n.children {
			modelNames = append(modelNames, name)
		}
		sort.Strings(fsNames)
		sort.Strings(modelNames)
		if !equalStrings(fsNames, modelNames) {
			d.t.Fatalf("after op %d: ReadDir(%s): fs=%v model=%v", d.ops, p, fsNames, modelNames)
		}
		for name, child := range n.children {
			if entByName[name].IsDir != child.isDir {
				d.t.Fatalf("after op %d: %s/%s type diverged", d.ops, p, name)
			}
			walk(path.Join(p, name), child)
		}
	}
	walk("/", d.model)
}

func (d *diffState) run(nops int) {
	for i := 0; i < nops; i++ {
		d.step()
		if d.ops%64 == 0 {
			d.compareTree()
		}
	}
	d.compareTree()
}

// applyOps drives n random ops without tree comparison (used by the
// crash tests to build up state quickly).
func (d *diffState) applyOps(n int) {
	for i := 0; i < n; i++ {
		d.step()
	}
}

// diffCacheCaps are the page-cache sizes the differentials run at: the
// production one, and two so small that nearly every getBlock evicts — a
// *cpage held across a getBlock or allocBlock shows up as a divergence
// there (the fileBlock/truncateLocked lost update did).
var diffCacheCaps = []struct {
	suffix string
	cap    int
}{{"", 0}, {"-cap3", 3}, {"-cap16", 16}}

func TestDifferentialEncFS(t *testing.T) {
	for _, seed := range []int64{1, 7, 20260729} {
		for _, cc := range diffCacheCaps {
			t.Run(fmt.Sprintf("seed%d%s", seed, cc.suffix), func(t *testing.T) {
				efs, _, _ := newFS(t, 16384)
				if cc.cap != 0 {
					efs.cacheCap = cc.cap
				}
				d := &diffState{t: t, rng: rand.New(rand.NewSource(seed)), fs: efs, model: newModel()}
				d.run(1500)
				if err := efs.Fsck(); err != nil {
					t.Fatalf("fsck after differential: %v", err)
				}
				t.Logf("%d ops diverged nowhere (seed %d)", d.ops, seed)
			})
		}
	}
}

// seedLowerImage builds a random image tree and mirrors it into the
// model (directories flagged immutable-lower).
func seedLowerImage(t *testing.T, rng *rand.Rand, model *mnode) (*ImageFS, *hostos.Host) {
	t.Helper()
	b := NewImageBuilder()
	addFile := func(p string, size int) {
		data := make([]byte, size)
		rng.Read(data)
		if err := b.AddFile(p, data); err != nil {
			t.Fatal(err)
		}
		dir, name, err := model.resolveParent(p)
		if err != nil {
			t.Fatal(err)
		}
		dir.children[name] = &mnode{data: data}
	}
	addDir := func(p string) {
		if err := b.AddDir(p); err != nil {
			t.Fatal(err)
		}
		dir, name, err := model.resolveParent(p)
		if err != nil {
			t.Fatal(err)
		}
		dir.children[name] = &mnode{isDir: true, lowerDir: true, children: map[string]*mnode{}}
	}
	model.lowerDir = true
	addDir("/a") // collides with the driver's upper-dir pool on purpose
	addDir("/img")
	addDir("/img/sub")
	addFile("/img/f0", 100)
	addFile("/img/f1", 3*BlockSize+7)
	addFile("/img/sub/deep", 777)
	addFile("/seed", 5000)
	blob, root, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	h := hostos.New()
	h.WriteFile("base.img", blob)
	ifs, err := MountImage(h, "base.img", root)
	if err != nil {
		t.Fatal(err)
	}
	return ifs, h
}

func TestDifferentialUnionFS(t *testing.T) {
	for _, seed := range []int64{3, 11, 404} {
		for _, cc := range diffCacheCaps {
			t.Run(fmt.Sprintf("seed%d%s", seed, cc.suffix), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				model := newModel()
				lower, h := seedLowerImage(t, rng, model)
				store, err := CreateStore(h, "enc.img", KeyFromString("diff"), 16384)
				if err != nil {
					t.Fatal(err)
				}
				if err := Mkfs(store); err != nil {
					t.Fatal(err)
				}
				upper, err := Mount(store)
				if err != nil {
					t.Fatal(err)
				}
				if cc.cap != 0 {
					upper.cacheCap = cc.cap
				}
				u := NewUnionFS(upper, lower)
				d := &diffState{t: t, rng: rng, fs: u, model: model, union: true}
				d.run(1500)
				if err := upper.Fsck(); err != nil {
					t.Fatalf("fsck of upper layer after differential: %v", err)
				}
				t.Logf("%d union ops diverged nowhere (seed %d)", d.ops, seed)
			})
		}
	}
}
