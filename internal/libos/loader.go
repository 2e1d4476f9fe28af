package libos

import (
	"encoding/binary"
	"fmt"
	"sync"

	"repro/internal/fs"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/mpx"
	"repro/internal/oelf"
)

// loadedImage is what the loader keeps of a binary VerifierKey.Verify
// accepted: the parsed OELF and the offsets of its cfi_labels (duty 2
// patches them per domain). Every spawn of the binary shares it, so
// nothing may write through it.
type loadedImage struct {
	bin    *oelf.Binary
	labels []int
}

// size is what the image charges against the cache bound.
func (li *loadedImage) size() uint64 {
	return uint64(len(li.bin.Image.Code) + len(li.bin.Image.Data) + 8*len(li.labels))
}

// imageCache holds verified images by file identity, one entry per
// (filesystem, inode). It lives inside the LibOS and is filled only on
// the far side of VerifierKey.Verify, from bytes the filesystem
// authenticated on the way in, so it can only ever hand back what the
// loader would have accepted; the entry's Gen must equal the file's
// current fs.FileVersion, so it can only hand it back for the content
// that was accepted.
type imageCache struct {
	mu      sync.Mutex
	entries map[imageKey]cachedImage
	bytes   uint64
	// limit bounds bytes: the domain reservation, i.e. room for the image
	// of every SIP that can be live at once.
	limit uint64
}

type imageKey struct {
	fs  fs.FileSystem
	ino int
}

type cachedImage struct {
	gen uint64
	img *loadedImage
}

func newImageCache(limit uint64) *imageCache {
	return &imageCache{entries: make(map[imageKey]cachedImage), limit: limit}
}

// get returns the image cached for exactly version v, dropping an entry
// the file has moved past.
func (c *imageCache) get(v fs.FileVersion) *loadedImage {
	c.mu.Lock()
	defer c.mu.Unlock()
	k := imageKey{v.FS, v.Ino}
	e, ok := c.entries[k]
	if !ok {
		return nil
	}
	if e.gen != v.Gen {
		c.remove(k, e)
		return nil
	}
	return e.img
}

// put caches img as version v, replacing any older version of the file
// and evicting other files (in map order) until it fits. An image larger
// than the whole bound is not cached.
func (c *imageCache) put(v fs.FileVersion, img *loadedImage) {
	c.mu.Lock()
	defer c.mu.Unlock()
	k := imageKey{v.FS, v.Ino}
	if e, ok := c.entries[k]; ok {
		c.remove(k, e)
	}
	sz := img.size()
	if sz > c.limit {
		return
	}
	for other, e := range c.entries {
		if c.bytes+sz <= c.limit {
			break
		}
		c.remove(other, e)
	}
	c.entries[k] = cachedImage{gen: v.Gen, img: img}
	c.bytes += sz
}

func (c *imageCache) remove(k imageKey, e cachedImage) {
	delete(c.entries, k)
	c.bytes -= e.img.size()
}

// loadBinary returns the verified image of the OELF at path. The first
// load of a file version reads it through the LibOS filesystem (the
// decrypting read is the real cost that makes Occlum's first spawn scale
// with binary size, Fig 6a), parses it and checks the verifier's
// signature; later loads of the same version are a cache lookup.
func (o *Occlum) loadBinary(path string) (*loadedImage, error) {
	f, err := o.vfs.Open(path, fs.ORdOnly)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	// Files without a content version (devfs, procfs) are loaded anew
	// every time.
	vf, versioned := f.(fs.Versioned)
	var ver fs.FileVersion
	if versioned {
		ver = vf.Version()
		if img := o.images.get(ver); img != nil {
			o.stats.imageCacheHits.Add(1)
			return img, nil
		}
	}
	raw := make([]byte, f.Size())
	if _, err := f.ReadAt(raw, 0); err != nil {
		return nil, err
	}
	o.stats.imageBytesRead.Add(uint64(len(raw)))
	bin, err := oelf.Unmarshal(raw)
	if err != nil {
		return nil, err
	}
	// Loader duty 1: only verifier-signed binaries may enter a domain.
	if err := o.cfg.VerifierKey.Verify(bin); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrNotSigned, err)
	}
	o.stats.imagesVerified.Add(1)
	img := &loadedImage{bin: bin, labels: isa.FindCFIMagic(bin.Image.Code)}
	// Cache under ver only if the file still is ver: a write that
	// overlapped the read leaves bytes that belong to no one version.
	if versioned && vf.Version() == ver {
		o.images.put(ver, img)
	}
	return img, nil
}

// trampolineLen is the injected syscall gate: cfi_label + trap.
const trampolineLen = isa.CFILabelLen + 1

// loadIntoDomain performs the program-loader work of §6: copy the image,
// rewrite cfi_labels, inject the trampoline, build the stack and auxv,
// and initialize the MPX bound registers.
//
// Layout: the code is placed at the *end* of the domain's code region so
// that the data region begins exactly codeSpan+guard after the code base,
// matching the layout the binary was linked (and verified) against. The
// trampoline lives at the start of the code region, far from user code.
func (o *Occlum) loadIntoDomain(d *Domain, li *loadedImage, argv []string, p *Proc) error {
	img := &li.bin.Image
	codeSpan := img.CodeSpan()
	if codeSpan+trampolineLen+16 > d.CodeSize {
		return fmt.Errorf("%w: code span %d > domain code size %d", ErrTooBig, codeSpan, d.CodeSize)
	}
	if img.MinDataSize()+o.cfg.StackSize+4096 > d.DataSize {
		return fmt.Errorf("%w: data %d + stack > domain data size %d", ErrTooBig, img.MinDataSize(), d.DataSize)
	}
	if uint64(img.GuardSize) != 4096 {
		return fmt.Errorf("libos: unsupported guard size %d", img.GuardSize)
	}

	codeBase := d.CodeBase + d.CodeSize - codeSpan

	// Duty 2: rewrite the last 4 bytes of every cfi_label to this
	// domain's ID. The shared image is copied into the domain through one
	// write loan (code pages are RWX to the loader) and patched there.
	code, f := o.enclave.ViewBytes(codeBase, len(img.Code), mem.AccessWrite)
	if f != nil {
		return f
	}
	copy(code.B, img.Code)
	for _, off := range li.labels {
		binary.LittleEndian.PutUint32(code.B[off+4:], d.ID)
	}
	if !code.CommitWrite(len(code.B)) {
		return fmt.Errorf("libos: domain %d code region remapped during load", d.ID)
	}

	// Duty 3: inject the trampoline — the only way out of the sandbox.
	if err := o.enclave.WriteDirect(d.CodeBase, EncodeTrampoline(d.ID)); err != nil {
		return err
	}

	// Data segment (BSS pages were zeroed when the domain was freed).
	if len(img.Data) > 0 {
		if err := o.enclave.WriteDirect(d.DataBase, img.Data); err != nil {
			return err
		}
	}

	// CPU state, stack and auxv.
	p.cpu.Reset()
	heapBase, heapEnd, err := SetupUserStack(o.enclave.Paged, p.cpu, d.CodeBase,
		d.DataBase, d.DataSize, o.cfg.StackSize, img.MinDataSize(), argv)
	if err != nil {
		return err
	}
	p.cpu.PC = codeBase + uint64(img.Entry)

	// Duty 4: initialize MPX bounds — BND0 confines memory accesses to
	// D; BND1 makes cfi_guard an equality test on this domain's label.
	p.cpu.Bnd.Set(isa.BND0, mpx.Bound{Lower: d.DataBase, Upper: d.DataBase + d.DataSize - 1})
	v := isa.CFILabelValue(d.ID)
	p.cpu.Bnd.Set(isa.BND1, mpx.Bound{Lower: v, Upper: v})

	p.heapBase, p.heapEnd, p.heapPtr = heapBase, heapEnd, heapBase
	p.tramp = d.CodeBase
	o.stats.imageBytesLoaded.Add(uint64(len(img.Code) + len(img.Data)))
	return nil
}

// isDomainLabel reports whether addr holds a cfi_label carrying the
// domain's ID — the check the LibOS performs on syscall return addresses
// and signal handlers.
func (o *Occlum) isDomainLabel(d *Domain, addr uint64) bool {
	b, err := o.enclave.ReadDirect(addr, isa.CFILabelLen)
	if err != nil {
		return false
	}
	for i, m := range isa.CFIMagic {
		if b[i] != m {
			return false
		}
	}
	return binary.LittleEndian.Uint32(b[4:]) == d.ID
}
