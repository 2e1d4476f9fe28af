// Package linuxsim is the native-Linux baseline of the paper's
// evaluation: the same OVM programs and syscall ABI, but with no enclave,
// no MMDSFI instrumentation, a plaintext filesystem ("ext4"), and cheap
// process creation backed by a binary page cache (the analog of demand
// paging, which makes Linux's spawn time insensitive to binary size —
// Figure 6a). It is a baseline.Model: the kernel itself is
// internal/baseline's.
package linuxsim

import (
	"fmt"
	"sync"

	"repro/internal/baseline"
	"repro/internal/fs"
	"repro/internal/hostos"
	"repro/internal/libos"
	"repro/internal/mem"
	"repro/internal/oelf"
	"repro/internal/sysdispatch"
)

// Process image geometry.
const (
	base      = 0x400000
	stackSize = 256 << 10
	heapSize  = 4 << 20
)

// Linux is one simulated native kernel.
type Linux struct {
	*baseline.Kernel

	mu    sync.Mutex
	files map[string]*plainFile // plaintext "ext4": one record per file
}

// plainFile is one file of the plaintext "ext4". Open fds hold the
// record, not the path, so an fd follows its file across a rename.
type plainFile struct {
	data []byte
	bin  *oelf.Binary // page cache of the parsed binary; nil after a write
}

// Proc is one native process.
type Proc = baseline.Proc

// SpawnOpt mirrors libos.SpawnOpt for the baseline.
type SpawnOpt = baseline.SpawnOpt

// New creates a kernel over the given host network substrate.
func New(host *hostos.Host) *Linux {
	l := &Linux{files: make(map[string]*plainFile)}
	l.Kernel = baseline.New(host, l)
	return l
}

// WriteFile installs a plaintext file.
func (l *Linux) WriteFile(path string, data []byte) {
	l.mu.Lock()
	defer l.mu.Unlock()
	f, ok := l.files[path]
	if !ok {
		f = &plainFile{}
		l.files[path] = f
	}
	f.data, f.bin = append([]byte(nil), data...), nil
}

// ReadFile reads a plaintext file.
func (l *Linux) ReadFile(path string) ([]byte, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	f, ok := l.files[path]
	if !ok {
		return nil, noFile(path)
	}
	return append([]byte(nil), f.data...), nil
}

func noFile(path string) error {
	return fmt.Errorf("linuxsim: %s: %w", path, fs.ErrNotExist)
}

// InstallBinary writes a marshaled binary to the plain filesystem.
func (l *Linux) InstallBinary(path string, bin *oelf.Binary) {
	l.WriteFile(path, bin.Marshal())
}

// Sync is a no-op (plaintext FS has no deferred integrity state).
func (l *Linux) Sync() error { return nil }

// lookupBinary consults the page cache, parsing at most once per file —
// the demand-paging analog that keeps Linux spawn time flat.
func (l *Linux) lookupBinary(path string) (*oelf.Binary, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	f, ok := l.files[path]
	if !ok {
		return nil, noFile(path)
	}
	if f.bin == nil {
		b, err := oelf.Unmarshal(f.data)
		if err != nil {
			return nil, err
		}
		f.bin = b
	}
	return f.bin, nil
}

// Load implements baseline.Model — process creation is cheap (Table 1):
// posix_spawn via vfork+execve in the paper's measurements, here a cached
// parse and two page mappings. A native process has no domain bounds,
// only page permissions, so all of it is user memory.
func (l *Linux) Load(path string, _ []string, _ *Proc) (*baseline.Image, error) {
	bin, err := l.lookupBinary(path)
	if err != nil {
		return nil, err
	}
	img := baseline.Place(&bin.Image, base, heapSize, stackSize)
	img.Mem = mem.NewPaged(base, img.DataBase+img.DataSize+mem.PageSize-base)
	img.UserBase, img.UserSize = base, img.Mem.Size()
	if err := img.Mem.Map(base, mem.PageSize+bin.Image.CodeSpan(), mem.PermRX); err != nil {
		return nil, err
	}
	if err := img.Mem.Map(img.DataBase, img.DataSize, mem.PermRW); err != nil {
		return nil, err
	}
	return img, nil
}

// NewPipe implements baseline.Model — IPC is cheap: the kernel's pipe.
func (l *Linux) NewPipe(*Proc) (r, w sysdispatch.File) { return libos.NewPipe() }
