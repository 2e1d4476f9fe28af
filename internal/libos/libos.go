// Package libos implements the Occlum LibOS (§6 of the paper): a single
// library operating system instance that hosts many SFI-Isolated
// Processes (SIPs) inside one enclave.
//
// The LibOS owns:
//
//   - the enclave and the preallocated MMDSFI domains (SGX 1.0 forbids
//     page changes after EINIT, so all domain pages are EADDed up front);
//   - the ELF loader with its four extra duties (signature check,
//     cfi_label domain-ID rewriting, trampoline injection, MPX bound
//     initialization);
//   - the syscall interface (spawn instead of fork, pipes and signals as
//     shared in-LibOS structures, futex via the host), dispatched through
//     the shared table of internal/sysdispatch;
//   - the virtual filesystem: a writable encrypted root, /dev and /proc;
//   - the M:N scheduler (internal/sched): a fixed pool of harts — one
//     per configured SGX TCS — multiplexes every SIP, so many more SIPs
//     than TCS entries can be live, and a SIP blocked in a syscall parks
//     instead of holding a hardware thread hostage.
package libos

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fs"
	"repro/internal/hostos"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/oelf"
	"repro/internal/ring"
	"repro/internal/sched"
	"repro/internal/sgx"
	"repro/internal/sysdispatch"
	"repro/internal/timers"
	"repro/internal/vm"
)

// libosReserve is enclave memory reserved for the LibOS itself at the
// enclave's base (it contributes to enclave measurement and creation
// cost).
const libosReserve = 1 << 20

// Config sizes the enclave and its domains.
type Config struct {
	// NumDomains is the number of preallocated MMDSFI domains (the
	// maximum number of concurrent SIPs).
	NumDomains int
	// DomainCodeSize is the code-region size per domain (bytes,
	// page-multiple).
	DomainCodeSize uint64
	// DomainDataSize is the data-region size per domain.
	DomainDataSize uint64
	// StackSize is the stack carved from the top of each data region.
	StackSize uint64
	// MaxThreads is the number of SGX TCS — the size of the hart pool
	// the M:N scheduler runs SIPs on. It no longer caps concurrent
	// SIPs (NumDomains does): a blocked or runnable-but-descheduled
	// SIP holds no TCS.
	MaxThreads int
	// FSImage is the host file holding the encrypted filesystem.
	FSImage string
	// FSKey unseals the filesystem.
	FSKey fs.Key
	// FSBlocks sizes a newly created filesystem image.
	FSBlocks int
	// BaseImage optionally names the host file holding a packed
	// read-only image (cmd/occlum-image). When set, the root mount
	// becomes a union: the integrity-verified image below, the writable
	// encrypted filesystem above (copy-up at open-for-write).
	BaseImage string
	// BaseImageRoot is the pinned Merkle root hash of BaseImage — the
	// only trusted input of the image layer (in a real deployment it
	// would be part of the enclave measurement).
	BaseImageRoot [32]byte
	// Stdout receives /dev/console output (nil discards).
	Stdout io.Writer
	// VerifierKey is the signing key the loader trusts.
	VerifierKey oelf.SigningKey
	// CycleSlice is the interpreter cycle budget between LibOS
	// preemption points (signal checks).
	CycleSlice uint64
	// IdleTimeout, when positive, reaps accepted sockets that have seen
	// no I/O for this long: each accept arms a deadline that lazily
	// re-arms while the connection stays active and closes the host
	// connection once it idles out — the slowloris defense.
	IdleTimeout time.Duration
	// ShedThreshold, when positive, is the run-queue depth past which
	// the accept path sheds inbound connections (accept-and-close)
	// instead of admitting work the harts cannot keep up with.
	ShedThreshold int
}

// DefaultConfig returns a workable configuration: 8 domains of 1 MiB code
// + 4 MiB data.
func DefaultConfig() Config {
	return Config{
		NumDomains:     8,
		DomainCodeSize: 1 << 20,
		DomainDataSize: 4 << 20,
		StackSize:      256 << 10,
		MaxThreads:     32,
		FSImage:        "occlum.img",
		FSKey:          fs.KeyFromString("occlum-default"),
		FSBlocks:       16384,
		VerifierKey:    oelf.NewSigningKey("occlum"),
		CycleSlice:     1 << 20,
	}
}

// Domain is one preallocated MMDSFI domain: [C][G1][D][G2].
type Domain struct {
	ID       uint32
	CodeBase uint64 // start of the code region C
	CodeSize uint64
	DataBase uint64 // start of the data region D
	DataSize uint64
	inUse    bool

	// The warm slot: what a domain keeps across exit→spawn (DESIGN.md
	// "Domain lifecycle"). cpu is the CPU every SIP of the domain runs
	// on, one at a time, with the translation cache it built. resident
	// is the verified image the code region holds, laid out and patched
	// for this domain, or nil; codeSpan is the generation snapshot of
	// the whole code region taken right after the loader wrote it. All
	// three are the holder's while inUse, and read under o.mu when not.
	cpu      *vm.CPU
	resident *loadedImage
	codeSpan mem.Span
	// call is the holder's syscall as the gate decodes it (one SIP, one
	// call in flight); as a Proc field it would cost every spawn 128 B.
	call sysdispatch.Call
}

// Occlum is one LibOS instance inside one enclave.
type Occlum struct {
	// stats comes first, so its words are 64-bit aligned for sync/atomic
	// on 32-bit platforms too.
	stats    SpawnSnapshot
	cfg      Config
	platform *sgx.Platform
	enclave  *sgx.Enclave
	host     *hostos.Host
	sched    *sched.Scheduler
	// timers is the instance's deadline queue: every guest deadline
	// (poll/epoll timeouts, idle reaping) is one heap entry, and the
	// queue keeps at most ONE host timer outstanding — so host timer
	// pressure is one per LibOS, not one per parked connection (the
	// c100k property).
	timers *timers.Queue

	mu      sync.Mutex
	domains []*Domain
	procs   map[int]*Proc
	nextPID int
	// waitWakers holds the unpark callback of each SIP parked in wait4,
	// keyed by the waiting (parent) pid: a SIP has one syscall in flight,
	// so one entry each. Every child teardown wakes its parent's entry.
	waitWakers map[int]func()

	vfs   *fs.VFS
	encfs *fs.EncFS
	store *fs.BlockStore

	// images caches what the loader verified, by file version.
	images *imageCache
	// pipeBufs recycles the ring buffers of this instance's pipes. It
	// is the instance's own, so a buffer that held enclave pipe bytes
	// never backs another instance's pipe or a host connection.
	pipeBufs ring.Pool

	// BootStats records the cost of enclave creation.
	BootStats BootStats
}

// SpawnSnapshot is the spawn/exit counters, declared once, in units that
// repeat exactly from run to run: Occlum.stats is a live value of it and
// SpawnStats returns a copy.
type SpawnSnapshot struct {
	// ImagesVerified counts binaries read, parsed and signature-checked;
	// ImageCacheHits counts spawns served from the verified-image cache
	// instead.
	ImagesVerified, ImageCacheHits uint64
	// ImageBytesRead counts file bytes the loader read through the
	// filesystem (cache misses only); ImageBytesLoaded counts bytes
	// copied into domains: the data segment on every spawn, the code
	// only when the slot did not already hold it.
	ImageBytesRead, ImageBytesLoaded uint64
	// PagesScrubbed counts domain pages zeroed (the dirty ones): data
	// pages at teardown, code pages when a load replaces what a slot
	// held; Exits counts teardowns.
	PagesScrubbed, Exits uint64
	// SlotHits counts spawns whose domain already held the image's code,
	// so the loader copied none and the domain's CPU kept its
	// translations.
	SlotHits uint64
}

// Sub returns the counter deltas since an earlier snapshot.
func (s SpawnSnapshot) Sub(prev SpawnSnapshot) SpawnSnapshot { return metrics.Sub(s, prev) }

// SpawnStats returns this LibOS's spawn/exit counters (also rendered at
// /proc/occlum).
func (o *Occlum) SpawnStats() SpawnSnapshot { return metrics.Load(&o.stats) }

// BootStats reports what enclave creation cost.
type BootStats struct {
	PagesAdded  uint64
	Measurement sgx.Measurement
}

// enclaveBase is where the enclave's ELRANGE starts.
const enclaveBase = 0x10000000

// Boot creates the enclave on platform, preallocates all domains (EADD +
// EEXTEND over every page — the real cryptographic cost of enclave
// creation), initializes it, and mounts the filesystems. A fresh
// encrypted image is created if none exists in host storage.
func Boot(platform *sgx.Platform, host *hostos.Host, cfg Config) (*Occlum, error) {
	if cfg.NumDomains <= 0 || cfg.MaxThreads <= 0 {
		return nil, fmt.Errorf("libos: bad config")
	}
	g := uint64(oelf.GuardSize)
	domSpan := cfg.DomainCodeSize + g + cfg.DomainDataSize + g
	total := libosReserve + g + uint64(cfg.NumDomains)*domSpan

	e, err := platform.ECreate(enclaveBase, total, cfg.MaxThreads)
	if err != nil {
		return nil, err
	}
	// LibOS reserve pages (RW; the LibOS "code" is this Go package).
	for off := uint64(0); off < libosReserve; off += mem.PageSize {
		if err := e.EAdd(enclaveBase+off, nil, mem.PermRW); err != nil {
			e.Destroy()
			return nil, err
		}
	}
	o := &Occlum{
		cfg:        cfg,
		platform:   platform,
		enclave:    e,
		host:       host,
		procs:      make(map[int]*Proc),
		nextPID:    1,
		waitWakers: make(map[int]func()),
		images:     newImageCache(uint64(cfg.NumDomains) * (cfg.DomainCodeSize + cfg.DomainDataSize)),
	}

	// Preallocate domains: code pages RWX (the loader rewrites them;
	// the common SGX-LibOS pitfall of §7), data pages RW, guards
	// unmapped.
	base := enclaveBase + libosReserve + g
	for i := 0; i < cfg.NumDomains; i++ {
		d := &Domain{
			ID:       uint32(i + 1),
			CodeBase: base,
			CodeSize: cfg.DomainCodeSize,
			DataBase: base + cfg.DomainCodeSize + g,
			DataSize: cfg.DomainDataSize,
		}
		for off := uint64(0); off < d.CodeSize; off += mem.PageSize {
			if err := e.EAdd(d.CodeBase+off, nil, mem.PermRWX); err != nil {
				e.Destroy()
				return nil, err
			}
		}
		for off := uint64(0); off < d.DataSize; off += mem.PageSize {
			if err := e.EAdd(d.DataBase+off, nil, mem.PermRW); err != nil {
				e.Destroy()
				return nil, err
			}
		}
		o.domains = append(o.domains, d)
		base += domSpan
	}
	meas, err := e.EInit()
	if err != nil {
		e.Destroy()
		return nil, err
	}
	o.BootStats = BootStats{PagesAdded: e.PagesAdded(), Measurement: meas}

	if err := o.mountFilesystems(); err != nil {
		e.Destroy()
		return nil, err
	}
	// The hart pool starts last, once boot can no longer fail: one hart
	// per TCS, multiplexing every SIP this enclave will ever run.
	// Both run on the host's clock: the scheduler's capacity and the
	// one driven deadline queue, backed by a single host timer.
	o.sched = sched.NewWithClock(cfg.MaxThreads, host)
	o.timers = timers.New(host)
	// Idle harts scrub the encrypted store in the background: each hook
	// call verifies (and, where parity allows, repairs) a bounded window
	// of stripes, so latent host bit-rot is found while the enclave still
	// has redundancy to heal it — not at the next cold open. The hook
	// reports false once a full pass has seen no new writes, letting the
	// pool quiesce until the store is mutated again.
	o.sched.SetIdle(func() bool {
		worked, err := o.store.ScrubStep(scrubWindow)
		return worked && err == nil
	})
	return o, nil
}

// scrubWindow is how many blocks one idle-hook call scrubs — small
// enough that a freshly enqueued SIP, or a host goroutine a SIP's exit
// readied (one blocked in Wait), waits at most one window behind
// background verification: the hart yields the processor after each.
const scrubWindow = 32

func (o *Occlum) mountFilesystems() error {
	var store *fs.BlockStore
	var err error
	if !fs.StoreExists(o.host, o.cfg.FSImage) {
		store, err = fs.CreateStore(o.host, o.cfg.FSImage, o.cfg.FSKey, o.cfg.FSBlocks)
		if err != nil {
			return err
		}
		if err := fs.Mkfs(store); err != nil {
			return err
		}
	} else {
		store, err = fs.OpenStore(o.host, o.cfg.FSImage, o.cfg.FSKey)
		if err != nil {
			return err
		}
	}
	o.store = store
	o.encfs, err = fs.Mount(store)
	if err != nil {
		return err
	}
	root := fs.FileSystem(o.encfs)
	if o.cfg.BaseImage != "" {
		img, err := fs.MountImage(o.host, o.cfg.BaseImage, o.cfg.BaseImageRoot)
		if err != nil {
			return err
		}
		root = fs.NewUnionFS(o.encfs, img)
	}
	o.vfs = fs.NewVFS()
	o.vfs.Mount("/", root)
	o.vfs.Mount("/dev", fs.NewDevFS(o.cfg.Stdout))
	o.vfs.Mount("/proc", newProcFS(o))
	return nil
}

// VFS exposes the LibOS filesystem (for image preparation and tests).
func (o *Occlum) VFS() *fs.VFS { return o.vfs }

// Host returns the untrusted host beneath this LibOS.
func (o *Occlum) Host() *hostos.Host { return o.host }

// Store exposes the encrypted block store (for scrub/repair tooling and
// tests).
func (o *Occlum) Store() *fs.BlockStore { return o.store }

// Sync flushes the encrypted filesystem to host storage and kicks the
// scheduler so the idle scrubber re-verifies the mutated store even when
// the mutation came from a host thread (no hart would wake otherwise).
func (o *Occlum) Sync() error {
	err := o.encfs.Sync()
	o.sched.Kick()
	return err
}

// Shutdown flushes state, stops the hart pool and releases the enclave.
// Processes should have exited.
func (o *Occlum) Shutdown() error {
	err := o.encfs.Sync()
	o.timers.Stop()
	o.sched.Stop()
	o.enclave.Destroy()
	return err
}

// Sched exposes the hart-pool scheduler (stats and tests).
func (o *Occlum) Sched() *sched.Scheduler { return o.sched }

// InstallBinary writes a marshaled binary into the LibOS filesystem at
// path — the "occlum build" step that prepares an image.
func (o *Occlum) InstallBinary(path string, bin *oelf.Binary) error {
	f, err := o.vfs.Open(path, fs.OWrOnly|fs.OCreate|fs.OTrunc)
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = f.WriteAt(bin.Marshal(), 0)
	return err
}

// allocDomain takes a free domain for a SIP running li: one whose code
// region holds li if there is one, else one holding no image, else the
// lowest free ID. The domain's CPU comes with it, a fresh one unless the
// domain held li — a CPU's translations are of the image it ran.
func (o *Occlum) allocDomain(li *loadedImage) (*Domain, error) {
	rank := func(d *Domain) int {
		switch d.resident {
		case li:
			return 0
		case nil:
			return 1
		}
		return 2
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	var d *Domain
	for _, c := range o.domains {
		if !c.inUse && (d == nil || rank(c) < rank(d)) {
			d = c
		}
	}
	if d == nil {
		return nil, fmt.Errorf("libos: every MMDSFI domain is in use: %w", sysdispatch.ErrNoRoom)
	}
	if d.cpu == nil || d.resident != li {
		d.cpu = vm.New(o.enclave.Paged)
	}
	d.inUse = true
	return d, nil
}

// checkTeardownZero makes every freeDomain re-read the whole domain and
// panic on a byte it should not hold (CheckTeardownZero).
var checkTeardownZero atomic.Bool

// CheckTeardownZero turns on, for every LibOS in the process, a full
// read-back of each domain at the end of freeDomain: the data region
// must read zero, and the code region must equal its resident layout byte
// for byte (codeLayout: zero when the domain holds no image). A byte the
// scrub left behind panics with its address. It costs a pass over the
// whole reservation per exit — the very cost the scrub avoids — so it is
// for test batteries, which call it from TestMain.
func CheckTeardownZero(on bool) { checkTeardownZero.Store(on) }

// scrub zeroes the dirty pages of [addr, addr+n), which d owns.
func (o *Occlum) scrub(d *Domain, addr, n uint64) {
	pages, err := o.enclave.ScrubDirty(addr, n)
	if err != nil {
		panic(fmt.Sprintf("libos: domain %d outside the enclave: %v", d.ID, err))
	}
	atomic.AddUint64(&o.stats.PagesScrubbed, uint64(pages))
}

func (o *Occlum) freeDomain(d *Domain) {
	// Scrub the data region so the next SIP cannot observe stale data —
	// inter-process isolation across domain reuse. Only pages written
	// since the last scrub can hold any; the rest are zero already. The
	// code region keeps the verified image it holds for the next SIP of
	// that image; a load of any other scrubs it first. Only a load that
	// failed midway leaves it holding no image, and then it goes too.
	o.scrub(d, d.DataBase, d.DataSize)
	if d.resident == nil {
		o.scrub(d, d.CodeBase, d.CodeSize)
	}
	if checkTeardownZero.Load() {
		o.checkRegion(d, d.CodeBase, o.codeLayout(d))
		o.checkRegion(d, d.DataBase, make([]byte, d.DataSize))
	}
	o.mu.Lock()
	d.inUse = false
	o.mu.Unlock()
}

// checkRegion panics unless d's memory at base holds want.
func (o *Occlum) checkRegion(d *Domain, base uint64, want []byte) {
	b, _ := o.enclave.ReadDirect(base, len(want))
	if bytes.Equal(b, want) {
		return
	}
	i := 0
	for b[i] == want[i] {
		i++
	}
	panic(fmt.Sprintf("libos: domain %d freed with byte %#x at %#x, want %#x", d.ID, b[i], base+uint64(i), want[i]))
}

// readUserBytes returns [addr, addr+n) of the calling SIP's data
// region, validating that the range lies inside it (the sanity checks
// of the syscall entry path). The slice is enclave memory, not a copy:
// it is valid for the current syscall, and a caller copies what it
// keeps.
func (p *Proc) readUserBytes(addr, n uint64) ([]byte, error) {
	if n > 1<<20 {
		return nil, errors.New("libos: user buffer too large")
	}
	if !p.inData(addr, n) {
		return nil, errors.New("libos: user pointer outside domain data region")
	}
	return p.os.enclave.ReadDirect(addr, int(n))
}

func (p *Proc) writeUserBytes(addr uint64, b []byte) error {
	if !p.inData(addr, uint64(len(b))) {
		return errors.New("libos: user pointer outside domain data region")
	}
	// WriteAt is permission-checked, which is the point here: syscall
	// results may only land in the SIP's (never-executable) data pages.
	// Translated-code caches are unaffected either way — generation
	// stamps are page-granular, and these pages hold no code.
	if f := p.os.enclave.WriteAt(addr, b); f != nil {
		return f
	}
	return nil
}

func (p *Proc) inData(addr, n uint64) bool {
	d := p.dom
	end := addr + n
	return addr >= d.DataBase && end >= addr && end <= d.DataBase+d.DataSize
}

func (p *Proc) readUserU64(addr uint64) (uint64, error) {
	b, err := p.readUserBytes(addr, 8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

// WriteU64 implements sysdispatch.Kernel; the bytes stay on this
// frame's stack.
func (p *Proc) WriteU64(addr, v uint64) error {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return p.writeUserBytes(addr, b[:])
}
