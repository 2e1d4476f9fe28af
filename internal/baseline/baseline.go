// Package baseline is the goroutine-per-process kernel both of the
// paper's comparison systems run on: native Linux (internal/linuxsim) and
// the enclave-per-process Graphene-SGX (internal/eip). What a blocking
// kernel does the same way whatever isolates its processes is here once
// — process table, spawn, run loop, trap entry, wait4, futex, mmap, exit
// — and a Model supplies the three rows of the paper's Table 1 in which
// an enclave-isolated process differs from a native one: how a process
// is created, how two processes talk, what file system they share.
package baseline

import (
	"errors"
	"sync"

	"repro/internal/asm"
	"repro/internal/fs"
	"repro/internal/hostos"
	"repro/internal/libos"
	"repro/internal/mem"
	"repro/internal/sysdispatch"
	"repro/internal/vm"
)

// Model is one system's answer to Table 1, and nothing else.
type Model interface {
	// Load is process creation: the address space path will run in.
	// parent is nil when the host spawns.
	Load(path string, argv []string, parent *Proc) (*Image, error)
	// NewPipe is IPC: the two ends of a pipe p creates.
	NewPipe(p *Proc) (r, w sysdispatch.File)
	// Open is the shared file system.
	Open(p *Proc, path string, flags int) (sysdispatch.File, error)
	// Register adds the syscalls only this system answers.
	Register(t *sysdispatch.Table)
}

// The errors Load and Open return reach the guest through one mapping
// (errno): ErrNotExist is -ENOENT and ErrNoRoom -EAGAIN, as the LibOS
// answers a missing path and an exhausted domain pool; anything else —
// a sealed file that fails authentication, a file that is not a binary
// — is -EACCES.
var (
	ErrNotExist = fs.ErrNotExist
	ErrNoRoom   = errors.New("baseline: no room for another process")
)

func errno(err error) int64 {
	switch {
	case errors.Is(err, ErrNotExist):
		return libos.ENOENT
	case errors.Is(err, ErrNoRoom):
		return libos.EAGAIN
	}
	return libos.EACCES
}

// Image is a created process before it runs. The model maps Mem; the
// skeleton copies Bin in at the layout Place computed.
type Image struct {
	Bin *asm.Image
	Mem *mem.Paged
	// Gate is the syscall gate page. Code follows it, then the guard,
	// then one data region: static data, heap, stack.
	Gate, DataBase, DataSize, StackSize uint64
	// UserBase and UserSize bound what a syscall argument may point at:
	// all of Mem on Linux, the data region on EIP, where copying across
	// it is the OCALL cost model (DESIGN.md, "Baselines").
	UserBase, UserSize uint64
	// Release frees what Load acquired, once, at exit.
	Release func()
	// Sys is the model's own per-process state (EIP: the enclave).
	Sys any
}

// Place lays bin out behind a gate page at gate — the geometry every
// system shares with the toolchain.
func Place(bin *asm.Image, gate, heapSize, stackSize uint64) *Image {
	dataBase := gate + mem.PageSize + bin.CodeSpan() + uint64(bin.GuardSize)
	return &Image{
		Bin: bin, Gate: gate, DataBase: dataBase, StackSize: stackSize,
		DataSize: (bin.MinDataSize() + heapSize + stackSize + mem.PageSize - 1) / mem.PageSize * mem.PageSize,
		Release:  func() {},
	}
}

// Kernel is one goroutine-per-process system: a host, a process table
// and a syscall table, over a Model.
type Kernel struct {
	host  *hostos.Host
	model Model
	table *sysdispatch.Table

	mu      sync.Mutex
	exits   *sync.Cond // broadcast on every exit; wait4 sleeps on it
	procs   map[int]*Proc
	nextPID int
}

// slice is how many instructions a process runs between scheduling
// points: the LibOS's default quantum.
const slice = 1 << 20

// New builds a kernel over host.
func New(host *hostos.Host, model Model) *Kernel {
	k := &Kernel{host: host, model: model, procs: make(map[int]*Proc), nextPID: 1}
	k.exits = sync.NewCond(&k.mu)
	k.table = k.newTable()
	return k
}

// Host returns the untrusted substrate.
func (k *Kernel) Host() *hostos.Host { return k.host }

// Procs returns live pids.
func (k *Kernel) Procs() []int {
	k.mu.Lock()
	defer k.mu.Unlock()
	var out []int
	for pid, p := range k.procs {
		if !p.exited {
			out = append(out, pid)
		}
	}
	return out
}

// Proc is one process: a goroutine running a CPU over its Image.
type Proc struct {
	k    *Kernel
	pid  int
	ppid int // guarded by k.mu: the parent's exit orphans us
	img  *Image
	cpu  *vm.CPU
	fds  *sysdispatch.FDTable

	heapPtr, heapEnd uint64

	exited bool
	status int
	done   chan struct{}
}

// PID returns the process ID.
func (p *Proc) PID() int { return p.pid }

// PPID returns the parent process ID (0 after orphaning).
func (p *Proc) PPID() int {
	p.k.mu.Lock()
	defer p.k.mu.Unlock()
	return p.ppid
}

// Image returns what the model's Load built for this process.
func (p *Proc) Image() *Image { return p.img }

// Cycles returns retired instructions.
func (p *Proc) Cycles() uint64 { return p.cpu.Cycles }

// FDs implements sysdispatch.Kernel.
func (p *Proc) FDs() *sysdispatch.FDTable { return p.fds }

var errFault = errors.New("baseline: user pointer outside the process's user memory")

func (p *Proc) inUser(addr, n uint64) bool {
	end := addr + n
	return addr >= p.img.UserBase && end >= addr && end <= p.img.UserBase+p.img.UserSize
}

// ReadUser implements sysdispatch.Kernel: copy out of the user range.
func (p *Proc) ReadUser(addr, n uint64) ([]byte, error) {
	if !p.inUser(addr, n) {
		return nil, errFault
	}
	b, err := p.img.Mem.ReadDirect(addr, int(n))
	return append([]byte(nil), b...), err
}

// WriteUser implements sysdispatch.Kernel: copy into the user range.
func (p *Proc) WriteUser(addr uint64, b []byte) error {
	if !p.inUser(addr, uint64(len(b))) || p.img.Mem.WriteAt(addr, b) != nil {
		return errFault
	}
	return nil
}

// Wait blocks for exit and returns the status. It reads the Proc, not
// the table, so the host may call it after the process was reaped or
// forgotten, and more than once.
func (p *Proc) Wait() int {
	<-p.done
	return p.status
}

// SpawnOpt mirrors libos.SpawnOpt. A child of Parent inherits its
// descriptors; a host-spawned process gets the three given, or discards.
type SpawnOpt struct {
	Parent                *Proc
	Stdin, Stdout, Stderr *libos.OpenFile
}

// Spawn creates a process running the binary at path.
func (k *Kernel) Spawn(path string, argv []string, opt SpawnOpt) (*Proc, error) {
	img, err := k.model.Load(path, argv, opt.Parent)
	if err != nil {
		return nil, err
	}
	p := &Proc{k: k, img: img, cpu: vm.New(img.Mem), fds: sysdispatch.NewFDTable(), done: make(chan struct{})}
	if err := p.start(append([]string{path}, argv...)); err != nil {
		img.Release()
		return nil, err
	}
	if opt.Parent != nil {
		p.ppid = opt.Parent.pid
		p.fds.InheritFrom(opt.Parent.fds)
	} else {
		for i, of := range []*libos.OpenFile{opt.Stdin, opt.Stdout, opt.Stderr} {
			if of == nil {
				of = libos.NewDiscardFile()
			} else {
				of.Ref()
			}
			p.fds.Set(i, of)
		}
	}
	k.mu.Lock()
	p.pid = k.nextPID
	k.nextPID++
	k.procs[p.pid] = p
	k.mu.Unlock()
	go p.run()
	return p, nil
}

// start copies the binary into the mapped image and sets up the
// process-start ABI: the gate (no MMDSFI domains here, so cfi_label 0),
// code, static data, the auxv block and the registers.
func (p *Proc) start(argv []string) error {
	img, codeBase := p.img, p.img.Gate+mem.PageSize
	if err := img.Mem.WriteDirect(img.Gate, libos.EncodeTrampoline(0)); err != nil {
		return err
	}
	if err := img.Mem.WriteDirect(codeBase, img.Bin.Code); err != nil {
		return err
	}
	if err := img.Mem.WriteDirect(img.DataBase, img.Bin.Data); err != nil {
		return err
	}
	var err error
	p.heapPtr, p.heapEnd, err = libos.SetupUserStack(img.Mem, p.cpu, img.Gate,
		img.DataBase, img.DataSize, img.StackSize, img.Bin.MinDataSize(), argv)
	p.cpu.PC = codeBase + uint64(img.Bin.Entry)
	return err
}

func (p *Proc) run() {
	for {
		switch p.cpu.Run(slice).Reason {
		case vm.StopCycles, vm.StopPreempt:
		case vm.StopTrap:
			if p.syscall() {
				return
			}
		default:
			p.exit(128 + libos.SIGSEGV)
			return
		}
	}
}

// exit releases what the process held and publishes its status, under
// the three rules of libos.(*Proc).teardown: reap children that already
// exited, orphan the living ones, and do not linger with no live parent
// to wait4 us. The table therefore holds live processes and the
// unreaped zombies of live parents, nothing else.
func (p *Proc) exit(status int) {
	p.fds.CloseAll()
	p.img.Release()
	k := p.k
	k.mu.Lock()
	p.exited, p.status = true, status
	for cpid, c := range k.procs {
		if c.ppid != p.pid {
			continue
		}
		if c.exited {
			delete(k.procs, cpid)
		} else {
			c.ppid = 0
		}
	}
	if parent, ok := k.procs[p.ppid]; !ok || parent.exited {
		delete(k.procs, p.pid)
	}
	close(p.done)
	k.exits.Broadcast()
	k.mu.Unlock()
}
