// Package eip implements the Enclave-Isolated-Process baseline: a
// Graphene-SGX-like LibOS where every process lives in its own enclave
// (§3.2, Table 1). It exists to reproduce the paper's comparison points:
//
//   - Process creation requires creating and measuring a whole new
//     enclave, local attestation between parent and child, and migrating
//     the process state over an encrypted channel — all real
//     cryptographic work here, which is why EIP spawn is orders of
//     magnitude slower than SIP spawn (Fig 6a).
//   - IPC crosses enclave boundaries, so every pipe write is sealed with
//     AES-GCM into untrusted memory and unsealed on read (Fig 6b).
//   - The filesystem is read-only protected files: with n LibOS instances
//     there is no safe shared writable state (Table 1).
//
// Binaries run uninstrumented (Graphene is binary-compatible and applies
// no SFI), so EIP processes pay no MMDSFI overhead — but gain no
// intra-enclave isolation either, which the RIPE benchmark (§9.3)
// exposes.
package eip

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"sync"

	"repro/internal/hostos"
	"repro/internal/libos"
	"repro/internal/mem"
	"repro/internal/oelf"
	"repro/internal/sgx"
	"repro/internal/sysdispatch"
	"repro/internal/vm"
)

// Config sizes the per-process enclaves.
type Config struct {
	// EnclaveSize is the per-process enclave size. The paper notes
	// Graphene-SGX was configured with the minimal size able to run
	// each benchmark; creation cost is proportional to this.
	EnclaveSize uint64
	// LibOSReserve is the in-enclave LibOS footprint added to every
	// process enclave (Graphene's LibOS is loaded into each).
	LibOSReserve uint64
	// StackSize and HeapSize size the process image.
	StackSize, HeapSize uint64
	// CycleSlice is the scheduler quantum.
	CycleSlice uint64
}

// DefaultConfig uses small enclaves suitable for tests; benchmarks pass
// realistic sizes.
func DefaultConfig() Config {
	return Config{
		EnclaveSize:  8 << 20,
		LibOSReserve: 2 << 20,
		StackSize:    256 << 10,
		HeapSize:     1 << 20,
		CycleSlice:   1 << 20,
	}
}

// Graphene is the EIP-based system: a process table where every process
// owns an enclave.
type Graphene struct {
	platform *sgx.Platform
	host     *hostos.Host
	cfg      Config

	mu       sync.Mutex
	procCond *sync.Cond
	files    map[string][]byte // sealed, read-only protected files
	fsKey    [32]byte
	procs    map[int]*Proc
	nextPID  int
	shmSeq   int
}

// New creates an EIP system on the given platform and host.
func New(platform *sgx.Platform, host *hostos.Host, cfg Config) *Graphene {
	g := &Graphene{
		platform: platform,
		host:     host,
		cfg:      cfg,
		files:    make(map[string][]byte),
		procs:    make(map[int]*Proc),
		nextPID:  1,
	}
	g.fsKey = sha256.Sum256([]byte("graphene-pf-key"))
	g.procCond = sync.NewCond(&g.mu)
	return g
}

// Host returns the untrusted substrate.
func (g *Graphene) Host() *hostos.Host { return g.host }

// InstallBinary seals a binary into the read-only protected FS.
func (g *Graphene) InstallBinary(path string, bin *oelf.Binary) {
	g.InstallFile(path, bin.Marshal())
}

// InstallFile seals a file into the read-only protected FS. This happens
// at image-preparation time; at runtime the FS cannot be written (the
// paper's Graphene-SGX limitation).
func (g *Graphene) InstallFile(path string, data []byte) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.files[path] = seal(g.fsKey, []byte("pf:"+path), data)
}

func (g *Graphene) readProtected(path string) ([]byte, error) {
	g.mu.Lock()
	sealed, ok := g.files[path]
	g.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("eip: %s: no such protected file", path)
	}
	return open(g.fsKey, []byte("pf:"+path), sealed)
}

// Proc is one EIP: a process in its own enclave.
type Proc struct {
	g    *Graphene
	pid  int
	ppid int
	encl *sgx.Enclave
	cpu  *vm.CPU

	fds *sysdispatch.FDTable

	heapPtr, heapEnd   uint64
	dataBase, dataSize uint64

	exited bool
	status int
	done   chan struct{}
	cycles uint64
}

// PID returns the process id.
func (p *Proc) PID() int { return p.pid }

// PPID returns the parent process id.
func (p *Proc) PPID() int { return p.ppid }

// FDs implements sysdispatch.Kernel.
func (p *Proc) FDs() *sysdispatch.FDTable { return p.fds }

// ReadUser implements sysdispatch.Kernel. It is the copy-out half of the
// OCALL cost model: a host-delegated operation cannot be handed enclave
// memory, so every argument buffer is copied out of the enclave into an
// untrusted one (and results copied back by WriteUser) — the
// EENTER/EEXIT marshalling the paper's Lighttpd benchmark measures.
func (p *Proc) ReadUser(addr, n uint64) ([]byte, error) {
	if !p.inData(addr, n) {
		return nil, errFault
	}
	b, err := p.cpu.Mem.ReadDirect(addr, int(n))
	if err != nil {
		return nil, err
	}
	return append([]byte(nil), b...), nil
}

// WriteUser implements sysdispatch.Kernel: the copy-in half.
func (p *Proc) WriteUser(addr uint64, b []byte) error {
	if !p.inData(addr, uint64(len(b))) || p.cpu.Mem.WriteAt(addr, b) != nil {
		return errFault
	}
	return nil
}

var errFault = errors.New("eip: user pointer outside the process image")

func (p *Proc) inData(addr, n uint64) bool {
	end := addr + n
	return addr >= p.dataBase && end >= addr && end <= p.dataBase+p.dataSize
}

// Cycles returns retired instructions.
func (p *Proc) Cycles() uint64 { return p.cycles }

// Wait blocks for exit.
func (p *Proc) Wait() int {
	<-p.done
	return p.status
}

// SpawnOpt mirrors the other kernels' spawn options.
type SpawnOpt struct {
	Parent                *Proc
	Stdin, Stdout, Stderr *libos.OpenFile
}

const enclaveBase = 0x40000000

// Spawn creates a new EIP: the three expensive steps of §3.2.
func (g *Graphene) Spawn(path string, argv []string, opt SpawnOpt) (*Proc, error) {
	raw, err := g.readProtected(path)
	if err != nil {
		return nil, err
	}
	bin, err := oelf.Unmarshal(raw)
	if err != nil {
		return nil, err
	}
	img := &bin.Image

	// Step 1: create and measure a whole new enclave. Every page is
	// EADD+EEXTENDed — the dominant cost.
	encl, err := g.platform.ECreate(enclaveBase, g.cfg.EnclaveSize, 4)
	if err != nil {
		return nil, err
	}
	for off := uint64(0); off < g.cfg.EnclaveSize; off += mem.PageSize {
		perm := mem.PermRW
		if off < g.cfg.LibOSReserve+mem.PageSize+img.CodeSpan() {
			perm = mem.PermRWX // LibOS + code pool (the RWX pitfall of §7)
		}
		if err := encl.EAdd(enclaveBase+off, nil, perm); err != nil {
			encl.Destroy()
			return nil, err
		}
	}
	if _, err := encl.EInit(); err != nil {
		encl.Destroy()
		return nil, err
	}

	// Step 2: local attestation with the parent enclave (or the
	// bootstrapper): exchange MACed reports both ways and derive a
	// session key.
	var nonce [64]byte
	copy(nonce[:], "eip-spawn-handshake")
	childReport, err := encl.EReport(nonce)
	if err != nil {
		encl.Destroy()
		return nil, err
	}
	if err := g.platform.VerifyReport(childReport); err != nil {
		encl.Destroy()
		return nil, err
	}
	var parentMeas sgx.Measurement
	if opt.Parent != nil {
		parentReport, err := opt.Parent.encl.EReport(nonce)
		if err != nil {
			encl.Destroy()
			return nil, err
		}
		if err := g.platform.VerifyReport(parentReport); err != nil {
			encl.Destroy()
			return nil, err
		}
		parentMeas = opt.Parent.encl.Measurement()
	}
	sessionKey := sha256.Sum256(append(append(parentMeas[:], childReport.Measurement[:]...), nonce[:]...))

	// Step 3: migrate the process state over an encrypted stream
	// through untrusted memory.
	state := encodeSpawnState(path, argv)
	g.mu.Lock()
	g.shmSeq++
	shmKey := fmt.Sprintf("eip-spawn-%d", g.shmSeq)
	g.mu.Unlock()
	g.host.ShmWrite(shmKey, seal(sessionKey, []byte(shmKey), state))
	sealedState, okShm := g.host.ShmRead(shmKey)
	if !okShm {
		encl.Destroy()
		return nil, errors.New("eip: state transfer lost")
	}
	if _, err := open(sessionKey, []byte(shmKey), sealedState); err != nil {
		encl.Destroy()
		return nil, fmt.Errorf("eip: state transfer corrupted: %w", err)
	}

	// Load the binary into the child enclave.
	codeBase := uint64(enclaveBase) + g.cfg.LibOSReserve + mem.PageSize
	dataBase := codeBase + img.CodeSpan() + uint64(img.GuardSize)
	dataSize := (img.MinDataSize() + g.cfg.HeapSize + g.cfg.StackSize + mem.PageSize - 1) /
		mem.PageSize * mem.PageSize
	if dataBase+dataSize+mem.PageSize > enclaveBase+g.cfg.EnclaveSize {
		encl.Destroy()
		return nil, fmt.Errorf("eip: binary does not fit enclave size %d", g.cfg.EnclaveSize)
	}
	if err := encl.WriteDirect(codeBase-mem.PageSize, libos.EncodeTrampoline(0)); err != nil {
		encl.Destroy()
		return nil, err
	}
	if err := encl.WriteDirect(codeBase, img.Code); err != nil {
		encl.Destroy()
		return nil, err
	}
	if err := encl.WriteDirect(dataBase, img.Data); err != nil {
		encl.Destroy()
		return nil, err
	}

	g.mu.Lock()
	pid := g.nextPID
	g.nextPID++
	p := &Proc{
		g: g, pid: pid, encl: encl, cpu: vm.New(encl.Paged),
		fds:      sysdispatch.NewFDTable(),
		dataBase: dataBase, dataSize: dataSize,
		done: make(chan struct{}),
	}
	if opt.Parent != nil {
		p.ppid = opt.Parent.pid
	}
	g.procs[pid] = p
	g.mu.Unlock()

	// fd inheritance: descriptors are re-established in the child; pipe
	// ends keep flowing through their (encrypted) untrusted queues.
	if opt.Parent != nil {
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

	_, _, err = libos.SetupUserStack(encl.Paged, p.cpu, codeBase-mem.PageSize,
		dataBase, dataSize, g.cfg.StackSize, img.MinDataSize(), append([]string{path}, argv...))
	if err != nil {
		encl.Destroy()
		return nil, err
	}
	p.heapPtr = dataBase + (img.MinDataSize()+15)/16*16
	p.heapEnd = dataBase + dataSize - g.cfg.StackSize
	p.cpu.PC = codeBase + uint64(img.Entry)

	go p.run()
	return p, nil
}

func encodeSpawnState(path string, argv []string) []byte {
	out := []byte(path)
	for _, a := range argv {
		out = append(out, 0)
		out = append(out, a...)
	}
	return out
}

func (p *Proc) run() {
	for {
		stop := p.cpu.Run(p.g.cfg.CycleSlice)
		p.cycles = p.cpu.Cycles
		switch stop.Reason {
		case vm.StopCycles:
			continue
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

func (p *Proc) exit(status int) {
	p.fds.CloseAll()
	p.encl.Destroy()
	g := p.g
	g.mu.Lock()
	p.exited = true
	p.status = status
	close(p.done)
	g.procCond.Broadcast()
	g.mu.Unlock()
}

// Procs returns live pids.
func (g *Graphene) Procs() []int {
	g.mu.Lock()
	defer g.mu.Unlock()
	var out []int
	for pid, p := range g.procs {
		if !p.exited {
			out = append(out, pid)
		}
	}
	return out
}
