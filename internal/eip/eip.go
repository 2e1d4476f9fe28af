// Package eip implements the Enclave-Isolated-Process baseline: a
// Graphene-SGX-like LibOS where every process lives in its own enclave
// (§3.2, Table 1). It is a baseline.Model — the paper's comparison points:
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
	"strings"
	"sync"

	"repro/internal/baseline"
	"repro/internal/hostos"
	"repro/internal/mem"
	"repro/internal/oelf"
	"repro/internal/sgx"
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
}

// DefaultConfig uses small enclaves suitable for tests; benchmarks pass
// realistic sizes.
func DefaultConfig() Config {
	return Config{
		EnclaveSize:  8 << 20,
		LibOSReserve: 2 << 20,
		StackSize:    256 << 10,
		HeapSize:     1 << 20,
	}
}

// Graphene is the EIP-based system: internal/baseline's kernel under the
// model in which every process owns an enclave.
type Graphene struct {
	*baseline.Kernel
	platform *sgx.Platform
	cfg      Config
	fsKey    [32]byte

	mu     sync.Mutex
	files  map[string][]byte // sealed, read-only protected files
	shmSeq int
}

// Proc is one EIP: a process in its own enclave.
type Proc = baseline.Proc

// SpawnOpt mirrors the other kernels' spawn options.
type SpawnOpt = baseline.SpawnOpt

// New creates an EIP system on the given platform and host.
func New(platform *sgx.Platform, host *hostos.Host, cfg Config) *Graphene {
	g := &Graphene{
		platform: platform,
		cfg:      cfg,
		fsKey:    sha256.Sum256([]byte("graphene-pf-key")),
		files:    make(map[string][]byte),
	}
	g.Kernel = baseline.New(host, g)
	return g
}

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
		return nil, fmt.Errorf("eip: protected file %s: %w", path, baseline.ErrNotExist)
	}
	return open(g.fsKey, []byte("pf:"+path), sealed)
}

const enclaveBase = 0x40000000

// enclaveOf returns the enclave p lives in.
func enclaveOf(p *Proc) *sgx.Enclave { return p.Image().Sys.(*sgx.Enclave) }

// Load implements baseline.Model — process creation is expensive
// (Table 1): the three steps of §3.2, then the binary is placed behind
// the in-enclave LibOS. Only the data region is user memory: syscall
// arguments cross the enclave boundary by copy.
func (g *Graphene) Load(path string, argv []string, parent *Proc) (*baseline.Image, error) {
	raw, err := g.readProtected(path)
	if err != nil {
		return nil, err
	}
	bin, err := oelf.Unmarshal(raw)
	if err != nil {
		return nil, err
	}
	img := baseline.Place(&bin.Image, enclaveBase+g.cfg.LibOSReserve, g.cfg.HeapSize, g.cfg.StackSize)
	if img.DataBase+img.DataSize+mem.PageSize > enclaveBase+g.cfg.EnclaveSize {
		return nil, fmt.Errorf("%w: binary does not fit enclave size %d", baseline.ErrNoRoom, g.cfg.EnclaveSize)
	}
	encl, err := g.platform.ECreate(enclaveBase, g.cfg.EnclaveSize, 4)
	if err != nil {
		return nil, err
	}
	state := strings.Join(append([]string{path}, argv...), "\x00") // what migrates: path and argv
	if err := g.populate(encl, img.Gate+mem.PageSize+bin.Image.CodeSpan(), parent, []byte(state)); err != nil {
		encl.Destroy()
		return nil, err
	}
	img.Mem, img.Sys, img.Release = encl.Paged, encl, encl.Destroy
	img.UserBase, img.UserSize = img.DataBase, img.DataSize
	return img, nil
}

// populate takes a created enclave through measurement, attestation and
// state migration; codeEnd is where its executable pages stop.
func (g *Graphene) populate(encl *sgx.Enclave, codeEnd uint64, parent *Proc, state []byte) error {
	// Step 1: measure a whole new enclave. Every page is
	// EADD+EEXTENDed — the dominant cost.
	for addr := uint64(enclaveBase); addr < enclaveBase+g.cfg.EnclaveSize; addr += mem.PageSize {
		perm := mem.PermRW
		if addr < codeEnd {
			perm = mem.PermRWX // LibOS + code pool (the RWX pitfall of §7)
		}
		if err := encl.EAdd(addr, nil, perm); err != nil {
			return fmt.Errorf("%w: %w", baseline.ErrNoRoom, err)
		}
	}
	if _, err := encl.EInit(); err != nil {
		return err
	}

	// Step 2: local attestation with the parent enclave (or the
	// bootstrapper): exchange MACed reports both ways and derive a
	// session key.
	var nonce [64]byte
	copy(nonce[:], "eip-spawn-handshake")
	attest := func(e *sgx.Enclave) (sgx.Measurement, error) {
		report, err := e.EReport(nonce)
		if err == nil {
			err = g.platform.VerifyReport(report)
		}
		return report.Measurement, err
	}
	childMeas, err := attest(encl)
	if err != nil {
		return err
	}
	var parentMeas sgx.Measurement
	if parent != nil {
		if parentMeas, err = attest(enclaveOf(parent)); err != nil {
			return err
		}
	}
	sessionKey := sha256.Sum256(append(append(parentMeas[:], childMeas[:]...), nonce[:]...))

	// Step 3: migrate the process state over an encrypted stream
	// through untrusted memory.
	g.mu.Lock()
	g.shmSeq++
	shmKey := fmt.Sprintf("eip-spawn-%d", g.shmSeq)
	g.mu.Unlock()
	g.Host().ShmWrite(shmKey, seal(sessionKey, []byte(shmKey), state))
	sealedState, ok := g.Host().ShmRead(shmKey)
	if !ok {
		return errors.New("eip: state transfer lost")
	}
	if _, err := open(sessionKey, []byte(shmKey), sealedState); err != nil {
		return fmt.Errorf("eip: state transfer corrupted: %w", err)
	}
	return nil
}
