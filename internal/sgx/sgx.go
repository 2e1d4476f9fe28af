// Package sgx models the Intel SGX 1.0 features that the Occlum paper
// depends on: enclave creation with cryptographic measurement, the EPC
// page-permission model, asynchronous enclave exits with state save areas,
// and local attestation between enclaves on the same platform.
//
// The model keeps the *costs* of the paper's SGX real where they matter to
// the evaluation:
//
//   - Enclave creation measures every added page with SHA-256 (the EADD +
//     EEXTEND work that makes Graphene-SGX-style per-process enclaves so
//     expensive, Figure 6a).
//   - SGX 1.0 semantics: after EINIT, no page may be added, removed, or
//     have its permissions changed, which is why the Occlum LibOS
//     preallocates the pages of all MMDSFI domains up front (§6).
package sgx

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"repro/internal/mem"
	"repro/internal/mpx"
)

// PageSize re-exports the EPC page size.
const PageSize = mem.PageSize

// Enclave lifecycle and platform errors.
var (
	// ErrInitialized reports an SGX 1.0 restriction violation: the
	// enclave is initialized, so pages can no longer be changed.
	ErrInitialized = errors.New("sgx: enclave already initialized (SGX 1.0 forbids page changes)")
	// ErrNotInitialized reports entering an enclave before EINIT.
	ErrNotInitialized = errors.New("sgx: enclave not initialized")
	// ErrEPCExhausted reports that the platform's EPC has no room for
	// another page.
	ErrEPCExhausted = errors.New("sgx: EPC exhausted")
	// ErrBadReport reports a local-attestation report whose MAC does
	// not verify on this platform.
	ErrBadReport = errors.New("sgx: report MAC verification failed")
)

// Platform models one SGX-capable machine: it owns the EPC budget and the
// processor keys used for local attestation.
type Platform struct {
	mu      sync.Mutex
	epcCap  uint64 // bytes
	epcUsed uint64
	key     [32]byte // processor report key (never leaves the platform)
}

// NewPlatform creates a platform with the given EPC capacity in bytes.
// Real SGX 1.0 parts expose roughly 93 MiB of usable EPC out of a 128 MiB
// reservation; pass something in that range for realistic pressure.
func NewPlatform(epcBytes uint64) *Platform {
	p := &Platform{epcCap: epcBytes}
	// A fixed, platform-private key. Derived deterministically so tests
	// are reproducible; in real SGX this is fused into the processor.
	p.key = sha256.Sum256([]byte("ovm-sgx-platform-report-key"))
	return p
}

// EPCUsed returns the number of EPC bytes currently committed.
func (p *Platform) EPCUsed() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.epcUsed
}

func (p *Platform) chargeEPC(n uint64) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.epcUsed+n > p.epcCap {
		return fmt.Errorf("%w: used %d + %d > cap %d", ErrEPCExhausted, p.epcUsed, n, p.epcCap)
	}
	p.epcUsed += n
	return nil
}

func (p *Platform) releaseEPC(n uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.epcUsed -= n
}

// Measurement is the SHA-256 enclave measurement (MRENCLAVE).
type Measurement [32]byte

// SSA is the state save area of one SGX thread: the CPU state stored by
// the hardware on an asynchronous enclave exit (AEX) and restored on
// resume. Storing the MPX bound registers here is what lets MMDSFI trust
// them across exits (§2.3).
type SSA struct {
	// Valid marks that an AEX stored state here that has not yet been
	// consumed by a resume.
	Valid bool
	// PC is the interrupted program counter.
	PC uint64
	// Regs are the general-purpose registers.
	Regs [16]uint64
	// ZF and SF are the flags.
	ZF, SF bool
	// Bounds are the MPX bound registers.
	Bounds [4]mpx.Bound
}

// Enclave is one enclave instance. Its memory is a permission-checked
// paged range (the ELRANGE); the CPU protections of mem.Paged stand in for
// the EPC access control of real SGX.
type Enclave struct {
	*mem.Paged

	platform    *Platform
	measure     []byte // running measurement transcript
	measurement Measurement
	initialized bool
	pagesAdded  uint64
	ssa         []SSA // one per TCS
	destroyed   bool
}

// ECreate starts building an enclave whose ELRANGE is [base, base+size),
// with nthreads thread control structures. It corresponds to the ECREATE
// instruction. Pages are committed to the EPC lazily by EAdd.
func (p *Platform) ECreate(base, size uint64, nthreads int) (*Enclave, error) {
	if nthreads <= 0 {
		return nil, errors.New("sgx: enclave needs at least one thread")
	}
	e := &Enclave{
		Paged:    mem.NewPaged(base, size),
		platform: p,
		ssa:      make([]SSA, nthreads),
	}
	e.measure = binary.LittleEndian.AppendUint64(e.measure, size)
	return e, nil
}

// EAdd adds one page of content at vaddr with the given permission and
// extends the enclave measurement over the page content and its metadata
// (the EADD + EEXTEND pair). data may be shorter than a page; the
// remainder is zero. This is the cryptographic work that dominates enclave
// creation time.
func (e *Enclave) EAdd(vaddr uint64, data []byte, perm mem.Perm) error {
	if e.initialized {
		return ErrInitialized
	}
	if vaddr%PageSize != 0 {
		return fmt.Errorf("sgx: EADD at unaligned address %#x", vaddr)
	}
	if len(data) > PageSize {
		return fmt.Errorf("sgx: EADD data exceeds a page: %d", len(data))
	}
	if err := e.platform.chargeEPC(PageSize); err != nil {
		return err
	}
	if err := e.Map(vaddr, PageSize, perm); err != nil {
		e.platform.releaseEPC(PageSize)
		return err
	}
	if len(data) > 0 {
		if err := e.WriteDirect(vaddr, data); err != nil {
			e.platform.releaseEPC(PageSize)
			return err
		}
	}
	e.pagesAdded++

	// EEXTEND: hash the page metadata and full page content into the
	// measurement transcript.
	var meta [16]byte
	binary.LittleEndian.PutUint64(meta[0:], vaddr)
	binary.LittleEndian.PutUint64(meta[8:], uint64(perm))
	e.measure = append(e.measure, meta[:]...)
	page, err := e.ReadDirect(vaddr, PageSize)
	if err != nil {
		return err
	}
	sum := sha256.Sum256(page)
	e.measure = append(e.measure, sum[:]...)
	return nil
}

// EInit finalizes the measurement and marks the enclave initialized. After
// EInit, EAdd fails (SGX 1.0) and the enclave may be entered.
func (e *Enclave) EInit() (Measurement, error) {
	if e.initialized {
		return e.measurement, ErrInitialized
	}
	e.measurement = sha256.Sum256(e.measure)
	e.measure = nil
	e.initialized = true
	return e.measurement, nil
}

// Measurement returns the enclave's MRENCLAVE. It is only meaningful after
// EInit.
func (e *Enclave) Measurement() Measurement { return e.measurement }

// PagesAdded returns the number of EPC pages committed to this enclave.
func (e *Enclave) PagesAdded() uint64 { return e.pagesAdded }

// SSAFor returns the state save area of thread tcs.
func (e *Enclave) SSAFor(tcs int) *SSA { return &e.ssa[tcs] }

// Destroy releases the enclave's EPC pages. Using the enclave afterwards
// is a programming error.
func (e *Enclave) Destroy() {
	if e.destroyed {
		return
	}
	e.destroyed = true
	e.platform.releaseEPC(e.pagesAdded * PageSize)
}

// Report is a local attestation report (EREPORT): the enclave measurement
// plus user data, MACed with the platform's report key so that only
// enclaves on the same platform can verify it.
type Report struct {
	Measurement Measurement
	Data        [64]byte
	MAC         [32]byte
}

// EReport produces a local attestation report binding data to this
// enclave's measurement.
func (e *Enclave) EReport(data [64]byte) (Report, error) {
	if !e.initialized {
		return Report{}, ErrNotInitialized
	}
	r := Report{Measurement: e.measurement, Data: data}
	r.MAC = e.platform.reportMAC(r)
	return r, nil
}

// VerifyReport checks a report produced by another enclave on the same
// platform.
func (p *Platform) VerifyReport(r Report) error {
	want := p.reportMAC(r)
	if !hmac.Equal(want[:], r.MAC[:]) {
		return ErrBadReport
	}
	return nil
}

func (p *Platform) reportMAC(r Report) [32]byte {
	h := hmac.New(sha256.New, p.key[:])
	h.Write(r.Measurement[:])
	h.Write(r.Data[:])
	var mac [32]byte
	h.Sum(mac[:0])
	return mac
}
