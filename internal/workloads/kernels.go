package workloads

import (
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/eip"
	"repro/internal/hostos"
	"repro/internal/libos"
	"repro/internal/linuxsim"
	"repro/internal/sgx"
)

// KernelSpec sizes the systems under test.
type KernelSpec struct {
	// Domains is the number of preallocated Occlum domains.
	Domains int
	// DomainCode / DomainData size each Occlum domain.
	DomainCode, DomainData uint64
	// EIPEnclaveSize is the per-process enclave size of the
	// Graphene-SGX baseline ("minimal size able to run the benchmark").
	EIPEnclaveSize uint64
	// Harts overrides the Occlum hart-pool size (SGX TCS count); 0
	// keeps the default of twice the domain count. SIP concurrency is
	// bounded by Domains either way — the M:N scheduler multiplexes.
	Harts int
	// BaseImageBlob, when non-empty, is a packed occlum-image blob the
	// Occlum kernel mounts read-only under the writable layer (union
	// root), pinned to BaseImageRoot.
	BaseImageBlob []byte
	BaseImageRoot [32]byte
	// IdleTimeout, when positive, enables the Occlum kernel's
	// wheel-driven idle reaper: accepted connections with no data
	// activity for this long are closed server-side.
	IdleTimeout time.Duration
	// ShedThreshold, when positive, enables accept-rate shedding: the
	// Occlum kernel refuses (accept-and-close) inbound connections
	// while at least this many SIPs sit in run queues.
	ShedThreshold int
	// Stdout receives console output.
	Stdout io.Writer
}

// DefaultSpec fits the small workloads used in tests.
func DefaultSpec() KernelSpec {
	return KernelSpec{
		Domains:        8,
		DomainCode:     1 << 20,
		DomainData:     4 << 20,
		EIPEnclaveSize: 8 << 20,
	}
}

// NewOcclumKernel boots an Occlum system per spec.
func NewOcclumKernel(spec KernelSpec) (*OcclumKernel, error) {
	tc := core.NewToolchain()
	lc := libos.DefaultConfig()
	lc.NumDomains = spec.Domains
	lc.DomainCodeSize = spec.DomainCode
	lc.DomainDataSize = spec.DomainData
	lc.MaxThreads = spec.Domains * 2
	if spec.Harts > 0 {
		lc.MaxThreads = spec.Harts
	}
	lc.IdleTimeout = spec.IdleTimeout
	lc.ShedThreshold = spec.ShedThreshold
	lc.VerifierKey = tc.Key()
	cfg := core.SystemConfig{
		LibOS:    lc,
		EPCBytes: 4 << 30,
		Stdout:   spec.Stdout,
	}
	if len(spec.BaseImageBlob) > 0 {
		cfg.LibOS.BaseImage = "base.img"
		cfg.LibOS.BaseImageRoot = spec.BaseImageRoot
		cfg.HostFiles = map[string][]byte{"base.img": spec.BaseImageBlob}
	}
	sys, err := core.BootSystem(cfg)
	if err != nil {
		return nil, err
	}
	return &OcclumKernel{Sys: sys, TC: tc}, nil
}

// NewLinuxKernel creates the native baseline.
func NewLinuxKernel(spec KernelSpec) *BaselineKernel {
	l := linuxsim.New(hostos.New())
	return &BaselineKernel{Kernel: l.Kernel, TC: core.NewToolchain(), name: "Linux", write: l.WriteFile}
}

// NewEIPKernel creates the Graphene-SGX-like baseline.
func NewEIPKernel(spec KernelSpec) *BaselineKernel {
	cfg := eip.DefaultConfig()
	cfg.EnclaveSize = spec.EIPEnclaveSize
	g := eip.New(sgx.NewPlatform(8<<30), hostos.New(), cfg)
	return &BaselineKernel{Kernel: g.Kernel, TC: core.NewToolchain(), name: "Graphene-SGX", write: g.InstallFile}
}

// AllKernels builds the three systems for a comparison run.
func AllKernels(spec KernelSpec) ([]Kernel, error) {
	occ, err := NewOcclumKernel(spec)
	if err != nil {
		return nil, err
	}
	return []Kernel{NewLinuxKernel(spec), occ, NewEIPKernel(spec)}, nil
}
