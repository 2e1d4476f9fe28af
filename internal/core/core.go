// Package core is the public facade of the Occlum reproduction, tying the
// three components of Figure 1b together:
//
//   - the toolchain (asm builder + MMDSFI instrumentation + linker),
//   - the verifier (independent static checking + signing),
//   - the LibOS (enclave, domains, syscalls, filesystems).
//
// Typical use:
//
//	tc := core.NewToolchain()
//	bin, err := tc.Compile("hello", prog)      // instrument, link, verify, sign
//	sys, err := core.BootSystem(core.SystemConfig{})
//	sys.OS.InstallBinary("/bin/hello", bin)
//	p, err := sys.OS.Spawn("/bin/hello", nil, libos.SpawnOpt{})
//	status := p.Wait()
package core

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/asm"
	"repro/internal/fs"
	"repro/internal/hostos"
	"repro/internal/libos"
	"repro/internal/mmdsfi"
	"repro/internal/oelf"
	"repro/internal/sgx"
	"repro/internal/verifier"
)

// Toolchain compiles programs into verified, signed OELF binaries.
type Toolchain struct {
	key  oelf.SigningKey
	opts mmdsfi.Options
	ver  *verifier.Verifier
}

// NewToolchain builds a toolchain with the default signing key and full,
// optimized MMDSFI instrumentation.
func NewToolchain() *Toolchain {
	return NewToolchainWith(oelf.NewSigningKey("occlum"), mmdsfi.DefaultOptions())
}

// NewToolchainWith builds a toolchain with explicit key and options.
func NewToolchainWith(key oelf.SigningKey, opts mmdsfi.Options) *Toolchain {
	return &Toolchain{key: key, opts: opts, ver: verifier.New(key)}
}

// Key returns the signing key (needed to configure a LibOS that trusts
// this toolchain's verifier).
func (tc *Toolchain) Key() oelf.SigningKey { return tc.key }

// Compile instruments, links, verifies and signs a program. The verifier
// runs unconditionally: a toolchain bug that emits non-compliant code is
// caught here, exactly as the paper's architecture intends.
func (tc *Toolchain) Compile(name string, p *asm.Program) (*oelf.Binary, error) {
	ip, err := mmdsfi.Instrument(p, tc.opts)
	if err != nil {
		return nil, fmt.Errorf("core: instrument %s: %w", name, err)
	}
	img, err := asm.Link(ip)
	if err != nil {
		return nil, fmt.Errorf("core: link %s: %w", name, err)
	}
	bin := oelf.FromImage(name, img)
	if err := tc.ver.VerifyAndSign(bin); err != nil {
		return nil, fmt.Errorf("core: verify %s: %w", name, err)
	}
	return bin, nil
}

// CompileUnverified links without instrumentation or signing — for
// baseline (native Linux) execution and for negative tests.
func (tc *Toolchain) CompileUnverified(name string, p *asm.Program) (*oelf.Binary, error) {
	img, err := asm.Link(p)
	if err != nil {
		return nil, fmt.Errorf("core: link %s: %w", name, err)
	}
	return oelf.FromImage(name, img), nil
}

// SystemConfig parameterizes BootSystem.
type SystemConfig struct {
	// LibOS overrides the LibOS configuration; zero means
	// libos.DefaultConfig with the toolchain key.
	LibOS libos.Config
	// EPCBytes sizes the platform's EPC (default 512 MiB).
	EPCBytes uint64
	// Stdout receives /dev/console output.
	Stdout io.Writer
	// HostFiles pre-populates untrusted host storage before boot — how
	// a packed occlum-image blob reaches LibOS.Config.BaseImage.
	HostFiles map[string][]byte
}

// System is a booted platform + host + LibOS.
type System struct {
	Platform *sgx.Platform
	Host     *hostos.Host
	OS       *libos.Occlum
}

// BootSystem creates a platform and host and boots one Occlum LibOS
// enclave on them.
func BootSystem(cfg SystemConfig) (*System, error) {
	if cfg.EPCBytes == 0 {
		cfg.EPCBytes = 512 << 20
	}
	lc := cfg.LibOS
	if lc.NumDomains == 0 {
		lc = libos.DefaultConfig()
	}
	if cfg.Stdout != nil {
		lc.Stdout = cfg.Stdout
	}
	platform := sgx.NewPlatform(cfg.EPCBytes)
	host := hostos.New()
	for name, data := range cfg.HostFiles {
		host.WriteFile(name, data)
	}
	os, err := libos.Boot(platform, host, lc)
	if err != nil {
		return nil, err
	}
	return &System{Platform: platform, Host: host, OS: os}, nil
}

// Install compiles-and-installs in one step, the "occlum build" flow.
func (s *System) Install(tc *Toolchain, path, name string, p *asm.Program) error {
	bin, err := tc.Compile(name, p)
	if err != nil {
		return err
	}
	return s.InstallBinary(path, bin)
}

// InstallBinary places a prebuilt binary at path, creating parent
// directories as needed.
func (s *System) InstallBinary(path string, bin *oelf.Binary) error {
	if err := s.MkdirAll(parentDir(path)); err != nil {
		return err
	}
	return s.OS.InstallBinary(path, bin)
}

// MkdirAll creates the directory path and its missing parents on the
// LibOS filesystem. It returns the first error other than fs.ErrExist.
func (s *System) MkdirAll(path string) error {
	if path == "" || path == "/" {
		return nil
	}
	if err := s.MkdirAll(parentDir(path)); err != nil {
		return err
	}
	if err := s.OS.VFS().Mkdir(path); err != nil && !errors.Is(err, fs.ErrExist) {
		return err
	}
	return nil
}

func parentDir(p string) string {
	i := len(p) - 1
	for i > 0 && p[i] != '/' {
		i--
	}
	return p[:i]
}

// WriteFile writes a plain file into the LibOS encrypted filesystem
// (image preparation), creating parent directories as needed.
func (s *System) WriteFile(path string, data []byte) error {
	if err := s.MkdirAll(parentDir(path)); err != nil {
		return err
	}
	f, err := s.OS.VFS().Open(path, fs.OWrOnly|fs.OCreate|fs.OTrunc)
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = f.WriteAt(data, 0)
	return err
}

// ReadFile reads a file back from the LibOS filesystem.
func (s *System) ReadFile(path string) ([]byte, error) {
	f, err := s.OS.VFS().Open(path, fs.ORdOnly)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	buf := make([]byte, f.Size())
	_, err = f.ReadAt(buf, 0)
	return buf, err
}
