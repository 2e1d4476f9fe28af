// Package workloads builds the paper's application benchmarks — Fish
// (process-intensive shell pipelines), GCC (CPU-intensive multi-stage
// compilation) and Lighttpd (I/O-intensive web serving) — as OVM programs,
// and provides a uniform Kernel interface so the same workload runs
// unchanged on Occlum, on the EIP (Graphene-SGX-like) baseline and on the
// native-Linux baseline.
package workloads

import (
	"io"

	"repro/internal/asm"
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/hostos"
	"repro/internal/libos"
)

// Proc is a spawned process on any of the three systems.
type Proc interface {
	Wait() int
	PID() int
	Cycles() uint64
}

// Kernel abstracts the three systems under test.
type Kernel interface {
	// Name identifies the system in benchmark output.
	Name() string
	// InstallProgram compiles a program appropriately for this system
	// (instrumented+verified for Occlum, plain for the baselines) and
	// installs it at path.
	InstallProgram(path string, prog *asm.Program) error
	// WriteInput installs input data at path (at image-preparation
	// time; the EIP filesystem is read-only afterwards).
	WriteInput(path string, data []byte) error
	// Spawn starts a process with the given stdout.
	Spawn(path string, argv []string, stdout io.Writer) (Proc, error)
	// Host returns the loopback network substrate.
	Host() *hostos.Host
}

// --- Occlum adapter ----------------------------------------------------------

// OcclumKernel adapts a booted Occlum system.
type OcclumKernel struct {
	Sys *core.System
	TC  *core.Toolchain
}

// Name implements Kernel.
func (k *OcclumKernel) Name() string { return "Occlum" }

// InstallProgram compiles with full MMDSFI instrumentation, verifies,
// signs and installs.
func (k *OcclumKernel) InstallProgram(path string, prog *asm.Program) error {
	return k.Sys.Install(k.TC, path, path, prog)
}

// WriteInput writes to the encrypted filesystem.
func (k *OcclumKernel) WriteInput(path string, data []byte) error {
	return k.Sys.WriteFile(path, data)
}

// Spawn starts a SIP.
func (k *OcclumKernel) Spawn(path string, argv []string, stdout io.Writer) (Proc, error) {
	opt := libos.SpawnOpt{}
	if stdout != nil {
		opt.Stdout = libos.NewWriterFile(stdout)
	}
	return k.Sys.OS.Spawn(path, argv, opt)
}

// Host implements Kernel.
func (k *OcclumKernel) Host() *hostos.Host { return k.Sys.Host }

// --- Baseline adapter --------------------------------------------------------

// BaselineKernel adapts either goroutine-per-process baseline: native
// Linux or the enclave-per-process Graphene-SGX.
type BaselineKernel struct {
	*baseline.Kernel // Host is the Kernel's own
	TC               *core.Toolchain

	name string
	// write installs a file at image-preparation time (on EIP, the
	// only time: its protected FS is read-only afterwards).
	write func(path string, data []byte)
}

// Name implements Kernel.
func (k *BaselineKernel) Name() string { return k.name }

// InstallProgram links without instrumentation (native execution;
// Graphene applies no SFI).
func (k *BaselineKernel) InstallProgram(path string, prog *asm.Program) error {
	bin, err := k.TC.CompileUnverified(path, prog)
	if err != nil {
		return err
	}
	k.write(path, bin.Marshal())
	return nil
}

// WriteInput implements Kernel.
func (k *BaselineKernel) WriteInput(path string, data []byte) error {
	k.write(path, data)
	return nil
}

// Spawn starts a process (on EIP, creating a fresh enclave).
func (k *BaselineKernel) Spawn(path string, argv []string, stdout io.Writer) (Proc, error) {
	opt := baseline.SpawnOpt{}
	if stdout != nil {
		opt.Stdout = libos.NewWriterFile(stdout)
	}
	return k.Kernel.Spawn(path, argv, opt)
}
