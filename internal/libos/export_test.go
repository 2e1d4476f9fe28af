package libos

import "repro/internal/vm"

// ScrubWindow is how many blocks one idle-hook call scrubs.
const ScrubWindow = scrubWindow

// Domain returns the i-th domain (0-based), for tests that look at its
// layout. Its exported fields never change after Boot.
func (o *Occlum) Domain(i int) *Domain { return o.domains[i] }

// DomainCPU returns the CPU d's SIPs run on; call it while none does.
func (o *Occlum) DomainCPU(d *Domain) *vm.CPU {
	o.mu.Lock()
	defer o.mu.Unlock()
	return d.cpu
}

// WriteDirect is a trusted write into the enclave, the kind the loader
// makes.
func (o *Occlum) WriteDirect(addr uint64, b []byte) error { return o.enclave.WriteDirect(addr, b) }

// CodeRegion returns what d's code region holds and what it must hold
// between SIPs (codeLayout); call it while no SIP runs in d.
func (o *Occlum) CodeRegion(d *Domain) (got, want []byte) {
	o.mu.Lock()
	defer o.mu.Unlock()
	b, err := o.enclave.ReadDirect(d.CodeBase, int(d.CodeSize))
	if err != nil {
		panic(err)
	}
	return b, o.codeLayout(d)
}

// Domains returns every domain and how many of them a SIP holds now.
func (o *Occlum) Domains() (all []*Domain, inUse int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, d := range o.domains {
		if d.inUse {
			inUse++
		}
	}
	return o.domains, inUse
}
