package baseline

import "repro/internal/sysdispatch"

// Table exposes the per-instance syscall table to the drift tripwire.
func (k *Kernel) Table() *sysdispatch.Table { return k.table }

// TableLen counts process-table entries: live processes and zombies.
func (k *Kernel) TableLen() int {
	k.mu.Lock()
	defer k.mu.Unlock()
	return len(k.procs)
}

// Lookup returns the table entry for pid, or nil.
func (k *Kernel) Lookup(pid int) *Proc {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.procs[pid]
}
