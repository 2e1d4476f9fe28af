package baseline

import (
	"repro/internal/sysdispatch"
	"repro/internal/vm"
)

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

// Idle creates a process of path that never runs, so a test can drive
// its syscalls through Dispatch with nothing else touching it.
func (k *Kernel) Idle(path string) (*Proc, error) {
	img, err := k.model.Load(path, nil, nil)
	if err != nil {
		return nil, err
	}
	p := &Proc{k: k, img: img, cpu: vm.New(img.Mem), fds: sysdispatch.NewFDTable(), done: make(chan struct{})}
	if err := p.start(path, nil); err != nil {
		return nil, err
	}
	k.mu.Lock()
	p.pid = k.nextPID
	k.nextPID++
	k.procs[p.pid] = p
	k.mu.Unlock()
	return p, nil
}

// Dispatch runs one syscall for p as its trap path does and returns R0.
func (p *Proc) Dispatch(no uint64, a [5]uint64) int64 {
	c := sysdispatch.Call{A: a}
	return p.k.table.Dispatch(p, no, &c).Ret
}
