package libos

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/isa"
	"repro/internal/sched"
	"repro/internal/sysdispatch"
	"repro/internal/vm"
)

// Proc is one SIP: an SFI-isolated process occupying one MMDSFI domain.
//
// Under the M:N scheduler a SIP no longer owns a goroutine (nor, in the
// model, an SGX TCS) for its lifetime: it is a resumable coroutine
// stepped by the hart pool. Everything the CPU needs to continue — PC,
// registers, flags, bounds, and a possibly-in-flight blocked syscall —
// lives in this struct, so a hart can drop the SIP at any quantum
// boundary and any hart can pick it up later.
//
// A Proc is allocated once per spawn and never recycled: a *Proc held
// past the SIP's exit (a host-side Wait, a stale wake callback) only
// ever sees this SIP. Its scheduler handle, fd table, syscall record and
// exit latch are fields, so the Proc is the one object a warm spawn
// allocates for the SIP's own state.
type Proc struct {
	os   *Occlum
	pid  int
	ppid int // guarded by os.mu after spawn (reparenting)
	name string
	dom  *Domain
	cpu  *vm.CPU // dom's; the next SIP of the domain runs on it too
	task sched.G

	fds sysdispatch.FDTable

	heapBase, heapEnd, heapPtr uint64
	tramp                      uint64

	// sig is the signal state, allocated by the first sigaction or
	// signal the SIP sees; most SIPs see neither (guarded by os.mu).
	sig *sigState

	// sys is the syscall record: the SIP has at most one syscall in
	// flight, so one record per Proc serves every call, reset field by
	// field at entry. Only the hart stepping the SIP touches it; wakers
	// never hold a pointer to it, they latch wokenGen instead.
	sys blockedSys
	// blocked points at sys while the syscall is parked awaiting its
	// wakeup, nil while the SIP runs user code.
	blocked *blockedSys
	// cursys points at sys while it is being dispatched, so handlers
	// can persist progress and registrations across parks.
	cursys *blockedSys
	// sysGen numbers syscalls (hart-owned, no atomics needed); liveGen
	// publishes the generation of the syscall currently being
	// dispatched or parked, and 0 between syscalls. A wake callback
	// compares the generation it was armed for against liveGen before
	// unparking, so a timeout armed by an already-completed syscall can
	// never wake-steal the SIP out of a later park (see wakeGen).
	sysGen  uint64
	liveGen atomic.Uint64
	// wokenGen is the wake latch: the highest generation a timeout or
	// futex wake has fired for, raised by CAS-max. Syscall g is woken
	// iff wokenGen >= g. Generations only rise, and only the hart
	// starts a new one, so while g is live no later generation exists:
	// a latch >= g was aimed at g, and a stale one (< g) never reads
	// as g's.
	wokenGen atomic.Uint64
	// wake unparks the SIP: the one callback value every readiness,
	// accept and wait4 registration hands out, bound once at spawn.
	wake func()

	// Exit state (guarded by os.mu). exit is released once, by
	// teardown; Wait blocks on it, any number of times.
	exited bool
	status int
	exit   sync.WaitGroup

	// Cycles consumed (for diagnostics and /proc; read concurrently).
	cycles atomic.Uint64
}

// sigState is a SIP's signal state: installed handlers, the queue of
// pending signals, and the context a running handler interrupted.
type sigState struct {
	handlers  map[int]uint64
	pending   []int
	inHandler bool
	savedPC   uint64
	savedRegs [isa.NumRegs]uint64
}

// signals returns p's signal state, allocating it on first use; os.mu
// is held.
func (p *Proc) signals() *sigState {
	if p.sig == nil {
		p.sig = &sigState{handlers: make(map[int]uint64)}
	}
	return p.sig
}

// blockedSys is the continuation of a syscall: the number, where it
// returns, and whatever the handler needs to resume where it left off;
// the arguments are the domain's Call (Domain.call). Parked syscalls
// are re-dispatched from scratch on every wakeup, so handlers must be
// retry-safe; prog and the wake latch (Proc.wokenGen) are the two pieces
// of state that make pipe writes and futex waits idempotent across
// retries.
type blockedSys struct {
	no      uint64
	retAddr uint64
	// gen is this syscall's generation (Proc.sysGen at entry). Wake
	// callbacks capture it, never the record, and check it against
	// Proc.liveGen so a stale timer — one whose cancel raced its fire
	// — cannot unpark a SIP that already re-parked in a later syscall.
	gen uint64
	// prog counts bytes already transferred (pipe writes park midway
	// without re-sending what the reader already consumed).
	prog int64
	// cancel deregisters from the wait queue (futex registrations must
	// not outlive the syscall — a stale one would swallow a wake meant
	// for a real waiter). Called on any completion; wakers make it a
	// no-op for consumed registrations.
	cancel func()
}

// PID returns the process ID.
func (p *Proc) PID() int { return p.pid }

// PPID returns the parent process ID (0 after orphaning).
func (p *Proc) PPID() int {
	p.os.mu.Lock()
	defer p.os.mu.Unlock()
	return p.ppid
}

// Now implements sysdispatch.Kernel: the host's clock.
func (p *Proc) Now() time.Time { return p.os.host.Now() }

// Cycles returns retired instruction count so far.
func (p *Proc) Cycles() uint64 { return p.cycles.Load() }

// ReadUser implements sysdispatch.Kernel over the domain's data region:
// the returned bytes are enclave memory, valid for this syscall.
func (p *Proc) ReadUser(addr, n uint64) ([]byte, error) { return p.readUserBytes(addr, n) }

// WriteUser implements sysdispatch.Kernel.
func (p *Proc) WriteUser(addr uint64, b []byte) error { return p.writeUserBytes(addr, b) }

// UserOK implements sysdispatch.Kernel: the domain's data region is
// read-write throughout, so its bounds are the whole check.
func (p *Proc) UserOK(addr, n uint64, _ bool) bool { return p.inData(addr, n) }

// FDs implements sysdispatch.Kernel.
func (p *Proc) FDs() *sysdispatch.FDTable { return &p.fds }

// RequestPreempt implements sched.Preempter: the scheduler asks a
// CPU-bound SIP to yield at the next block boundary when runnable work
// piles up behind it.
func (p *Proc) RequestPreempt() { p.cpu.RequestPreempt() }

// woken reports whether a wake latched for the live syscall: the wake
// consumed its futex queue slot or its timeout expired, so the retry
// completes instead of re-registering.
func (p *Proc) woken() bool { return p.wokenGen.Load() >= p.sys.gen }

// wakeGen is the callback of a syscall's timeout and futex
// registrations, armed for generation gen. The latch always lands
// (CAS-max, so a stale gen never lowers it), but the unpark happens
// only while gen is still the SIP's live syscall. Cancel-vs-fire races
// are inherent (the timer queue collects due timers before running
// callbacks, so a cancel can arrive too late): a stale fire must not
// unpark the SIP, which may have completed that syscall and re-parked
// in a LATER one — the unpark would be wake-stolen by the wrong
// syscall, burning a spurious retry (and, for edge-sensitive waits,
// masking the real wakeup ordering).
func (p *Proc) wakeGen(gen uint64) {
	for w := p.wokenGen.Load(); w < gen && !p.wokenGen.CompareAndSwap(w, gen); {
		w = p.wokenGen.Load()
	}
	if p.liveGen.Load() != gen {
		atomic.AddUint64(&netStats.StaleWakes, 1)
		return
	}
	p.task.Unpark()
}

// SpawnOpt carries optional spawn parameters.
type SpawnOpt struct {
	// Parent, when set, is the spawning SIP; the child inherits its
	// open file table (sharing open file descriptions, as in §6).
	Parent *Proc
	// Stdin/Stdout/Stderr override fds 0-2 when Parent is nil.
	Stdin, Stdout, Stderr *OpenFile
}

// Spawn implements the spawn system call (§3.3): create a SIP in a free
// domain running the verified binary at path. Unlike fork, spawn shares
// no address space with the parent; unlike EIP spawn, it creates no
// enclave, performs no attestation, and copies no encrypted state.
//
// Concurrency is bounded by domains only: the SIP is a scheduler task,
// not a dedicated SGX thread, so far more SIPs than TCS entries
// (Config.NumThreads harts) can be live at once — the point of the M:N
// refactor.
func (o *Occlum) Spawn(path string, argv []string, opt SpawnOpt) (*Proc, error) {
	img, err := o.loadBinary(path)
	if err != nil {
		return nil, err
	}
	dom, err := o.allocDomain(img)
	if err != nil {
		return nil, err
	}

	o.mu.Lock()
	pid := o.nextPID
	o.nextPID++
	p := &Proc{os: o, pid: pid, name: path, dom: dom, cpu: dom.cpu}
	p.exit.Add(1)
	o.sched.Init(&p.task, p)
	p.wake = p.task.Unpark
	if opt.Parent != nil {
		p.ppid = opt.Parent.pid
	}
	o.procs[pid] = p
	o.mu.Unlock()

	// Inherit or set up standard fds.
	if opt.Parent != nil {
		p.fds.InheritFrom(&opt.Parent.fds)
	} else {
		stdio := func(of *OpenFile) *OpenFile {
			if of != nil {
				of.ref()
				return of
			}
			return o.consoleFile()
		}
		p.fds.Set(0, stdio(opt.Stdin))
		p.fds.Set(1, stdio(opt.Stdout))
		p.fds.Set(2, stdio(opt.Stderr))
	}

	if err := o.loadIntoDomain(dom, img, path, argv, p); err != nil {
		p.teardown(127)
		return nil, err
	}

	o.sched.Start(&p.task)
	return p, nil
}

// stepResult says how one syscall dispatch left the SIP.
type stepResult uint8

const (
	sysResume stepResult = iota // continue executing user code
	sysExited                   // the SIP tore down
	sysParked                   // the SIP parked; re-dispatch on unpark
	sysYield                    // end the quantum (sched_yield)
)

// Step implements sched.Task: run the SIP for one scheduling quantum
// (up to CycleSlice retired instructions), handling however many
// syscalls occur within it. It returns Park when a blocking syscall
// registered a waiter, releasing the hart to other SIPs — the core of
// the M:N model.
func (p *Proc) Step() sched.Status {
	if cur := p.blocked; cur != nil {
		// Parked syscall: let fatal signals terminate a blocked SIP
		// (handler-signals wait until the syscall completes, as they
		// did when a blocked syscall held its goroutine), then retry.
		if p.fatalSignalWhileBlocked() {
			return sched.Done
		}
		p.blocked = nil
		switch p.dispatch(cur) {
		case sysExited:
			return sched.Done
		case sysParked:
			return sched.Park
		case sysYield:
			return sched.Yield
		}
	}

	deadline := p.cpu.Cycles + p.os.cfg.CycleSlice
	for {
		if p.deliverPendingSignal() {
			return sched.Done
		}
		if p.cpu.Cycles >= deadline {
			return sched.Yield
		}
		stop := p.cpu.Run(deadline - p.cpu.Cycles)
		p.cycles.Store(p.cpu.Cycles)
		switch stop.Reason {
		case vm.StopCycles:
			// Quantum exhausted; requeue so other SIPs get the hart.
			return sched.Yield
		case vm.StopPreempt:
			// Asynchronous preemption honored at a block boundary —
			// requeue; the pending signal (or the queued work that
			// requested the preemption) is serviced on the next Step.
			p.os.sched.CountPreempt()
			return sched.Yield
		case vm.StopTrap:
			switch p.syscallEntry() {
			case sysExited:
				return sched.Done
			case sysParked:
				return sched.Park
			case sysYield:
				return sched.Yield
			}
			// sysResume: keep running within the same quantum.
		case vm.StopException:
			// An AEX the LibOS turns into a fatal signal.
			sig := SIGSEGV
			switch stop.Exc {
			case vm.ExcBound:
				sig = SIGSEGV // MMDSFI guard violation
			case vm.ExcDivide:
				sig = SIGFPE
			case vm.ExcInvalid:
				sig = SIGILL
			}
			p.teardown(128 + sig)
			return sched.Done
		case vm.StopHalt, vm.StopEExit:
			// Verified code cannot contain these; treat as fatal.
			p.teardown(128 + SIGILL)
			return sched.Done
		}
	}
}

// syscallEntry is the LibOS entry path: sanity-check the return address,
// reset the syscall record, and dispatch.
func (p *Proc) syscallEntry() stepResult {
	// Pop the return address pushed by the user's call to the
	// trampoline and ensure it targets a cfi_label of this SIP (§6).
	sp := p.cpu.Regs[isa.SP]
	retAddr, err := p.readUserU64(sp)
	if err != nil || !p.os.isDomainLabel(p.dom, retAddr) {
		p.teardown(128 + SIGSEGV)
		return sysExited
	}
	p.cpu.Regs[isa.SP] = sp + 8

	r := &p.cpu.Regs
	return p.dispatch(p.newSyscall(r[isa.R0], [5]uint64{r[isa.R1], r[isa.R2], r[isa.R3], r[isa.R4], r[isa.R5]}, retAddr))
}

// newSyscall resets the Proc's one syscall record for a new call under
// the next generation. The previous call has completed (a parked one is
// re-dispatched, never re-entered), so its registrations are gone and
// only a stale callback may still fire: it carries the old generation.
func (p *Proc) newSyscall(no uint64, a [5]uint64, retAddr uint64) *blockedSys {
	p.sysGen++
	cur := &p.sys
	cur.no = no
	p.dom.call.A = a
	cur.retAddr = retAddr
	cur.gen = p.sysGen
	cur.prog = 0
	cur.cancel = nil
	return cur
}

// dispatch runs one LibOS system call — just a function call within the
// enclave, never an enclave transition (the core performance argument of
// SIPs) — through the shared dispatch table, and applies the return
// protocol: R0 gets the result, PC the validated return address.
func (p *Proc) dispatch(cur *blockedSys) stepResult {
	p.cursys = cur
	p.liveGen.Store(cur.gen)
	res := sysTable.Dispatch(p, cur.no, &p.dom.call)
	p.cursys = nil
	if res.Exited {
		return sysExited
	}
	if res.Parked {
		p.blocked = cur
		return sysParked
	}
	// The record retires: stale-timer wakes for it are now suppressed
	// (liveGen no longer matches), closing the fire-vs-cancel race.
	p.liveGen.Store(0)
	if cur.cancel != nil {
		// The syscall is done; a wait-queue registration that was not
		// consumed by a wake must not linger.
		cur.cancel()
		cur.cancel = nil
	}
	if !res.NoWriteback {
		p.cpu.Regs[isa.R0] = uint64(res.Ret)
		p.cpu.PC = cur.retAddr
	}
	if res.Yielded {
		return sysYield
	}
	return sysResume
}

// teardown releases everything the SIP held and publishes its exit
// status.
func (p *Proc) teardown(status int) {
	if p.blocked != nil && p.blocked.cancel != nil {
		// Deregister the parked syscall's waiter so no future wake is
		// wasted on a dead SIP.
		p.blocked.cancel()
		p.blocked = nil
	}
	p.fds.CloseAll()
	p.os.freeDomain(p.dom)
	atomic.AddUint64(&p.os.stats.Exits, 1)

	o := p.os
	o.mu.Lock()
	p.exited = true
	p.status = status
	// Children: reap zombies, orphan the living (they auto-reap when
	// they exit — no one is left to wait4 them).
	for cpid, c := range o.procs {
		if c.ppid != p.pid || c == p {
			continue
		}
		if c.exited {
			delete(o.procs, cpid)
		} else {
			c.ppid = 0
		}
	}
	// A SIP with no parent to reap it does not linger as a zombie.
	if parent, ok := o.procs[p.ppid]; p.ppid == 0 || !ok || parent.exited {
		delete(o.procs, p.pid)
	}
	// Wake the parent if it is parked in wait4, and drop our own
	// wait4 registrations.
	wakeParent := o.waitWakers[p.ppid]
	delete(o.waitWakers, p.ppid)
	delete(o.waitWakers, p.pid)
	p.exit.Done()
	o.mu.Unlock()
	if wakeParent != nil {
		wakeParent()
	}
}

// Wait blocks until the process exits and returns its status. Unlike the
// in-LibOS wait4, Wait does not reap (the host-side caller may wait
// multiple times).
func (p *Proc) Wait() int {
	p.exit.Wait()
	return p.status
}

// sysWait4 is wait4(2): reap a matching child, writing its status when
// the caller asked for it, report ECHILD when none can ever match, or
// park until a child exits. Parking registers a waker keyed by our pid;
// every child teardown broadcasts to it, and the retry re-scans (wait4
// semantics tolerate the spurious wakeups this allows).
func sysWait4(k sysdispatch.Kernel, c *sysdispatch.Call) sysdispatch.Result {
	p := k.(*Proc)
	pid := int(int64(c.A[0]))
	o := p.os
	o.mu.Lock()
	defer o.mu.Unlock()
	found := false
	for cpid, ch := range o.procs {
		if ch.ppid != p.pid || ch == p {
			continue
		}
		if pid >= 0 && cpid != pid {
			continue
		}
		found = true
		if ch.exited {
			delete(o.procs, cpid)
			if c.A[1] != 0 {
				_ = p.WriteU64(c.A[1], uint64(ch.status)) // the word passed the gate
			}
			return sysdispatch.Ok(int64(cpid))
		}
	}
	if !found {
		return sysdispatch.Errno(ECHILD)
	}
	o.waitWakers[p.pid] = p.wake
	return sysdispatch.ParkedResult
}

// Kill delivers a signal to pid from outside the enclave (host-side
// test/bench use) or from another SIP. Delivery is prompt: the preempt
// flag stops a running SIP at its next block boundary, and an unpark
// wakes a parked one, instead of waiting out the CycleSlice as the
// goroutine-per-SIP model did.
func (o *Occlum) Kill(pid, sig int) error {
	o.mu.Lock()
	p, ok := o.procs[pid]
	if !ok || p.exited {
		o.mu.Unlock()
		return fmt.Errorf("libos: kill %d: %w", pid, sysdispatch.ErrNoProcess)
	}
	sg := p.signals()
	sg.pending = append(sg.pending, sig)
	o.mu.Unlock()
	p.cpu.RequestPreempt()
	p.task.Unpark()
	return nil
}

// deliverPendingSignal processes one pending signal at a preemption
// point. Returns true when the process was terminated.
func (p *Proc) deliverPendingSignal() bool {
	o := p.os
	o.mu.Lock()
	sg := p.sig
	if sg == nil || len(sg.pending) == 0 {
		o.mu.Unlock()
		return false
	}
	sig := sg.pending[0]
	sg.pending = sg.pending[1:]
	handler, hasHandler := sg.handlers[sig]
	inHandler := sg.inHandler
	if hasHandler && !inHandler && sig != SIGKILL {
		sg.inHandler = true
		o.mu.Unlock()
		// Push context and run the handler (its address was
		// validated as a domain cfi_label at sigaction time).
		sg.savedPC = p.cpu.PC
		sg.savedRegs = p.cpu.Regs
		p.cpu.PC = handler
		p.cpu.Regs[isa.R1] = uint64(sig)
		return false
	}
	o.mu.Unlock()
	if fatalByDefault(sig) {
		p.teardown(128 + sig)
		return true
	}
	return false // default-ignored signal
}

// fatalSignalWhileBlocked scans the pending queue of a SIP parked in a
// syscall: default-fatal signals terminate it immediately (cancelling
// the parked waiter); handler-signals stay queued until the syscall
// completes, matching the old behavior of a goroutine blocked in a
// syscall. Returns true when the SIP was terminated.
func (p *Proc) fatalSignalWhileBlocked() bool {
	o := p.os
	o.mu.Lock()
	sg := p.sig
	if sg == nil {
		o.mu.Unlock()
		return false
	}
	kept := sg.pending[:0]
	fatal := 0
	hasFatal := false
	for _, sig := range sg.pending {
		_, hasHandler := sg.handlers[sig]
		if (!hasHandler || sig == SIGKILL) && fatalByDefault(sig) {
			if !hasFatal {
				fatal, hasFatal = sig, true
			}
			continue
		}
		if !hasHandler && !fatalByDefault(sig) {
			continue // default-ignored: drop
		}
		kept = append(kept, sig)
	}
	sg.pending = kept
	o.mu.Unlock()
	if hasFatal {
		p.teardown(128 + fatal)
		return true
	}
	return false
}

// fatalByDefault reports whether sig terminates a SIP that installed no
// handler.
func fatalByDefault(sig int) bool {
	switch sig {
	case SIGKILL, SIGTERM, SIGSEGV, SIGILL, SIGFPE, SIGUSR1:
		return true
	}
	return false
}

// Procs returns a snapshot of live process IDs (for /proc and tests).
func (o *Occlum) Procs() []int {
	o.mu.Lock()
	defer o.mu.Unlock()
	var out []int
	for pid, p := range o.procs {
		if !p.exited {
			out = append(out, pid)
		}
	}
	return out
}
