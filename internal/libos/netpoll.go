package libos

// Readiness multiplexing: the LibOS halves of poll(2), epoll(7), fcntl
// O_NONBLOCK and shutdown(2).
//
// The design mirrors the PR 3 parking protocol: a blocking wait never
// holds a hart. A SIP calling poll/epoll_wait first registers readiness
// subscriptions (and, for finite timeouts, a host timer) under the same
// syscall record that futex waits use, then returns Parked; any
// readiness edge or the timer unparks it, and the retry re-scans the
// level-triggered state from scratch. Because every scan recomputes
// readiness, spurious wakeups and lost edges are both harmless — the
// subscriptions only need at-least-once delivery of the *last* edge,
// which the latched-wake protocol guarantees.

import (
	"encoding/binary"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/sysdispatch"
	"repro/internal/timers"
)

// --- Network/readiness statistics ---------------------------------------

// netStats is the live value of the readiness-path counters across every
// LibOS instance in the process (the net analog of
// sched.GlobalSnapshot), written only through sync/atomic, printed by
// occlum-bench -stats and asserted by the C10K smoke test.
var netStats NetSnapshot

// --- Timers ---------------------------------------------------------------

// armTimer arms fn on q for d from now, counting the arm here and the
// fire when fn runs. cancelTimer counts a cancel only when it prevented
// the fire, and resetTimer, called only from the timer's own callback,
// counts its re-arm; so with no timer queued, arms = fires + cancels.
func armTimer(q *timers.Queue, d time.Duration, fn func()) *timers.Timer {
	atomic.AddUint64(&netStats.TimerArms, 1)
	return q.Arm(d, func() {
		atomic.AddUint64(&netStats.TimerFires, 1)
		fn()
	})
}

func cancelTimer(t *timers.Timer) {
	if t.Cancel() {
		atomic.AddUint64(&netStats.TimerCancels, 1)
	}
}

func resetTimer(t *timers.Timer, d time.Duration) {
	atomic.AddUint64(&netStats.TimerArms, 1)
	t.Reset(d)
}

// NetSnapshot is the readiness-path counters, declared once: netStats
// is a live value of it and NetStats returns a copy.
type NetSnapshot struct {
	// RecvParks/SendParks/AcceptParks count socket operations that
	// parked the SIP instead of blocking a hart.
	RecvParks, SendParks, AcceptParks uint64
	// Polls/EpWaits count poll and epoll_wait syscalls; PollParks and
	// EpWaitParks count park events — a long wait re-parks once per
	// spurious wakeup, so parks can exceed calls.
	Polls, PollParks, EpWaits, EpWaitParks uint64
	// EAgains counts O_NONBLOCK operations that returned EAGAIN.
	EAgains uint64
	// Writevs/Readvs/Sendfiles/Splices count completed zero-copy-plane
	// syscalls (a parked call counts once, when it finally returns).
	Writevs, Readvs, Sendfiles, Splices uint64
	// BytesLent counts payload bytes moved through borrowed views —
	// guest-memory loans, ring-to-ring splice runs, image-cache blocks —
	// without a staging copy; every read/write/send/recv and
	// readv/writev byte is one. BytesCopied counts payload bytes staged
	// through a temp buffer, which only sendfile from a non-image node
	// still does: a pipeline of reads, writes and splices must report
	// BytesCopied = 0.
	BytesLent, BytesCopied uint64
	// Reaps counts idle connections closed by the idle reaper; Sheds
	// counts inbound connections refused under run-queue saturation;
	// StaleWakes counts timer or futex wakes whose syscall had already
	// completed (suppressed by the generation check in wakeGen instead
	// of wake-stealing a later park).
	Reaps, Sheds, StaleWakes uint64
	// TimerArms/Fires/Cancels count deadline-queue activity, kept at the
	// LibOS's own arm, cancel and callback sites (armTimer, cancelTimer,
	// resetTimer): arms (a re-arm counts again), callbacks run, and
	// cancels that prevented a fire.
	TimerArms, TimerFires, TimerCancels uint64
}

// NetStats returns the current counter values.
func NetStats() NetSnapshot { return metrics.Load(&netStats) }

// Sub returns the event delta s - o.
func (s NetSnapshot) Sub(o NetSnapshot) NetSnapshot { return metrics.Sub(s, o) }

// --- Epoll interest sets -------------------------------------------------

// epollSet is the object behind an epoll fd: a level-triggered interest
// list, the ready-candidate set that keeps epoll_wait O(ready) rather
// than O(interest) — the property that makes epoll the C10K syscall —
// and the waiter list of SIPs parked in epoll_wait.
//
// Readiness edges call markReady(fd), adding the fd to the candidate
// set; epoll_wait drains the candidates, verifies each against the real
// level-triggered state, and re-adds the ones still ready (so a
// partially-read fd keeps being reported without any new edge). A
// 10k-connection interest list with 64 active connections costs 64
// checks per wait, not 10k.
//
// One mutex guards the interest list, the candidate set, the waiter
// list and the closed flag. Its contenders are the readiness edges of
// the set's watched connections and the few SIPs in epoll_ctl and
// epoll_wait; every critical section is a few map operations.
//
// Lock ordering: no readiness callback runs under a resource lock —
// streams and listeners collect their wake lists under their own lock
// and run them after it drops — so markReady takes ep.mu holding
// nothing. The scans keep the other half of the rule: they pop the
// candidate list first and query readiness (which takes the resource's
// lock) holding no ep.mu, and waiters and subscription cancels run after
// ep.mu drops.
type epollSet struct {
	mu      sync.Mutex
	closed  bool
	items   map[int]*epItem
	ready   map[int]struct{}
	waiters []epWaiter // copy-on-write: a wake runs a snapshot after mu drops
	nextID  int
}

// epWaiter is a parked epoll_wait caller's wake callback.
type epWaiter struct {
	id   int
	wake func()
}

// epItem is one interest-list entry. It pins the open file description
// (not the fd): like Linux, the kernel watches descriptions, and — as
// close(2) does not remove an entry there either — callers must EpCtlDel
// an fd before closing it, or a recycled fd number will keep reporting
// the old description's readiness.
type epItem struct {
	events uint32
	file   *OpenFile
	cancel func()
}

func newEpollSet() *epollSet {
	return &epollSet{items: make(map[int]*epItem), ready: make(map[int]struct{})}
}

// markReady records a readiness edge for fd and wakes parked waiters.
// The candidate set is conservative (a superset of the truly ready):
// epoll_wait re-verifies against the level-triggered state.
func (ep *epollSet) markReady(fd int) {
	ep.mu.Lock()
	if _, ok := ep.items[fd]; ok {
		ep.ready[fd] = struct{}{}
	}
	ws := ep.waiters
	ep.mu.Unlock()
	wakeAll(ws)
}

// popCandidates drains the candidate set, returning each candidate with
// its interest mask and file. Candidates the caller finds still ready
// must be pushed back with readd; a concurrent edge during the scan
// simply re-adds the fd to the emptied set, so no readiness is ever
// lost.
func (ep *epollSet) popCandidates() []epCandidate {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	var out []epCandidate
	for fd := range ep.ready {
		if it, ok := ep.items[fd]; ok {
			out = append(out, epCandidate{fd: fd, ev: it.events, file: it.file})
		}
	}
	clear(ep.ready)
	return out
}

// readd pushes still-ready (or unverified) candidates back.
func (ep *epollSet) readd(fds []int) {
	ep.mu.Lock()
	for _, fd := range fds {
		if _, ok := ep.items[fd]; ok {
			ep.ready[fd] = struct{}{}
		}
	}
	ep.mu.Unlock()
}

// add installs an interest-list entry, failing on a closed set (EBADF)
// or a duplicate fd (EEXIST). close sets closed and takes the items in
// one critical section, so an entry is either taken by close or
// rejected here — none can slip in unseen and leak its subscription.
func (ep *epollSet) add(fd int, it *epItem) int64 {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if ep.closed {
		return EBADF
	}
	if _, dup := ep.items[fd]; dup {
		return EEXIST
	}
	ep.items[fd] = it
	return 0
}

// del removes an entry, returning it for the caller to cancel outside
// the lock.
func (ep *epollSet) del(fd int) (*epItem, bool) {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	it, ok := ep.items[fd]
	if ok {
		delete(ep.items, fd)
		delete(ep.ready, fd)
	}
	return it, ok
}

// get looks an entry up (for EpCtlMod's re-subscribe).
func (ep *epollSet) get(fd int) (*epItem, bool) {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	it, ok := ep.items[fd]
	return it, ok
}

// swap replaces an entry's mask and subscription, returning the old
// cancel to run outside the lock; ok=false reports the entry vanished
// (removed concurrently).
func (ep *epollSet) swap(fd int, events uint32, cancel func()) (old func(), ok bool) {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	it, ok := ep.items[fd]
	if ok {
		old = it.cancel
		it.events = events
		it.cancel = cancel
	}
	return old, ok
}

type epCandidate struct {
	fd   int
	ev   uint32
	file *OpenFile
}

// wakeAll unparks parked epoll_wait callers; they re-scan and park
// again if their events have not arrived.
func wakeAll(ws []epWaiter) {
	for _, w := range ws {
		w.wake()
	}
}

// addWaiter registers a persistent wake callback for a parking
// epoll_wait, returning its cancel (run by the dispatch loop when the
// syscall completes and by teardown when the SIP dies, so no stale
// waiter outlives its syscall). Registrations are NOT consumed by a
// wake (unlike the listener's one-shot accept waiters): a parked
// epoll_wait re-dispatches without re-registering, so its waiter must
// stay live until the syscall completes — dropping it at a wake would
// lose the second wake and hang the retry. Both sides replace the slice
// rather than edit it, so a snapshot a wake is running never changes.
func (ep *epollSet) addWaiter(fn func()) (cancel func()) {
	ep.mu.Lock()
	id := ep.nextID
	ep.nextID++
	ep.waiters = append(slices.Clip(ep.waiters), epWaiter{id, fn})
	ep.mu.Unlock()
	return func() {
		ep.mu.Lock()
		ep.waiters = slices.DeleteFunc(slices.Clone(ep.waiters), func(w epWaiter) bool { return w.id == id })
		ep.mu.Unlock()
	}
}

// close tears the set down when the last fd referencing it goes away:
// every readiness subscription is cancelled and parked waiters are woken
// (their retry fails with EBADF instead of sleeping forever).
func (ep *epollSet) close() {
	ep.mu.Lock()
	if ep.closed {
		ep.mu.Unlock()
		return
	}
	ep.closed = true
	items := ep.items
	ep.items, ep.ready = make(map[int]*epItem), make(map[int]struct{})
	ws := ep.waiters
	ep.mu.Unlock()
	for _, it := range items {
		it.cancel()
	}
	wakeAll(ws)
}

// --- Syscall handlers ----------------------------------------------------

// sysFcntl implements F_GETFL/F_SETFL; the only status flag is
// O_NONBLOCK, which converts parking socket operations into immediate
// EAGAIN returns.
func sysFcntl(_ sysdispatch.Kernel, c *sysdispatch.Call) sysdispatch.Result {
	of := c.F[0].(*OpenFile)
	switch c.A[1] {
	case FGetFl:
		fl := int64(of.flags)
		if of.nonblock.Load() {
			fl |= ONonblock
		}
		return sysdispatch.Ok(fl)
	case FSetFl:
		of.nonblock.Store(c.A[2]&ONonblock != 0)
		return sysdispatch.Ok(0)
	}
	return sysdispatch.Errno(EINVAL)
}

// sysShutdown implements shutdown(2) over host connections — the real
// half-close the HTTPD uses to flush a response while still reading.
func sysShutdown(_ sysdispatch.Kernel, c *sysdispatch.Call) sysdispatch.Result {
	of := c.F[0].(*OpenFile)
	if of.kind != kindSock {
		return sysdispatch.Errno(EBADF)
	}
	rd, wr := of.streams()
	if rd == nil {
		return sysdispatch.Errno(ENOTCONN)
	}
	switch c.A[1] {
	case ShutRd:
		rd.CloseRead()
	case ShutWr:
		wr.CloseWrite()
	case ShutRdWr:
		rd.CloseRead()
		wr.CloseWrite()
	default:
		return sysdispatch.Errno(EINVAL)
	}
	return sysdispatch.Ok(0)
}

// armTimeout installs the parking-side bookkeeping for a blocking
// readiness wait: the given registration cancels plus, for finite
// timeouts, a deadline whose firing latches the wake for cur's
// generation and unparks the SIP (wakeGen). The deadline is one entry
// on the instance's queue — no host timer is created per park; the
// queue's one host alarm covers every pending deadline. The combined
// cancel lands in cur.cancel, which the dispatch loop runs on
// completion and teardown runs on death — so neither subscriptions nor
// timers outlive the syscall.
func (p *Proc) armTimeout(cur *blockedSys, cancels []func(), tmoMS int64) {
	if tmoMS > 0 {
		gen := cur.gen
		t := armTimer(p.os.timers, time.Duration(tmoMS)*time.Millisecond, func() {
			p.wakeGen(gen)
		})
		cancels = append(cancels, func() { cancelTimer(t) })
	}
	cur.cancel = func() {
		for _, c := range cancels {
			c()
		}
	}
}

// sysPoll implements poll(2): R1 points at an array of R2 24-byte
// entries {fd, events, revents}; R3 is the timeout in milliseconds
// (negative: infinite; zero: pure readiness probe, never parks).
// Returns the number of entries with non-zero revents.
func sysPoll(k sysdispatch.Kernel, c *sysdispatch.Call) sysdispatch.Result {
	p := k.(*Proc)
	cur := p.cursys
	ptr, nfds, tmo := c.A[0], c.A[1], int64(c.A[2])
	if nfds > sysdispatch.PollMaxFDs {
		return sysdispatch.Errno(EINVAL)
	}
	raw, _ := p.readUserBytes(ptr, nfds*sysdispatch.PollEntrySize) // the array passed the gate
	first := cur.cancel == nil && !p.woken()
	if first {
		atomic.AddUint64(&netStats.Polls, 1)
	}
	// Subscribe before scanning (first blocking pass only): an edge
	// landing between the scan and the registration must not be lost.
	if tmo != 0 && first {
		var cancels []func()
		for i := uint64(0); i < nfds; i++ {
			ent := raw[i*sysdispatch.PollEntrySize:]
			fd := int(int64(binary.LittleEndian.Uint64(ent)))
			if fd < 0 {
				continue
			}
			if of, ok := p.getFD(fd); ok {
				if c, subbed := of.SubscribeReady(p.wake, uint32(binary.LittleEndian.Uint64(ent[8:]))); subbed {
					cancels = append(cancels, c)
				}
			}
		}
		p.armTimeout(cur, cancels, tmo)
	}
	n := 0
	for i := uint64(0); i < nfds; i++ {
		ent := raw[i*sysdispatch.PollEntrySize:]
		fd := int(int64(binary.LittleEndian.Uint64(ent)))
		events := uint32(binary.LittleEndian.Uint64(ent[8:]))
		var revents uint32
		if fd >= 0 {
			if of, ok := p.getFD(fd); ok {
				revents = of.Readiness() & (events | PollErr | PollHup | PollNval)
			} else {
				revents = PollNval
			}
		}
		if revents != 0 {
			n++
		}
		_ = p.WriteU64(ptr+i*sysdispatch.PollEntrySize+16, uint64(revents)) // the array passed the gate
	}
	if n > 0 {
		return sysdispatch.Ok(int64(n))
	}
	if tmo == 0 || p.woken() {
		return sysdispatch.Ok(0) // probe, or timeout expired
	}
	atomic.AddUint64(&netStats.PollParks, 1)
	return sysdispatch.ParkedResult
}

// sysEpCtl adds, modifies or removes interest-list entries:
// epoll_ctl(epfd, op, fd, events).
func sysEpCtl(k sysdispatch.Kernel, c *sysdispatch.Call) sysdispatch.Result {
	epof := c.F[0].(*OpenFile)
	if epof.kind != kindEpoll {
		return sysdispatch.Errno(EBADF)
	}
	ep := epof.ep
	op, fd, events := c.A[1], int(int64(c.A[2])), uint32(c.A[3])
	switch op {
	case EpCtlAdd:
		tf, ok := k.(*Proc).getFD(fd)
		if !ok {
			return sysdispatch.Errno(EBADF)
		}
		// Subscribe outside ep.mu (resource locks and ep.mu never
		// nest).
		cancel, subbed := tf.SubscribeReady(func() { ep.markReady(fd) }, events)
		if !subbed {
			return sysdispatch.Errno(EPERM) // not pollable (regular file, epoll)
		}
		if e := ep.add(fd, &epItem{events: events, file: tf, cancel: cancel}); e != 0 {
			cancel()
			return sysdispatch.Errno(e)
		}
		// The fd may already be ready — a level no future edge will
		// announce; seed it as a candidate.
		ep.markReady(fd)
		return sysdispatch.Ok(0)
	case EpCtlDel:
		it, ok := ep.del(fd)
		if !ok {
			return sysdispatch.Errno(ENOENT)
		}
		it.cancel()
		return sysdispatch.Ok(0)
	case EpCtlMod:
		it, ok := ep.get(fd)
		if !ok {
			return sysdispatch.Errno(ENOENT)
		}
		tf := it.file
		// The subscription is direction-filtered by the interest mask
		// (an EPOLLIN item never hears write-side edges), so changing
		// the mask must re-subscribe — keeping the old registration
		// would lose every wakeup for the newly requested direction.
		cancel, subbed := tf.SubscribeReady(func() { ep.markReady(fd) }, events)
		if !subbed {
			return sysdispatch.Errno(EPERM)
		}
		old, ok := ep.swap(fd, events, cancel)
		if !ok {
			cancel() // item removed concurrently
			return sysdispatch.Errno(ENOENT)
		}
		old()
		ep.markReady(fd) // the new mask may match a standing level
		return sysdispatch.Ok(0)
	}
	return sysdispatch.Errno(EINVAL)
}

// sysEpWait waits for interest-list readiness:
// epoll_wait(epfd, eventsPtr, maxEvents, timeoutMs) → n. The result
// array holds 16-byte entries {fd, revents}. Level-triggered: an entry
// stays reported as long as its readiness persists, so a partial read
// re-arms by simply leaving data buffered.
func sysEpWait(k sysdispatch.Kernel, c *sysdispatch.Call) sysdispatch.Result {
	p := k.(*Proc)
	cur := p.cursys
	epof := c.F[0].(*OpenFile)
	if epof.kind != kindEpoll {
		return sysdispatch.Errno(EBADF)
	}
	ep := epof.ep
	evPtr, maxEv, tmo := c.A[1], int64(c.A[2]), int64(c.A[3])
	if maxEv <= 0 {
		return sysdispatch.Errno(EINVAL)
	}
	if maxEv > sysdispatch.EpMaxEvents {
		maxEv = sysdispatch.EpMaxEvents
	}
	first := cur.cancel == nil && !p.woken()
	if first {
		atomic.AddUint64(&netStats.EpWaits, 1)
	}
	if tmo != 0 && first {
		p.armTimeout(cur, []func(){ep.addWaiter(p.wake)}, tmo)
	}
	// Drain the candidate set and verify each fd against the real
	// level-triggered state: still-ready fds are reported AND pushed
	// back (a partial read keeps them reported on the next wait);
	// candidates past the batch budget go back unverified.
	cands := ep.popCandidates()
	sort.Slice(cands, func(i, j int) bool { return cands[i].fd < cands[j].fd })
	var out []byte
	var readd []int
	n := int64(0)
	for _, c := range cands {
		if n >= maxEv {
			readd = append(readd, c.fd)
			continue
		}
		r := c.file.Readiness() & (c.ev | PollErr | PollHup)
		if r == 0 {
			continue
		}
		var ent [sysdispatch.EpEntrySize]byte
		binary.LittleEndian.PutUint64(ent[:], uint64(int64(c.fd)))
		binary.LittleEndian.PutUint64(ent[8:], uint64(r))
		out = append(out, ent[:]...)
		readd = append(readd, c.fd)
		n++
	}
	ep.readd(readd)
	if n > 0 {
		_ = p.writeUserBytes(evPtr, out) // the array passed the gate
		return sysdispatch.Ok(n)
	}
	if tmo == 0 || p.woken() {
		return sysdispatch.Ok(0)
	}
	atomic.AddUint64(&netStats.EpWaitParks, 1)
	return sysdispatch.ParkedResult
}
