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
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sysdispatch"
	"repro/internal/timerwheel"
)

// --- Network/readiness statistics ---------------------------------------

// netStats counts readiness-path events across every LibOS instance in
// the process (the net analog of sched.GlobalSnapshot), reported by
// occlum-bench -netstats and asserted by the C10K smoke test.
var netStats struct {
	recvParks, sendParks, acceptParks atomic.Uint64
	polls, pollParks                  atomic.Uint64
	epWaits, epWaitParks              atomic.Uint64
	eagains                           atomic.Uint64
	// Zero-copy data-plane counters: completed vectored/splice/sendfile
	// syscalls, and the two byte ledgers every data syscall feeds —
	// bytesLent moved via borrowed views (guest loans, ring runs, image
	// cache blocks: no staging buffer), bytesCopied staged through a
	// per-syscall temp buffer (sendfile from a non-image node; scalar
	// read/write lend, exactly as readv/writev do).
	writevs, readvs, sendfiles, splices atomic.Uint64
	bytesLent, bytesCopied              atomic.Uint64
	// Backpressure counters: reaps counts idle connections closed by
	// the wheel-driven reaper, sheds counts inbound connections refused
	// by the saturated accept path, staleWakes counts timer fires whose
	// syscall had already completed (suppressed by the generation check
	// in timerWake instead of wake-stealing a later park).
	reaps, sheds, staleWakes atomic.Uint64
}

// --- Timer-wheel registry -------------------------------------------------

// Live wheels are enumerated so NetStats can report process-wide wheel
// activity; Shutdown folds a LibOS's final figures into the retired
// accumulator (the sched.GlobalSnapshot pattern).
var wheelReg struct {
	mu      sync.Mutex
	live    []*timerwheel.Wheel
	retired timerwheel.Stats
}

func registerWheels(ws []*timerwheel.Wheel) {
	wheelReg.mu.Lock()
	wheelReg.live = append(wheelReg.live, ws...)
	wheelReg.mu.Unlock()
}

func retireWheels(ws []*timerwheel.Wheel) {
	wheelReg.mu.Lock()
	defer wheelReg.mu.Unlock()
	for _, w := range ws {
		w.Stop()
		s := w.Stats()
		wheelReg.retired.Arms += s.Arms
		wheelReg.retired.Fires += s.Fires
		wheelReg.retired.Cancels += s.Cancels
		wheelReg.retired.Cascades += s.Cascades
		for i, l := range wheelReg.live {
			if l == w {
				wheelReg.live = append(wheelReg.live[:i], wheelReg.live[i+1:]...)
				break
			}
		}
	}
}

func wheelTotals() timerwheel.Stats {
	wheelReg.mu.Lock()
	defer wheelReg.mu.Unlock()
	t := wheelReg.retired
	for _, w := range wheelReg.live {
		s := w.Stats()
		t.Arms += s.Arms
		t.Fires += s.Fires
		t.Cancels += s.Cancels
		t.Cascades += s.Cascades
	}
	return t
}

// NetSnapshot is a plain-value copy of the readiness-path counters.
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
	// Reaps counts idle connections closed by the wheel-driven reaper;
	// Sheds counts inbound connections refused under run-queue
	// saturation; StaleWakes counts suppressed stale timer fires.
	Reaps, Sheds, StaleWakes uint64
	// WheelArms/Fires/Cancels/Cascades aggregate timer-wheel activity
	// across every LibOS in the process (live and shut down).
	WheelArms, WheelFires, WheelCancels, WheelCascades uint64
}

// NetStats returns the current counter values.
func NetStats() NetSnapshot {
	wt := wheelTotals()
	return NetSnapshot{
		RecvParks:     netStats.recvParks.Load(),
		SendParks:     netStats.sendParks.Load(),
		AcceptParks:   netStats.acceptParks.Load(),
		Polls:         netStats.polls.Load(),
		PollParks:     netStats.pollParks.Load(),
		EpWaits:       netStats.epWaits.Load(),
		EpWaitParks:   netStats.epWaitParks.Load(),
		EAgains:       netStats.eagains.Load(),
		Writevs:       netStats.writevs.Load(),
		Readvs:        netStats.readvs.Load(),
		Sendfiles:     netStats.sendfiles.Load(),
		Splices:       netStats.splices.Load(),
		BytesLent:     netStats.bytesLent.Load(),
		BytesCopied:   netStats.bytesCopied.Load(),
		Reaps:         netStats.reaps.Load(),
		Sheds:         netStats.sheds.Load(),
		StaleWakes:    netStats.staleWakes.Load(),
		WheelArms:     wt.Arms,
		WheelFires:    wt.Fires,
		WheelCancels:  wt.Cancels,
		WheelCascades: wt.Cascades,
	}
}

// Sub returns the event delta s - o.
func (s NetSnapshot) Sub(o NetSnapshot) NetSnapshot {
	return NetSnapshot{
		RecvParks: s.RecvParks - o.RecvParks, SendParks: s.SendParks - o.SendParks,
		AcceptParks: s.AcceptParks - o.AcceptParks,
		Polls:       s.Polls - o.Polls, PollParks: s.PollParks - o.PollParks,
		EpWaits: s.EpWaits - o.EpWaits, EpWaitParks: s.EpWaitParks - o.EpWaitParks,
		EAgains: s.EAgains - o.EAgains,
		Writevs: s.Writevs - o.Writevs, Readvs: s.Readvs - o.Readvs,
		Sendfiles: s.Sendfiles - o.Sendfiles, Splices: s.Splices - o.Splices,
		BytesLent: s.BytesLent - o.BytesLent, BytesCopied: s.BytesCopied - o.BytesCopied,
		Reaps: s.Reaps - o.Reaps, Sheds: s.Sheds - o.Sheds,
		StaleWakes: s.StaleWakes - o.StaleWakes,
		WheelArms:  s.WheelArms - o.WheelArms, WheelFires: s.WheelFires - o.WheelFires,
		WheelCancels: s.WheelCancels - o.WheelCancels, WheelCascades: s.WheelCascades - o.WheelCascades,
	}
}

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
// The interest list and candidate set are sharded by fd: a readiness
// edge (markReady, fired from the connection's own wake path) takes
// only its fd's shard lock, so 100k connections hammering one epoll set
// do not serialize on a single mutex — each shard owns its slice of the
// readiness queue outright. The waiter list stays under its own small
// lock (waiters are the few SIPs parked in epoll_wait, not the many
// watched fds).
//
// Lock ordering: no readiness callback runs under a resource lock —
// streams and listeners collect their wake lists under their own lock
// and run them after it drops — so markReady takes a shard lock holding
// nothing. The scans keep the other half of the rule: they pop the
// candidate list first and query readiness (which takes the resource's
// lock) holding no shard lock. Shard locks never nest with each other
// or with wmu.
type epollSet struct {
	shards [epShards]epShard
	closed atomic.Bool

	wmu     sync.Mutex // guards waiters/nextID only
	waiters map[int]func()
	nextID  int
}

// epShards is the interest-table shard count (power of two; fds are
// dense small integers, so the low bits spread them evenly).
const epShards = 16

// epShard owns one slice of the interest list and its ready set.
type epShard struct {
	mu    sync.Mutex
	items map[int]*epItem
	ready map[int]struct{}
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
	ep := &epollSet{waiters: make(map[int]func())}
	for i := range ep.shards {
		ep.shards[i].items = make(map[int]*epItem)
		ep.shards[i].ready = make(map[int]struct{})
	}
	return ep
}

func (ep *epollSet) shardFor(fd int) *epShard {
	return &ep.shards[uint(fd)&(epShards-1)]
}

// markReady records a readiness edge for fd and wakes parked waiters.
// The candidate set is conservative (a superset of the truly ready):
// epoll_wait re-verifies against the level-triggered state. Only the
// fd's own shard lock is taken, so concurrent edges on different
// connections never contend.
func (ep *epollSet) markReady(fd int) {
	sh := ep.shardFor(fd)
	sh.mu.Lock()
	if _, ok := sh.items[fd]; ok {
		sh.ready[fd] = struct{}{}
	}
	sh.mu.Unlock()
	ep.wake()
}

// popCandidates drains every shard's candidate set, returning each
// candidate with its interest mask and file. Candidates the caller
// finds still ready must be pushed back with readd; a concurrent edge
// during the scan simply re-adds the fd to the fresh set, so no
// readiness is ever lost. Shards are drained one lock at a time —
// epoll_wait tolerates the resulting not-quite-snapshot the same way it
// tolerates edges arriving mid-scan.
func (ep *epollSet) popCandidates() []epCandidate {
	var out []epCandidate
	for i := range ep.shards {
		sh := &ep.shards[i]
		sh.mu.Lock()
		if len(sh.ready) == 0 {
			sh.mu.Unlock()
			continue
		}
		for fd := range sh.ready {
			if it, ok := sh.items[fd]; ok {
				out = append(out, epCandidate{fd: fd, ev: it.events, file: it.file})
			}
		}
		sh.ready = make(map[int]struct{})
		sh.mu.Unlock()
	}
	return out
}

// readd pushes still-ready (or unverified) candidates back.
func (ep *epollSet) readd(fds []int) {
	for _, fd := range fds {
		sh := ep.shardFor(fd)
		sh.mu.Lock()
		if _, ok := sh.items[fd]; ok {
			sh.ready[fd] = struct{}{}
		}
		sh.mu.Unlock()
	}
}

// add installs an interest-list entry, failing on a closed set (EBADF)
// or a duplicate fd (EEXIST). The closed check runs under the shard
// lock: either this insert is visible to close's drain of the shard, or
// the insert observes closed and rejects — no entry can slip in
// unseen and leak its subscription.
func (ep *epollSet) add(fd int, it *epItem) int64 {
	sh := ep.shardFor(fd)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if ep.closed.Load() {
		return EBADF
	}
	if _, dup := sh.items[fd]; dup {
		return EEXIST
	}
	sh.items[fd] = it
	return 0
}

// del removes an entry, returning it for the caller to cancel outside
// the lock.
func (ep *epollSet) del(fd int) (*epItem, bool) {
	sh := ep.shardFor(fd)
	sh.mu.Lock()
	it, ok := sh.items[fd]
	if ok {
		delete(sh.items, fd)
		delete(sh.ready, fd)
	}
	sh.mu.Unlock()
	return it, ok
}

// get looks an entry up (for EpCtlMod's re-subscribe).
func (ep *epollSet) get(fd int) (*epItem, bool) {
	sh := ep.shardFor(fd)
	sh.mu.Lock()
	it, ok := sh.items[fd]
	sh.mu.Unlock()
	return it, ok
}

// swap replaces an entry's mask and subscription, returning the old
// cancel to run outside the lock; ok=false reports the entry vanished
// (removed concurrently).
func (ep *epollSet) swap(fd int, events uint32, cancel func()) (old func(), ok bool) {
	sh := ep.shardFor(fd)
	sh.mu.Lock()
	it, ok := sh.items[fd]
	if ok {
		old = it.cancel
		it.events = events
		it.cancel = cancel
	}
	sh.mu.Unlock()
	return old, ok
}

type epCandidate struct {
	fd   int
	ev   uint32
	file *OpenFile
}

// wake unparks every parked epoll_wait caller; they re-scan and park
// again if their events have not arrived. Registrations are NOT
// consumed by a wake (unlike the listener's one-shot accept waiters): a
// parked epoll_wait re-dispatches without re-registering, so its waiter
// must stay live until the syscall completes and its cancel runs —
// clearing here would lose the second wake and hang the retry.
func (ep *epollSet) wake() {
	ep.wmu.Lock()
	if len(ep.waiters) == 0 {
		ep.wmu.Unlock()
		return
	}
	ws := make([]func(), 0, len(ep.waiters))
	for _, w := range ep.waiters {
		ws = append(ws, w)
	}
	ep.wmu.Unlock()
	for _, w := range ws {
		w()
	}
}

// addWaiter registers a persistent wake callback for a parking
// epoll_wait, returning its cancel (run by the dispatch loop when the
// syscall completes and by teardown when the SIP dies, so no stale
// waiter outlives its syscall).
func (ep *epollSet) addWaiter(fn func()) (cancel func()) {
	ep.wmu.Lock()
	id := ep.nextID
	ep.nextID++
	ep.waiters[id] = fn
	ep.wmu.Unlock()
	return func() {
		ep.wmu.Lock()
		delete(ep.waiters, id)
		ep.wmu.Unlock()
	}
}

// close tears the set down when the last fd referencing it goes away:
// every readiness subscription is cancelled and parked waiters are woken
// (their retry fails with EBADF instead of sleeping forever).
func (ep *epollSet) close() {
	if !ep.closed.CompareAndSwap(false, true) {
		return
	}
	// closed is visible before any shard drain; add() checks it under
	// the shard lock, so every entry is either drained here or rejected
	// there.
	var items []*epItem
	for i := range ep.shards {
		sh := &ep.shards[i]
		sh.mu.Lock()
		for _, it := range sh.items {
			items = append(items, it)
		}
		sh.items = make(map[int]*epItem)
		sh.ready = make(map[int]struct{})
		sh.mu.Unlock()
	}
	for _, it := range items {
		it.cancel()
	}
	ep.wake()
}

// --- Syscall handlers ----------------------------------------------------

// sysFcntl implements F_GETFL/F_SETFL; the only status flag is
// O_NONBLOCK, which converts parking socket operations into immediate
// EAGAIN returns.
func sysFcntl(k sysdispatch.Kernel, a *[5]uint64) sysdispatch.Result {
	p := k.(*Proc)
	of, ok := p.getFD(int(int64(a[0])))
	if !ok {
		return sysdispatch.Errno(EBADF)
	}
	switch a[1] {
	case FGetFl:
		fl := int64(of.flags)
		if of.nonblock.Load() {
			fl |= ONonblock
		}
		return sysdispatch.Ok(fl)
	case FSetFl:
		of.nonblock.Store(a[2]&ONonblock != 0)
		return sysdispatch.Ok(0)
	}
	return sysdispatch.Errno(EINVAL)
}

// sysShutdown implements shutdown(2) over host connections — the real
// half-close the HTTPD uses to flush a response while still reading.
func sysShutdown(k sysdispatch.Kernel, a *[5]uint64) sysdispatch.Result {
	p := k.(*Proc)
	of, ok := p.getFD(int(int64(a[0])))
	if !ok || of.kind != kindSock {
		return sysdispatch.Errno(EBADF)
	}
	rd, wr := of.streams()
	if rd == nil {
		return sysdispatch.Errno(ENOTCONN)
	}
	switch a[1] {
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
// timeouts, a timer-wheel deadline whose firing latches cur.woken and
// unparks the SIP. The wheel entry is an O(1) splice on the SIP's
// per-hart wheel — no host timer is created per park; the wheel's one
// host alarm covers every pending deadline. The combined cancel lands
// in cur.cancel, which the dispatch loop runs on completion and
// teardown runs on death — so neither subscriptions nor timers outlive
// the syscall.
func (p *Proc) armTimeout(cur *blockedSys, cancels []func(), tmoMS int64) {
	if tmoMS > 0 {
		t := p.os.wheelFor(p.pid).Arm(time.Duration(tmoMS)*time.Millisecond, func() {
			p.timerWake(cur)
		})
		cancels = append(cancels, func() { t.Cancel() })
	}
	cur.cancel = func() {
		for _, c := range cancels {
			c()
		}
	}
}

// timerWake is the wheel callback for an expired syscall timeout.
// Cancel-vs-fire races are inherent (the wheel collects a tick's slot
// before running callbacks, so a cancel can arrive too late): a stale
// fire must not unpark the SIP, which may have completed that syscall
// and re-parked in a LATER one — the unpark would be wake-stolen by the
// wrong syscall, burning a spurious retry (and, for edge-sensitive
// waits, masking the real wakeup ordering). The generation check
// closes the race: the wake latch always lands in the timer's own
// record (harmless if stale), but the unpark only happens while that
// record is still the SIP's live syscall.
func (p *Proc) timerWake(cur *blockedSys) {
	cur.woken.Store(true)
	if p.liveGen.Load() != cur.gen {
		netStats.staleWakes.Add(1)
		return
	}
	p.unpark()
}

// sysPoll implements poll(2): a[0] points at an array of a[1] 24-byte
// entries {fd, events, revents}; a[2] is the timeout in milliseconds
// (negative: infinite; zero: pure readiness probe, never parks).
// Returns the number of entries with non-zero revents.
func sysPoll(k sysdispatch.Kernel, a *[5]uint64) sysdispatch.Result {
	p := k.(*Proc)
	cur := p.cursys
	ptr, nfds, tmo := a[0], a[1], int64(a[2])
	if nfds > sysdispatch.PollMaxFDs {
		return sysdispatch.Errno(EINVAL)
	}
	raw, err := p.readUserBytes(ptr, nfds*sysdispatch.PollEntrySize)
	if err != nil {
		return sysdispatch.Errno(EFAULT)
	}
	first := cur.cancel == nil && !cur.woken.Load()
	if first {
		netStats.polls.Add(1)
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
				if c, subbed := of.SubscribeReady(p.unpark, uint32(binary.LittleEndian.Uint64(ent[8:]))); subbed {
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
		if !sysdispatch.WriteU64(p, ptr+i*sysdispatch.PollEntrySize+16, uint64(revents)) {
			return sysdispatch.Errno(EFAULT)
		}
	}
	if n > 0 {
		return sysdispatch.Ok(int64(n))
	}
	if tmo == 0 || cur.woken.Load() {
		return sysdispatch.Ok(0) // probe, or timeout expired
	}
	netStats.pollParks.Add(1)
	return sysdispatch.ParkedResult
}

// sysEpCreate creates an epoll interest set behind a fresh fd.
func sysEpCreate(k sysdispatch.Kernel, a *[5]uint64) sysdispatch.Result {
	p := k.(*Proc)
	of := &OpenFile{refs: 1, kind: kindEpoll, ep: newEpollSet()}
	return sysdispatch.Ok(int64(p.fds.Install(of)))
}

// sysEpCtl adds, modifies or removes interest-list entries:
// epoll_ctl(epfd, op, fd, events).
func sysEpCtl(k sysdispatch.Kernel, a *[5]uint64) sysdispatch.Result {
	p := k.(*Proc)
	epof, ok := p.getFD(int(int64(a[0])))
	if !ok || epof.kind != kindEpoll {
		return sysdispatch.Errno(EBADF)
	}
	ep := epof.ep
	op, fd, events := a[1], int(int64(a[2])), uint32(a[3])
	switch op {
	case EpCtlAdd:
		tf, ok := p.getFD(fd)
		if !ok {
			return sysdispatch.Errno(EBADF)
		}
		// Subscribe outside the shard lock (resource and shard locks
		// never nest).
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
func sysEpWait(k sysdispatch.Kernel, a *[5]uint64) sysdispatch.Result {
	p := k.(*Proc)
	cur := p.cursys
	epof, ok := p.getFD(int(int64(a[0])))
	if !ok || epof.kind != kindEpoll {
		return sysdispatch.Errno(EBADF)
	}
	ep := epof.ep
	evPtr, maxEv, tmo := a[1], int64(a[2]), int64(a[3])
	if maxEv <= 0 {
		return sysdispatch.Errno(EINVAL)
	}
	if maxEv > sysdispatch.EpMaxEvents {
		maxEv = sysdispatch.EpMaxEvents
	}
	first := cur.cancel == nil && !cur.woken.Load()
	if first {
		netStats.epWaits.Add(1)
	}
	if tmo != 0 && first {
		p.armTimeout(cur, []func(){ep.addWaiter(p.unpark)}, tmo)
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
		if p.writeUserBytes(evPtr, out) != nil {
			return sysdispatch.Errno(EFAULT)
		}
		return sysdispatch.Ok(n)
	}
	if tmo == 0 || cur.woken.Load() {
		return sysdispatch.Ok(0)
	}
	netStats.epWaitParks.Add(1)
	return sysdispatch.ParkedResult
}
