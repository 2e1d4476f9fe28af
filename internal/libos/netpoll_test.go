package libos_test

import (
	"testing"
	"time"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/hostos"
	"repro/internal/isa"
	"repro/internal/libos"
	"repro/internal/sgx"
	"repro/internal/timers"
	"repro/internal/ulib"
)

// Readiness edge-case tests: each drives a real SIP through the new
// poll/epoll/fcntl syscalls and reports failures through distinct exit
// codes, so a red test names the exact broken transition.

func dialSIP(t *testing.T, sys *core.System, port uint16) *hostos.Conn {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		conn, err := sys.Host.Dial(port)
		if err == nil {
			return conn
		}
		if time.Now().After(deadline) {
			t.Fatalf("port %d never started listening", port)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPollListenerPendingAccept: poll on a listening socket parks until
// a connection arrives, reports POLLIN, and the accept then succeeds
// without blocking.
func TestPollListenerPendingAccept(t *testing.T) {
	const port = 7710
	sys, tc := bootSmall(t, 4, 2, 0, nil)
	defer sys.OS.Shutdown()

	prog := buildProg(t, func(b *asm.Builder) {
		b.Zero("pfd", 24)
		b.Entry("_start")
		ulib.Prologue(b)
		ulib.Socket(b)
		b.MovRR(isa.R6, isa.R0)
		ulib.Bind(b, isa.R6, port)
		ulib.ListenSock(b, isa.R6)
		// pfd = {fd: R6, events: POLLIN, revents: 0}
		b.StoreData("pfd", isa.R6)
		b.LeaData(isa.R8, "pfd")
		b.MovRI(isa.R7, libos.PollIn)
		b.Store(isa.Mem(isa.R8, 8), isa.R7)
		// poll(pfd, 1, -1): parks until the host dials.
		ulib.Poll(b, "pfd", 1, -1)
		b.CmpI(isa.R0, 1)
		b.Jne("badret")
		b.LeaData(isa.R8, "pfd")
		b.Load(isa.R7, isa.Mem(isa.R8, 16))
		b.AndI(isa.R7, libos.PollIn)
		b.CmpI(isa.R7, 0)
		b.Je("badrev")
		// The promised accept must succeed immediately.
		b.MovRR(isa.R1, isa.R6)
		ulib.Syscall(b, libos.SysAccept)
		b.CmpI(isa.R0, 0)
		b.Jl("badacc")
		ulib.Exit(b, 0)
		b.Label("badret")
		b.Nop()
		ulib.Exit(b, 1)
		b.Label("badrev")
		b.Nop()
		ulib.Exit(b, 2)
		b.Label("badacc")
		b.Nop()
		ulib.Exit(b, 3)
	})
	if err := sys.Install(tc, "/bin/polllis", "polllis", prog); err != nil {
		t.Fatal(err)
	}
	p, err := sys.OS.Spawn("/bin/polllis", nil, libos.SpawnOpt{})
	if err != nil {
		t.Fatal(err)
	}
	conn := dialSIP(t, sys, port)
	defer conn.Close()
	if status := waitTimeout(t, p, 30*time.Second, "poll-listener SIP"); status != 0 {
		t.Fatalf("SIP exit status = %d", status)
	}
}

// TestEpollWaitRacesClose: a SIP parked in epoll_wait on a connection
// must be woken — with HUP readiness and a clean EOF — when the peer
// closes concurrently, whichever side wins the race.
func TestEpollWaitRacesClose(t *testing.T) {
	const port = 7711
	sys, tc := bootSmall(t, 4, 2, 0, nil)
	defer sys.OS.Shutdown()

	prog := buildProg(t, func(b *asm.Builder) {
		b.Zero("evbuf", 4*16)
		b.Zero("buf", 64)
		b.Entry("_start")
		ulib.Prologue(b)
		ulib.Socket(b)
		b.MovRR(isa.R6, isa.R0)
		ulib.Bind(b, isa.R6, port)
		ulib.ListenSock(b, isa.R6)
		b.MovRR(isa.R1, isa.R6)
		ulib.Syscall(b, libos.SysAccept) // parks until the host dials
		b.CmpI(isa.R0, 0)
		b.Jl("badacc")
		b.MovRR(isa.R6, isa.R0) // conn fd
		ulib.EpCreate(b)
		b.MovRR(isa.R10, isa.R0)
		ulib.EpCtl(b, isa.R10, libos.EpCtlAdd, isa.R6, libos.PollIn)
		// Park in epoll_wait; the host's close must wake us.
		ulib.EpWait(b, isa.R10, "evbuf", 4, -1)
		b.CmpI(isa.R0, 1)
		b.Jne("badret")
		b.LeaData(isa.R8, "evbuf")
		b.Load(isa.R7, isa.Mem(isa.R8, 0)) // entry.fd
		b.Cmp(isa.R7, isa.R6)
		b.Jne("badfd")
		// The wake means EOF: recv must return 0, not block.
		ulib.RecvSym(b, isa.R6, "buf", 64)
		b.CmpI(isa.R0, 0)
		b.Jne("badeof")
		ulib.Exit(b, 0)
		b.Label("badacc")
		b.Nop()
		ulib.Exit(b, 1)
		b.Label("badret")
		b.Nop()
		ulib.Exit(b, 2)
		b.Label("badfd")
		b.Nop()
		ulib.Exit(b, 3)
		b.Label("badeof")
		b.Nop()
		ulib.Exit(b, 4)
	})
	if err := sys.Install(tc, "/bin/epclose", "epclose", prog); err != nil {
		t.Fatal(err)
	}
	p, err := sys.OS.Spawn("/bin/epclose", nil, libos.SpawnOpt{})
	if err != nil {
		t.Fatal(err)
	}
	conn := dialSIP(t, sys, port)
	// Close immediately: races the SIP's epoll setup. Level-triggered
	// readiness makes either interleaving equivalent.
	conn.Close()
	if status := waitTimeout(t, p, 30*time.Second, "epoll-close SIP"); status != 0 {
		t.Fatalf("SIP exit status = %d", status)
	}
}

// TestEpollWakesOnPeerShutdownRD: POLLERR is reported regardless of the
// interest mask, and it lives on the write stream — so an EPOLLIN-only
// item must still be woken by the peer's pure shutdown(RD) (the close
// edge of the unsubscribed direction must not be filtered with its data
// edges).
func TestEpollWakesOnPeerShutdownRD(t *testing.T) {
	const port = 7717
	sys, tc := bootSmall(t, 4, 2, 0, nil)
	defer sys.OS.Shutdown()

	prog := buildProg(t, func(b *asm.Builder) {
		b.Zero("evbuf", 4*16)
		b.Entry("_start")
		ulib.Prologue(b)
		ulib.Socket(b)
		b.MovRR(isa.R6, isa.R0)
		ulib.Bind(b, isa.R6, port)
		ulib.ListenSock(b, isa.R6)
		b.MovRR(isa.R1, isa.R6)
		ulib.Syscall(b, libos.SysAccept)
		b.CmpI(isa.R0, 0)
		b.Jl("badacc")
		b.MovRR(isa.R6, isa.R0)
		ulib.EpCreate(b)
		b.MovRR(isa.R10, isa.R0)
		ulib.EpCtl(b, isa.R10, libos.EpCtlAdd, isa.R6, libos.PollIn)
		// Parks; the peer will only shutdown(RD) — no data, no EOF.
		ulib.EpWait(b, isa.R10, "evbuf", 4, -1)
		b.CmpI(isa.R0, 1)
		b.Jne("badwait")
		b.LeaData(isa.R8, "evbuf")
		b.Load(isa.R7, isa.Mem(isa.R8, 8)) // entry.revents
		b.AndI(isa.R7, libos.PollErr)
		b.CmpI(isa.R7, 0)
		b.Je("badrev")
		ulib.Exit(b, 0)
		b.Label("badacc")
		b.Nop()
		ulib.Exit(b, 1)
		b.Label("badwait")
		b.Nop()
		ulib.Exit(b, 2)
		b.Label("badrev")
		b.Nop()
		ulib.Exit(b, 3)
	})
	if err := sys.Install(tc, "/bin/epshutrd", "epshutrd", prog); err != nil {
		t.Fatal(err)
	}
	p, err := sys.OS.Spawn("/bin/epshutrd", nil, libos.SpawnOpt{})
	if err != nil {
		t.Fatal(err)
	}
	conn := dialSIP(t, sys, port)
	defer conn.Close()
	// Give the SIP a moment to park, then shut down only our read
	// direction; level-triggered verification makes either interleaving
	// equivalent, but the late close exercises the wakeup path.
	time.Sleep(10 * time.Millisecond)
	conn.CloseRead()
	if status := waitTimeout(t, p, 30*time.Second, "shutdown-RD SIP"); status != 0 {
		t.Fatalf("SIP exit status = %d", status)
	}
}

// TestLevelTriggeredRearm: after a partial read, epoll_wait must report
// the fd ready again with no new edge (level-triggered re-arm), and a
// zero-timeout wait after the full drain must report nothing.
func TestLevelTriggeredRearm(t *testing.T) {
	const (
		port  = 7712
		total = 64
		chunk = 16
	)
	sys, tc := bootSmall(t, 4, 2, 0, nil)
	defer sys.OS.Shutdown()

	prog := buildProg(t, func(b *asm.Builder) {
		b.Zero("evbuf", 4*16)
		b.Zero("buf", chunk)
		b.Entry("_start")
		ulib.Prologue(b)
		ulib.Socket(b)
		b.MovRR(isa.R6, isa.R0)
		ulib.Bind(b, isa.R6, port)
		ulib.ListenSock(b, isa.R6)
		b.MovRR(isa.R1, isa.R6)
		ulib.Syscall(b, libos.SysAccept)
		b.CmpI(isa.R0, 0)
		b.Jl("badacc")
		b.MovRR(isa.R6, isa.R0)
		ulib.EpCreate(b)
		b.MovRR(isa.R10, isa.R0)
		ulib.EpCtl(b, isa.R10, libos.EpCtlAdd, isa.R6, libos.PollIn)
		// Read the 64 bytes in 16-byte nibbles; every iteration's
		// epoll_wait must see the leftover data without a fresh edge.
		b.MovRI(isa.R5, 0) // total received
		b.Label("ltloop")
		b.CmpI(isa.R5, total)
		b.Jge("drained")
		ulib.EpWait(b, isa.R10, "evbuf", 4, -1)
		b.CmpI(isa.R0, 1)
		b.Jne("badwait")
		ulib.RecvSym(b, isa.R6, "buf", chunk)
		b.CmpI(isa.R0, 0)
		b.Jle("badrecv")
		b.Add(isa.R5, isa.R0)
		b.Jmp("ltloop")
		b.Label("drained")
		// Fully drained: a zero-timeout wait is a pure probe and must
		// report nothing (and not park).
		ulib.EpWait(b, isa.R10, "evbuf", 4, 0)
		b.CmpI(isa.R0, 0)
		b.Jne("badprobe")
		ulib.Exit(b, 0)
		b.Label("badacc")
		b.Nop()
		ulib.Exit(b, 1)
		b.Label("badwait")
		b.Nop()
		ulib.Exit(b, 2)
		b.Label("badrecv")
		b.Nop()
		ulib.Exit(b, 3)
		b.Label("badprobe")
		b.Nop()
		ulib.Exit(b, 4)
	})
	if err := sys.Install(tc, "/bin/ltrearm", "ltrearm", prog); err != nil {
		t.Fatal(err)
	}
	p, err := sys.OS.Spawn("/bin/ltrearm", nil, libos.SpawnOpt{})
	if err != nil {
		t.Fatal(err)
	}
	conn := dialSIP(t, sys, port)
	defer conn.Close()
	if _, err := conn.Write(make([]byte, total)); err != nil {
		t.Fatal(err)
	}
	if status := waitTimeout(t, p, 30*time.Second, "level-triggered SIP"); status != 0 {
		t.Fatalf("SIP exit status = %d", status)
	}
}

// TestEpCtlModRetargetsDirection: epoll subscriptions are filtered by
// the interest mask, so EpCtlMod from EPOLLIN to EPOLLOUT must
// re-subscribe the write direction — with the stale read-only
// registration, the full→space edge when the peer drains would never
// wake the parked epoll_wait.
func TestEpCtlModRetargetsDirection(t *testing.T) {
	const port = 7716
	sys, tc := bootSmall(t, 4, 2, 0, nil)
	defer sys.OS.Shutdown()

	prog := buildProg(t, func(b *asm.Builder) {
		b.Zero("evbuf", 4*16)
		b.Zero("blob", 64<<10)
		b.Entry("_start")
		ulib.Prologue(b)
		ulib.Socket(b)
		b.MovRR(isa.R6, isa.R0)
		ulib.Bind(b, isa.R6, port)
		ulib.ListenSock(b, isa.R6)
		b.MovRR(isa.R1, isa.R6)
		ulib.Syscall(b, libos.SysAccept)
		b.CmpI(isa.R0, 0)
		b.Jl("badacc")
		b.MovRR(isa.R6, isa.R0)
		// Fill the peer's 256 KB receive buffer with nonblocking sends.
		ulib.FcntlR(b, isa.R6, libos.FSetFl, libos.ONonblock)
		b.Label("fill")
		ulib.SendSym(b, isa.R6, "blob", 64<<10)
		b.CmpI(isa.R0, 0)
		b.Jge("fill") // until EAGAIN: buffer full, fd not writable
		// Watch for readability first, then retarget to writability.
		ulib.EpCreate(b)
		b.MovRR(isa.R10, isa.R0)
		ulib.EpCtl(b, isa.R10, libos.EpCtlAdd, isa.R6, libos.PollIn)
		ulib.EpCtl(b, isa.R10, libos.EpCtlMod, isa.R6, libos.PollOut)
		// Parks until the host drains; a lost write-side subscription
		// hangs here forever.
		ulib.EpWait(b, isa.R10, "evbuf", 4, -1)
		b.CmpI(isa.R0, 1)
		b.Jne("badwait")
		b.LeaData(isa.R8, "evbuf")
		b.Load(isa.R7, isa.Mem(isa.R8, 8)) // entry.revents
		b.AndI(isa.R7, libos.PollOut)
		b.CmpI(isa.R7, 0)
		b.Je("badrev")
		ulib.Exit(b, 0)
		b.Label("badacc")
		b.Nop()
		ulib.Exit(b, 1)
		b.Label("badwait")
		b.Nop()
		ulib.Exit(b, 2)
		b.Label("badrev")
		b.Nop()
		ulib.Exit(b, 3)
	})
	if err := sys.Install(tc, "/bin/epmod", "epmod", prog); err != nil {
		t.Fatal(err)
	}
	p, err := sys.OS.Spawn("/bin/epmod", nil, libos.SpawnOpt{})
	if err != nil {
		t.Fatal(err)
	}
	conn := dialSIP(t, sys, port)
	defer conn.Close()
	// Drain until the SIP exits: the first reads make buffer space,
	// firing the write-direction edge the MOD must have subscribed.
	done := make(chan int, 1)
	go func() { done <- p.Wait() }()
	buf := make([]byte, 32<<10)
	deadline := time.Now().Add(30 * time.Second)
	for {
		select {
		case status := <-done:
			if status != 0 {
				t.Fatalf("SIP exit status = %d", status)
			}
			return
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("SIP never woke: EpCtlMod lost the write-direction subscription")
		}
		conn.Read(buf)
		time.Sleep(time.Millisecond)
	}
}

// TestZeroTimeoutPollProbe: a zero-timeout poll is a pure readiness
// probe — 0 when nothing is ready (without parking), the ready count
// once data is buffered. Self-contained over a pipe.
func TestZeroTimeoutPollProbe(t *testing.T) {
	sys, tc := bootSmall(t, 4, 2, 0, nil)
	defer sys.OS.Shutdown()

	prog := buildProg(t, func(b *asm.Builder) {
		b.Zero("fds", 16)
		b.Zero("pfd", 24)
		b.Bytes("msg", []byte("12345678"))
		b.Entry("_start")
		ulib.Prologue(b)
		ulib.Pipe2(b, "fds") // rfd=3, wfd=4 in a fresh table
		// pfd = {fd: 3, events: POLLIN}
		b.MovRI(isa.R7, 3)
		b.StoreData("pfd", isa.R7)
		b.LeaData(isa.R8, "pfd")
		b.MovRI(isa.R7, libos.PollIn)
		b.Store(isa.Mem(isa.R8, 8), isa.R7)
		// Empty pipe: probe reports nothing.
		ulib.Poll(b, "pfd", 1, 0)
		b.CmpI(isa.R0, 0)
		b.Jne("badempty")
		// write(4, msg, 8), then the probe reports POLLIN.
		b.MovRI(isa.R1, 4)
		b.LeaData(isa.R2, "msg")
		b.MovRI(isa.R3, 8)
		ulib.Syscall(b, libos.SysWrite)
		ulib.Poll(b, "pfd", 1, 0)
		b.CmpI(isa.R0, 1)
		b.Jne("badready")
		b.LeaData(isa.R8, "pfd")
		b.Load(isa.R7, isa.Mem(isa.R8, 16))
		b.AndI(isa.R7, libos.PollIn)
		b.CmpI(isa.R7, 0)
		b.Je("badrev")
		ulib.Exit(b, 0)
		b.Label("badempty")
		b.Nop()
		ulib.Exit(b, 1)
		b.Label("badready")
		b.Nop()
		ulib.Exit(b, 2)
		b.Label("badrev")
		b.Nop()
		ulib.Exit(b, 3)
	})
	if err := sys.Install(tc, "/bin/pollprobe", "pollprobe", prog); err != nil {
		t.Fatal(err)
	}
	parks0 := sys.OS.Sched().Snapshot().Parks
	p, err := sys.OS.Spawn("/bin/pollprobe", nil, libos.SpawnOpt{})
	if err != nil {
		t.Fatal(err)
	}
	if status := waitTimeout(t, p, 30*time.Second, "poll-probe SIP"); status != 0 {
		t.Fatalf("SIP exit status = %d", status)
	}
	// Zero-timeout probes never park; the run is all straight-line code.
	if parks := sys.OS.Sched().Snapshot().Parks - parks0; parks != 0 {
		t.Fatalf("zero-timeout poll parked %d times", parks)
	}
}

// TestPollTimeoutExpires: a finite poll timeout parks the SIP, the host
// timer fires, and the retry returns 0 — the timed-wait leg of the
// parking protocol.
func TestPollTimeoutExpires(t *testing.T) {
	const port = 7715
	sys, tc := bootSmall(t, 4, 2, 0, nil)
	defer sys.OS.Shutdown()

	prog := buildProg(t, func(b *asm.Builder) {
		b.Zero("pfd", 24)
		b.Entry("_start")
		ulib.Prologue(b)
		ulib.Socket(b)
		b.MovRR(isa.R6, isa.R0)
		ulib.Bind(b, isa.R6, port)
		ulib.ListenSock(b, isa.R6)
		b.StoreData("pfd", isa.R6)
		b.LeaData(isa.R8, "pfd")
		b.MovRI(isa.R7, libos.PollIn)
		b.Store(isa.Mem(isa.R8, 8), isa.R7)
		// Nobody will ever dial: the 25 ms timeout must fire and poll
		// must answer 0.
		ulib.Poll(b, "pfd", 1, 25)
		b.CmpI(isa.R0, 0)
		b.Jne("bad")
		ulib.Exit(b, 0)
		b.Label("bad")
		b.Nop()
		ulib.Exit(b, 1)
	})
	if err := sys.Install(tc, "/bin/polltmo", "polltmo", prog); err != nil {
		t.Fatal(err)
	}
	parks0 := sys.OS.Sched().Snapshot().Parks
	p, err := sys.OS.Spawn("/bin/polltmo", nil, libos.SpawnOpt{})
	if err != nil {
		t.Fatal(err)
	}
	if status := waitTimeout(t, p, 30*time.Second, "poll-timeout SIP"); status != 0 {
		t.Fatalf("SIP exit status = %d", status)
	}
	if parks := sys.OS.Sched().Snapshot().Parks - parks0; parks == 0 {
		t.Fatal("timed poll did not park: it busy-waited on a hart")
	}
}

// TestPollTimeoutAfterIdleGap: a poll timeout is measured from the
// moment of the poll, not from the last time the LibOS's timers ran.
// The host's clock is virtual: a guest poll(200 ms) issued 300 ms after
// boot, on a listener nobody dials, must not time out at 199 ms and
// must at 200 ms.
func TestPollTimeoutAfterIdleGap(t *testing.T) {
	const port = 7718
	clock := timers.New(nil)
	host := hostos.NewWithClock(clock)
	platform := sgx.NewPlatform(512 << 20)
	o, err := libos.Boot(platform, host, smallConfig(4, 2, 0, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer o.Shutdown()
	sys, tc := &core.System{Platform: platform, Host: host, OS: o}, core.NewToolchain()

	prog := buildProg(t, func(b *asm.Builder) {
		b.Zero("pfd", 24)
		b.Entry("_start")
		ulib.Prologue(b)
		ulib.Socket(b)
		b.MovRR(isa.R6, isa.R0)
		ulib.Bind(b, isa.R6, port)
		ulib.ListenSock(b, isa.R6)
		b.StoreData("pfd", isa.R6)
		b.LeaData(isa.R8, "pfd")
		b.MovRI(isa.R7, libos.PollIn)
		b.Store(isa.Mem(isa.R8, 8), isa.R7)
		ulib.Poll(b, "pfd", 1, 200)
		b.CmpI(isa.R0, 0)
		b.Jne("bad")
		ulib.Exit(b, 0)
		b.Label("bad")
		b.Nop()
		ulib.Exit(b, 1)
	})
	if err := sys.Install(tc, "/bin/pollgap", "pollgap", prog); err != nil {
		t.Fatal(err)
	}
	clock.Advance(300 * time.Millisecond)
	p, err := o.Spawn("/bin/pollgap", nil, libos.SpawnOpt{})
	if err != nil {
		t.Fatal(err)
	}
	// The poll has armed its deadline once the LibOS holds a host timer.
	for deadline := time.Now().Add(30 * time.Second); host.ActiveTimers() == 0; time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatal("the guest's poll never armed a timer")
		}
	}
	fires := libos.NetStats().TimerFires
	clock.Advance(199 * time.Millisecond)
	if n := libos.NetStats().TimerFires - fires; n != 0 {
		t.Fatalf("poll(200 ms) issued after an idle gap timed out at 199 ms (%d fires)", n)
	}
	clock.Advance(timers.Tick)
	if n := libos.NetStats().TimerFires - fires; n != 1 {
		t.Fatalf("poll(200 ms) issued after an idle gap: %d fires at 200 ms, want 1", n)
	}
	if status := waitTimeout(t, p, 30*time.Second, "poll-gap SIP"); status != 0 {
		t.Fatalf("SIP exit status = %d", status)
	}
}

// TestNonblockRecvEAGAIN: fcntl(O_NONBLOCK) turns an empty-socket recv
// into an immediate EAGAIN, and F_GETFL reads the flag back.
func TestNonblockRecvEAGAIN(t *testing.T) {
	const port = 7713
	sys, tc := bootSmall(t, 4, 2, 0, nil)
	defer sys.OS.Shutdown()

	prog := buildProg(t, func(b *asm.Builder) {
		b.Zero("buf", 16)
		b.Entry("_start")
		ulib.Prologue(b)
		ulib.Socket(b)
		b.MovRR(isa.R6, isa.R0)
		ulib.Bind(b, isa.R6, port)
		ulib.ListenSock(b, isa.R6)
		b.MovRR(isa.R1, isa.R6)
		ulib.Syscall(b, libos.SysAccept)
		b.CmpI(isa.R0, 0)
		b.Jl("badacc")
		b.MovRR(isa.R6, isa.R0)
		ulib.FcntlR(b, isa.R6, libos.FSetFl, libos.ONonblock)
		ulib.FcntlR(b, isa.R6, libos.FGetFl, 0)
		b.AndI(isa.R0, libos.ONonblock)
		b.CmpI(isa.R0, 0)
		b.Je("badgetfl")
		// Nothing buffered: recv must fail fast with EAGAIN.
		ulib.RecvSym(b, isa.R6, "buf", 16)
		b.CmpI(isa.R0, -libos.EAGAIN)
		b.Jne("badrecv")
		ulib.Exit(b, 0)
		b.Label("badacc")
		b.Nop()
		ulib.Exit(b, 1)
		b.Label("badgetfl")
		b.Nop()
		ulib.Exit(b, 2)
		b.Label("badrecv")
		b.Nop()
		ulib.Exit(b, 3)
	})
	if err := sys.Install(tc, "/bin/nbrecv", "nbrecv", prog); err != nil {
		t.Fatal(err)
	}
	p, err := sys.OS.Spawn("/bin/nbrecv", nil, libos.SpawnOpt{})
	if err != nil {
		t.Fatal(err)
	}
	conn := dialSIP(t, sys, port)
	defer conn.Close()
	if status := waitTimeout(t, p, 30*time.Second, "nonblock SIP"); status != 0 {
		t.Fatalf("SIP exit status = %d", status)
	}
}

// TestShutdownHalfClose: shutdown(WR) from inside the enclave flushes
// the response to the host-side peer (drain + EOF) while the SIP's read
// direction keeps working — the syscall face of the hostos half-close.
func TestShutdownHalfClose(t *testing.T) {
	const port = 7714
	sys, tc := bootSmall(t, 4, 2, 0, nil)
	defer sys.OS.Shutdown()

	prog := buildProg(t, func(b *asm.Builder) {
		b.Bytes("msg", []byte("response"))
		b.Zero("buf", 16)
		b.Entry("_start")
		ulib.Prologue(b)
		ulib.Socket(b)
		b.MovRR(isa.R6, isa.R0)
		ulib.Bind(b, isa.R6, port)
		ulib.ListenSock(b, isa.R6)
		b.MovRR(isa.R1, isa.R6)
		ulib.Syscall(b, libos.SysAccept)
		b.CmpI(isa.R0, 0)
		b.Jl("badacc")
		b.MovRR(isa.R6, isa.R0)
		ulib.SendSym(b, isa.R6, "msg", 8)
		ulib.Shutdown(b, isa.R6, libos.ShutWr)
		// Read direction still open: wait for the client's ack.
		ulib.RecvSym(b, isa.R6, "buf", 16)
		b.CmpI(isa.R0, 3)
		b.Jne("badack")
		ulib.Exit(b, 0)
		b.Label("badacc")
		b.Nop()
		ulib.Exit(b, 1)
		b.Label("badack")
		b.Nop()
		ulib.Exit(b, 2)
	})
	if err := sys.Install(tc, "/bin/shutwr", "shutwr", prog); err != nil {
		t.Fatal(err)
	}
	p, err := sys.OS.Spawn("/bin/shutwr", nil, libos.SpawnOpt{})
	if err != nil {
		t.Fatal(err)
	}
	conn := dialSIP(t, sys, port)
	defer conn.Close()
	buf := make([]byte, 16)
	got := 0
	for got < 8 {
		n, err := conn.Read(buf[got:])
		got += n
		if err != nil {
			break
		}
	}
	if got != 8 || string(buf[:8]) != "response" {
		t.Fatalf("read %q (%d bytes) before EOF, want \"response\"", buf[:got], got)
	}
	// Past the response: EOF, not a stuck read.
	if n, err := conn.Read(buf); err == nil {
		t.Fatalf("read after shutdown(WR) returned %d bytes, want EOF", n)
	}
	// Our direction is still open: ack back.
	if _, err := conn.Write([]byte("ack")); err != nil {
		t.Fatalf("write after peer shutdown(WR): %v", err)
	}
	if status := waitTimeout(t, p, 30*time.Second, "shutdown SIP"); status != 0 {
		t.Fatalf("SIP exit status = %d", status)
	}
}

// TestListenBacklogConnectStorm: the guest's listen() backlog argument
// must plumb through the syscall dispatcher to the hostos listener —
// the pre-fix kernel hard-coded 128 and silently ignored the argument.
// A SIP listens with a small backlog and never accepts; the host fills
// exactly backlog slots and the next dial is refused, at two sizes so a
// still-hard-coded default cannot pass by coincidence.
func TestListenBacklogConnectStorm(t *testing.T) {
	for _, tt := range []struct {
		port    uint16
		backlog int
	}{
		{7731, 4},
		{7733, 64},
	} {
		sys, tc := bootSmall(t, 4, 2, 0, nil)

		prog := buildProg(t, func(b *asm.Builder) {
			b.Entry("_start")
			ulib.Prologue(b)
			ulib.Socket(b)
			b.MovRR(isa.R6, isa.R0)
			ulib.Bind(b, isa.R6, int64(tt.port))
			ulib.ListenBacklog(b, isa.R6, int64(tt.backlog))
			// Park forever: accept on a second listener nobody dials.
			// The first listener's backlog fills while this SIP is
			// demonstrably not accepting.
			ulib.Socket(b)
			b.MovRR(isa.R7, isa.R0)
			ulib.Bind(b, isa.R7, int64(tt.port)+1)
			ulib.ListenSock(b, isa.R7)
			b.MovRR(isa.R1, isa.R7)
			ulib.Syscall(b, libos.SysAccept)
			ulib.Exit(b, 0)
		})
		if err := sys.Install(tc, "/bin/backlog", "backlog", prog); err != nil {
			t.Fatal(err)
		}
		p, err := sys.OS.Spawn("/bin/backlog", nil, libos.SpawnOpt{})
		if err != nil {
			t.Fatal(err)
		}

		// First dial retries until the listener exists; it and the
		// following backlog-1 dials occupy every queue slot.
		conns := []*hostos.Conn{dialSIP(t, sys, tt.port)}
		for i := 1; i < tt.backlog; i++ {
			conn, err := sys.Host.Dial(tt.port)
			if err != nil {
				t.Fatalf("backlog=%d: dial %d refused early: %v", tt.backlog, i, err)
			}
			conns = append(conns, conn)
		}
		// The storm overflow: one more dial must be refused, and must
		// keep being refused (nobody is draining the queue).
		for i := 0; i < 3; i++ {
			if _, err := sys.Host.Dial(tt.port); err == nil {
				t.Fatalf("backlog=%d: dial %d accepted beyond the backlog", tt.backlog, tt.backlog+i)
			}
		}
		for _, c := range conns {
			c.Close()
		}
		if err := sys.OS.Kill(p.PID(), libos.SIGKILL); err != nil {
			t.Fatal(err)
		}
		if status := waitTimeout(t, p, 30*time.Second, "backlog SIP"); status != 128+libos.SIGKILL {
			t.Fatalf("killed SIP status = %d, want %d", status, 128+libos.SIGKILL)
		}
		sys.OS.Shutdown()
	}
}
