package libos_test

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"testing"
	"time"

	"repro/internal/asm"
	"repro/internal/fs"
	"repro/internal/hostos"
	"repro/internal/isa"
	"repro/internal/libos"
	"repro/internal/sysdispatch"
	"repro/internal/ulib"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// Zero-copy data-plane battery: every test drives a real SIP through
// the new readv/writev/sendfile/splice syscalls and checks the moved
// bytes against what the scalar read/write loops would have produced —
// same spans, same order, same partial-progress points. Distinct exit
// codes name the exact broken transition.

// span is one iovec entry, as an offset into the program's buffer
// symbol.
type span struct {
	off, n int
}

// randSpans places cnt non-overlapping spans at random offsets of a
// bufSize-byte buffer, in address order, with random gaps between them.
func randSpans(rng *rand.Rand, bufSize, maxTotal int) []span {
	cnt := 1 + rng.Intn(12)
	var spans []span
	off, total := 0, 0
	for i := 0; i < cnt && off < bufSize-1; i++ {
		off += rng.Intn(512) // gap
		n := 1 + rng.Intn(8<<10)
		if total+n > maxTotal {
			n = maxTotal - total
		}
		if n <= 0 || off+n > bufSize {
			break
		}
		spans = append(spans, span{off: off, n: n})
		off += n
		total += n
	}
	if len(spans) == 0 {
		spans = []span{{off: 0, n: 1 + rng.Intn(64)}}
	}
	return spans
}

func spanTotal(spans []span) int {
	t := 0
	for _, s := range spans {
		t += s.n
	}
	return t
}

// pat is the deterministic byte pattern both sides generate
// independently.
func pat(seed byte, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(int(seed) + i*7 + (i>>8)*13)
	}
	return b
}

// fillSpans returns a bufSize buffer holding the pattern laid
// contiguously across the spans (so the gather of the spans equals
// pat(seed, total)), zero elsewhere.
func fillSpans(seed byte, bufSize int, spans []span) (buf, gathered []byte) {
	gathered = pat(seed, spanTotal(spans))
	buf = make([]byte, bufSize)
	k := 0
	for _, s := range spans {
		copy(buf[s.off:s.off+s.n], gathered[k:k+s.n])
		k += s.n
	}
	return buf, gathered
}

// emitIov emits code filling the iovec array symbol with the spans'
// runtime addresses. Clobbers R5, R8, R9.
func emitIov(b *asm.Builder, iovSym, bufSym string, spans []span) {
	for i, s := range spans {
		b.LeaData(isa.R5, bufSym)
		b.AddI(isa.R5, int32(s.off))
		ulib.IovSetReg(b, iovSym, int64(i), isa.R5, int64(s.n))
	}
}

// acceptOn emits socket/bind/listen/accept on port, leaving the
// connection fd in R7. Clobbers R0, R1, R6.
func acceptOn(b *asm.Builder, port int64, failLabel string) {
	ulib.Socket(b)
	b.MovRR(isa.R6, isa.R0)
	ulib.Bind(b, isa.R6, port)
	ulib.ListenSock(b, isa.R6)
	b.MovRR(isa.R1, isa.R6)
	ulib.Syscall(b, libos.SysAccept)
	b.CmpI(isa.R0, 0)
	b.Jl(failLabel)
	b.MovRR(isa.R7, isa.R0)
}

// readFull reads exactly n bytes from the host side of a conn.
func readFull(t *testing.T, conn *hostos.Conn, n int) []byte {
	t.Helper()
	buf := make([]byte, n)
	got := 0
	for got < n {
		rn, err := conn.Read(buf[got:])
		got += rn
		if err != nil {
			if err == io.EOF {
				break
			}
			t.Fatalf("host read: %v after %d/%d bytes", err, got, n)
		}
	}
	if got != n {
		t.Fatalf("host read %d bytes, want %d", got, n)
	}
	return buf
}

// TestWritevMatchesScalarRandomShapes runs randomized trials: for each
// iovec shape, one SIP gathers the spans with a single writev and a
// twin SIP writes the same spans with a scalar write loop; the host
// must receive byte-identical streams equal to the concatenated spans.
func TestWritevMatchesScalarRandomShapes(t *testing.T) {
	const basePort = 7801
	for trial := 0; trial < 4; trial++ {
		rng := rand.New(rand.NewSource(int64(40 + trial)))
		spans := randSpans(rng, 96<<10, 40<<10)
		buf, want := fillSpans(byte(trial+1), 96<<10, spans)
		total := spanTotal(spans)

		for variant, vectored := range map[string]bool{"writev": true, "scalar": false} {
			port := basePort + trial*2
			if !vectored {
				port++
			}
			sys, tc := bootSmall(t, 4, 2, 0, nil)
			prog := buildProg(t, func(b *asm.Builder) {
				b.Bytes("buf", buf)
				b.Zero("iov", 16*len(spans))
				b.Entry("_start")
				ulib.Prologue(b)
				acceptOn(b, int64(port), "fail")
				if vectored {
					emitIov(b, "iov", "buf", spans)
					ulib.Writev(b, isa.R7, "iov", int64(len(spans)))
					b.CmpI(isa.R0, int32(total))
					b.Jne("fail")
				} else {
					for _, s := range spans {
						b.MovRR(isa.R1, isa.R7)
						b.LeaData(isa.R2, "buf")
						b.AddI(isa.R2, int32(s.off))
						b.MovRI(isa.R3, int64(s.n))
						ulib.Syscall(b, libos.SysWrite)
						b.CmpI(isa.R0, int32(s.n))
						b.Jne("fail")
					}
				}
				ulib.Exit(b, 0)
				b.Label("fail")
				b.Nop()
				ulib.Exit(b, 1)
			})
			bin := fmt.Sprintf("/bin/wv%d%s", trial, variant)
			if err := sys.Install(tc, bin, "wv", prog); err != nil {
				t.Fatal(err)
			}
			p, err := sys.OS.Spawn(bin, nil, libos.SpawnOpt{})
			if err != nil {
				t.Fatal(err)
			}
			conn := dialSIP(t, sys, uint16(port))
			got := readFull(t, conn, total)
			if status := waitTimeout(t, p, 30*time.Second, variant+" SIP"); status != 0 {
				t.Fatalf("trial %d %s: exit status = %d", trial, variant, status)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("trial %d %s: received bytes differ from gathered spans", trial, variant)
			}
			conn.Close()
			sys.OS.Shutdown()
		}
	}
}

// TestReadvScatterMatchesSent: the SIP fills its own pipe with a
// pattern, scatters it across random iovec spans with one readv, then
// writes the whole buffer region back to the host — proving each span
// received exactly its slice of the stream and the gaps stayed
// untouched (what a scalar read loop over the same spans produces).
func TestReadvScatterMatchesSent(t *testing.T) {
	const port = 7821
	const bufSize = 64 << 10
	for trial := 0; trial < 4; trial++ {
		rng := rand.New(rand.NewSource(int64(90 + trial)))
		spans := randSpans(rng, bufSize, 32<<10)
		total := spanTotal(spans)
		src := pat(byte(0x30+trial), total)
		want, _ := fillSpans(byte(0x30+trial), bufSize, spans)

		sys, tc := bootSmall(t, 4, 2, 0, nil)
		prog := buildProg(t, func(b *asm.Builder) {
			b.Bytes("src", src)
			b.Zero("buf", bufSize)
			b.Zero("iov", 16*len(spans))
			b.Zero("pfds", 16)
			b.Entry("_start")
			ulib.Prologue(b)
			// pipe2; fill the pipe with the whole pattern (scalar).
			ulib.Pipe2(b, "pfds")
			b.LeaData(isa.R5, "pfds")
			b.Load(isa.R6, isa.Mem(isa.R5, 8)) // write fd
			b.MovRR(isa.R1, isa.R6)
			b.LeaData(isa.R2, "src")
			b.MovRI(isa.R3, int64(total))
			ulib.Syscall(b, libos.SysWrite)
			b.CmpI(isa.R0, int32(total))
			b.Jne("fail")
			// One readv scatters it across the spans.
			emitIov(b, "iov", "buf", spans)
			b.LeaData(isa.R5, "pfds")
			b.Load(isa.R7, isa.Mem(isa.R5, 0)) // read fd
			ulib.Readv(b, isa.R7, "iov", int64(len(spans)))
			b.CmpI(isa.R0, int32(total))
			b.Jne("fail")
			// Ship the whole buffer region to the host for inspection.
			acceptOn(b, port, "fail")
			b.MovRR(isa.R1, isa.R7)
			b.LeaData(isa.R2, "buf")
			b.MovRI(isa.R3, bufSize)
			ulib.Syscall(b, libos.SysWrite)
			b.CmpI(isa.R0, int32(bufSize))
			b.Jne("fail")
			ulib.Exit(b, 0)
			b.Label("fail")
			b.Nop()
			ulib.Exit(b, 1)
		})
		bin := fmt.Sprintf("/bin/rv%d", trial)
		if err := sys.Install(tc, bin, "rv", prog); err != nil {
			t.Fatal(err)
		}
		p, err := sys.OS.Spawn(bin, nil, libos.SpawnOpt{})
		if err != nil {
			t.Fatal(err)
		}
		conn := dialSIP(t, sys, port)
		got := readFull(t, conn, bufSize)
		if status := waitTimeout(t, p, 30*time.Second, "readv SIP"); status != 0 {
			t.Fatalf("trial %d: exit status = %d", trial, status)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("trial %d: scatter placement differs from scalar model", trial)
		}
		conn.Close()
		sys.OS.Shutdown()
	}
}

// TestWritevNonblockPartialAndResume: an O_NONBLOCK writev against a
// stalled reader must accept exactly the stream's free space (the ring
// cap), then fail fast with EAGAIN; after clearing O_NONBLOCK the same
// writev parks and resumes through cursys.prog as the host drains,
// delivering every byte exactly once.
func TestWritevNonblockPartialAndResume(t *testing.T) {
	const dataPort, ctlPort = 7831, 7832
	total := hostos.StreamCap() + 44<<10 // forces a partial first call
	spans := []span{{0, 96 << 10}, {100 << 10, 96 << 10}, {200 << 10, total - 192<<10}}
	buf, want := fillSpans(0x5a, 320<<10, spans)

	sys, tc := bootSmall(t, 4, 2, 0, nil)
	defer sys.OS.Shutdown()
	prog := buildProg(t, func(b *asm.Builder) {
		b.Bytes("buf", buf)
		b.Zero("iov", 16*len(spans))
		b.String("go", "G")
		b.Entry("_start")
		ulib.Prologue(b)
		acceptOn(b, dataPort, "fail1")
		b.MovRR(isa.R4, isa.R7) // data conn
		acceptOn(b, ctlPort, "fail1")
		b.MovRR(isa.R6, isa.R7) // ctl conn
		b.MovRR(isa.R7, isa.R4)
		emitIov(b, "iov", "buf", spans)
		// Nonblock: first writev takes exactly the ring's free space.
		ulib.FcntlR(b, isa.R7, libos.FSetFl, libos.ONonblock)
		ulib.Writev(b, isa.R7, "iov", int64(len(spans)))
		b.CmpI(isa.R0, int32(hostos.StreamCap()))
		b.Jne("fail2")
		// Ring is full: a second writev must EAGAIN, not park.
		ulib.Writev(b, isa.R7, "iov", int64(len(spans)))
		b.CmpI(isa.R0, -libos.EAGAIN)
		b.Jne("fail3")
		// Tell the host it may start draining, then send the whole
		// iovec blocking — parks and resumes via cursys.prog.
		ulib.SendSym(b, isa.R6, "go", 1)
		ulib.FcntlR(b, isa.R7, libos.FSetFl, 0)
		ulib.Writev(b, isa.R7, "iov", int64(len(spans)))
		b.CmpI(isa.R0, int32(total))
		b.Jne("fail4")
		ulib.Exit(b, 0)
		for i, l := range []string{"fail1", "fail2", "fail3", "fail4"} {
			b.Label(l)
			b.Nop()
			ulib.Exit(b, int64(i+1))
		}
	})
	if err := sys.Install(tc, "/bin/wvnb", "wvnb", prog); err != nil {
		t.Fatal(err)
	}
	p, err := sys.OS.Spawn("/bin/wvnb", nil, libos.SpawnOpt{})
	if err != nil {
		t.Fatal(err)
	}
	data := dialSIP(t, sys, dataPort)
	defer data.Close()
	ctl := dialSIP(t, sys, ctlPort)
	defer ctl.Close()
	readFull(t, ctl, 1) // wait for "go"
	got := readFull(t, data, hostos.StreamCap()+total)
	if status := waitTimeout(t, p, 30*time.Second, "nonblock writev SIP"); status != 0 {
		t.Fatalf("exit status = %d", status)
	}
	if !bytes.Equal(got[:hostos.StreamCap()], want[:hostos.StreamCap()]) {
		t.Fatal("partial nonblock writev sent wrong prefix")
	}
	if !bytes.Equal(got[hostos.StreamCap():], want) {
		t.Fatal("blocking writev resume delivered wrong bytes")
	}
}

// TestWritevFaultMidIovec: a fault address in the middle of the array
// yields the bytes gathered before it; a fault in the first span yields
// EFAULT with nothing sent.
func TestWritevFaultMidIovec(t *testing.T) {
	const port = 7841
	const good = 5000
	payload := pat(0x77, good)

	sys, tc := bootSmall(t, 4, 2, 0, nil)
	defer sys.OS.Shutdown()
	prog := buildProg(t, func(b *asm.Builder) {
		b.Bytes("buf", payload)
		b.Zero("iov", 32)
		b.Entry("_start")
		ulib.Prologue(b)
		acceptOn(b, port, "fail1")
		// iov[0] = valid span, iov[1] = far outside the data region.
		b.LeaData(isa.R5, "buf")
		ulib.IovSetReg(b, "iov", 0, isa.R5, good)
		b.MovRI(isa.R5, 1<<40)
		ulib.IovSetReg(b, "iov", 1, isa.R5, 64)
		ulib.Writev(b, isa.R7, "iov", 2)
		b.CmpI(isa.R0, good)
		b.Jne("fail2")
		// Fault first: nothing to report but the fault itself.
		b.MovRI(isa.R5, 1<<40)
		ulib.IovSetReg(b, "iov", 0, isa.R5, 64)
		ulib.Writev(b, isa.R7, "iov", 2)
		b.CmpI(isa.R0, -libos.EFAULT)
		b.Jne("fail3")
		ulib.Exit(b, 0)
		for i, l := range []string{"fail1", "fail2", "fail3"} {
			b.Label(l)
			b.Nop()
			ulib.Exit(b, int64(i+1))
		}
	})
	if err := sys.Install(tc, "/bin/wvfault", "wvfault", prog); err != nil {
		t.Fatal(err)
	}
	p, err := sys.OS.Spawn("/bin/wvfault", nil, libos.SpawnOpt{})
	if err != nil {
		t.Fatal(err)
	}
	conn := dialSIP(t, sys, port)
	defer conn.Close()
	got := readFull(t, conn, good)
	if status := waitTimeout(t, p, 30*time.Second, "fault writev SIP"); status != 0 {
		t.Fatalf("exit status = %d", status)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("partial writev before the fault sent wrong bytes")
	}
}

// TestSplicePipeToSocketZeroCopy: pipe→socket forwarding through
// splice must move the bytes without a single staging copy — the
// -netstats bytes-copied ledger stays untouched across the forward.
func TestSplicePipeToSocketZeroCopy(t *testing.T) {
	const port = 7851
	const total = 48 << 10
	payload := pat(0x21, total)

	sys, tc := bootSmall(t, 4, 2, 0, nil)
	defer sys.OS.Shutdown()
	prog := buildProg(t, func(b *asm.Builder) {
		b.Bytes("src", payload)
		b.Zero("pfds", 16)
		b.Zero("goiov", 16)
		b.Zero("gobuf", 8)
		b.Entry("_start")
		ulib.Prologue(b)
		ulib.Pipe2(b, "pfds")
		b.LeaData(isa.R5, "pfds")
		b.Load(isa.R6, isa.Mem(isa.R5, 8)) // write fd
		b.MovRR(isa.R1, isa.R6)
		b.LeaData(isa.R2, "src")
		b.MovRI(isa.R3, total)
		ulib.Syscall(b, libos.SysWrite)
		b.CmpI(isa.R0, total)
		b.Jne("fail1")
		acceptOn(b, port, "fail1")
		// Wait for the host's go byte via readv so the control byte
		// lands on the lent ledger, keeping bytes-copied at exactly 0
		// for the measured window.
		b.LeaData(isa.R5, "gobuf")
		ulib.IovSetReg(b, "goiov", 0, isa.R5, 1)
		ulib.Readv(b, isa.R7, "goiov", 1)
		b.CmpI(isa.R0, 1)
		b.Jne("fail2")
		// Forward the pipe into the socket in one zero-copy splice.
		b.LeaData(isa.R5, "pfds")
		b.Load(isa.R6, isa.Mem(isa.R5, 0)) // read fd
		ulib.Splice(b, isa.R6, isa.R7, total)
		b.CmpI(isa.R0, total)
		b.Jne("fail3")
		ulib.Exit(b, 0)
		for i, l := range []string{"fail1", "fail2", "fail3"} {
			b.Label(l)
			b.Nop()
			ulib.Exit(b, int64(i+1))
		}
	})
	if err := sys.Install(tc, "/bin/splout", "splout", prog); err != nil {
		t.Fatal(err)
	}
	p, err := sys.OS.Spawn("/bin/splout", nil, libos.SpawnOpt{})
	if err != nil {
		t.Fatal(err)
	}
	conn := dialSIP(t, sys, port)
	defer conn.Close()
	before := libos.NetStats()
	if _, err := conn.Write([]byte("G")); err != nil {
		t.Fatal(err)
	}
	got := readFull(t, conn, total)
	if status := waitTimeout(t, p, 30*time.Second, "splice SIP"); status != 0 {
		t.Fatalf("exit status = %d", status)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("spliced bytes differ from the pipe contents")
	}
	d := libos.NetStats().Sub(before)
	if d.BytesCopied != 0 {
		t.Fatalf("splice window staged %d bytes through copies, want 0", d.BytesCopied)
	}
	if d.Splices == 0 || d.BytesLent < total {
		t.Fatalf("splice ledger: splices=%d lent=%d, want >=1 and >=%d", d.Splices, d.BytesLent, total)
	}
}

// TestSpliceSocketToPipeAndEOF: splice drains the socket into the pipe
// (EAGAIN under O_NONBLOCK while empty, 0 at peer EOF), and the pipe
// contents echo back byte-identical.
func TestSpliceSocketToPipeAndEOF(t *testing.T) {
	const port = 7861
	const total = 32 << 10
	payload := pat(0x44, total)

	sys, tc := bootSmall(t, 4, 2, 0, nil)
	defer sys.OS.Shutdown()
	prog := buildProg(t, func(b *asm.Builder) {
		b.Zero("pfds", 16)
		b.Zero("buf", total)
		b.String("rdy", "R")
		b.Entry("_start")
		ulib.Prologue(b)
		ulib.Pipe2(b, "pfds")
		acceptOn(b, port, "fail1")
		// Empty socket + O_NONBLOCK: splice must EAGAIN, not park.
		ulib.FcntlR(b, isa.R7, libos.FSetFl, libos.ONonblock)
		b.LeaData(isa.R5, "pfds")
		b.Load(isa.R4, isa.Mem(isa.R5, 8)) // pipe write fd
		ulib.Splice(b, isa.R7, isa.R4, total)
		b.CmpI(isa.R0, -libos.EAGAIN)
		b.Jne("fail2")
		ulib.FcntlR(b, isa.R7, libos.FSetFl, 0)
		ulib.SendSym(b, isa.R7, "rdy", 1)
		// Drain the socket into the pipe until EOF; accumulate in R6.
		b.MovRI(isa.R6, 0)
		b.Label("drain")
		b.LeaData(isa.R5, "pfds")
		b.Load(isa.R4, isa.Mem(isa.R5, 8))
		ulib.Splice(b, isa.R7, isa.R4, total)
		b.CmpI(isa.R0, 0)
		b.Jl("fail3")
		b.Je("drained")
		b.Add(isa.R6, isa.R0)
		b.Jmp("drain")
		b.Label("drained")
		b.CmpI(isa.R6, total)
		b.Jne("fail4")
		// Echo the pipe contents back for verification.
		b.LeaData(isa.R5, "pfds")
		b.Load(isa.R4, isa.Mem(isa.R5, 0))
		b.MovRR(isa.R1, isa.R4)
		b.LeaData(isa.R2, "buf")
		b.MovRI(isa.R3, total)
		ulib.Syscall(b, libos.SysRead)
		b.CmpI(isa.R0, total)
		b.Jne("fail5")
		b.MovRR(isa.R1, isa.R7)
		b.LeaData(isa.R2, "buf")
		b.MovRI(isa.R3, total)
		ulib.Syscall(b, libos.SysSend)
		b.CmpI(isa.R0, total)
		b.Jne("fail6")
		ulib.Exit(b, 0)
		for i, l := range []string{"fail1", "fail2", "fail3", "fail4", "fail5", "fail6"} {
			b.Label(l)
			b.Nop()
			ulib.Exit(b, int64(i+1))
		}
	})
	if err := sys.Install(tc, "/bin/splin", "splin", prog); err != nil {
		t.Fatal(err)
	}
	p, err := sys.OS.Spawn("/bin/splin", nil, libos.SpawnOpt{})
	if err != nil {
		t.Fatal(err)
	}
	conn := dialSIP(t, sys, port)
	defer conn.Close()
	readFull(t, conn, 1) // SIP passed the EAGAIN probe
	if _, err := conn.Write(payload); err != nil {
		t.Fatal(err)
	}
	conn.CloseWrite() // EOF ends the drain loop
	got := readFull(t, conn, total)
	if status := waitTimeout(t, p, 30*time.Second, "splice-in SIP"); status != 0 {
		t.Fatalf("exit status = %d", status)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("socket→pipe splice corrupted the stream")
	}
}

// spliceLoop emits "while (n = splice(in, out, 1 MiB)) > 0 {}; exit(n)":
// a forwarding stage that moves its input to its output by splice
// alone, exiting 0 at EOF.
func spliceLoop(b *asm.Builder, in, out isa.Reg) {
	b.Label("splice")
	ulib.Splice(b, in, out, 1<<20)
	b.CmpI(isa.R0, 0)
	b.Jg("splice")
	ulib.ExitR(b, isa.R0)
}

// TestSplicePipeToPipe runs a middle pipeline stage between two host
// ends — pipe → stage → pipe — twice: once as workloads.BuildCat (read
// into a guest buffer, write it back out) and once as a stage that
// forwards FilterIn to FilterOut by splice alone, the cat-shaped stage
// ROADMAP asks about. Both must deliver the payload byte-exact and stage
// nothing (BytesCopied 0); the read/write cat lends every byte twice
// (once per direction), the splice cat once, ring to ring. The retired
// guest instructions per MiB of each are logged (EXPERIMENTS.md records
// them): counts, no clock.
func TestSplicePipeToPipe(t *testing.T) {
	const total = 1 << 20
	payload := pat(0x5a, total)
	sys, tc := bootSmall(t, 4, 2, 0, nil)
	defer sys.OS.Shutdown()

	cat, err := workloads.BuildCat()
	if err != nil {
		t.Fatal(err)
	}
	splcat := buildProg(t, func(b *asm.Builder) {
		b.Entry("_start")
		ulib.Prologue(b)
		b.MovRI(isa.R6, workloads.FilterIn)
		b.MovRI(isa.R7, workloads.FilterOut)
		spliceLoop(b, isa.R6, isa.R7)
	})
	// The stages follow the utility convention (fds 60/61); a host spawn
	// can only set 0–2, so a driver dup2s them over and spawns the stage.
	driver := func(stage string) *asm.Program {
		return buildProg(t, func(b *asm.Builder) {
			b.String("stage", stage)
			b.Entry("_start")
			ulib.Prologue(b)
			for fd, to := range []int64{workloads.FilterIn, workloads.FilterOut} {
				b.MovRI(isa.R1, int64(fd))
				b.MovRI(isa.R2, to)
				ulib.Syscall(b, libos.SysDup2)
			}
			ulib.SpawnPath(b, "stage", int64(len(stage)), "", 0)
			b.CmpI(isa.R0, 0)
			b.Jl("fail")
			ulib.Wait4(b, isa.R0)
			ulib.Exit(b, 0)
			b.Label("fail")
			b.Nop()
			ulib.Exit(b, 1)
		})
	}
	for path, p := range map[string]*asm.Program{
		"/bin/cat": cat, "/bin/splcat": splcat,
		"/bin/run-cat": driver("/bin/cat"), "/bin/run-splcat": driver("/bin/splcat"),
	} {
		if err := sys.Install(tc, path, path, p); err != nil {
			t.Fatal(err)
		}
	}

	run := func(stage string) (insts uint64, d libos.NetSnapshot) {
		inR, inW := libos.NewPipe()
		outR, outW := libos.NewPipe()
		netBefore, vmBefore := libos.NetStats(), vm.GlobalCacheStats().Threaded
		p, err := sys.OS.Spawn("/bin/run-"+stage, nil, libos.SpawnOpt{Stdin: inR, Stdout: outW})
		if err != nil {
			t.Fatal(err)
		}
		inR.Unref()
		outW.Unref()
		go func() {
			if _, err := inW.Write(payload); err != nil {
				t.Errorf("%s: feeding the pipe: %v", stage, err)
			}
			inW.Unref()
		}()
		got, err := io.ReadAll(outR)
		outR.Unref()
		if err != nil {
			t.Fatalf("%s: draining the pipe: %v", stage, err)
		}
		if status := waitTimeout(t, p, 30*time.Second, stage+" driver"); status != 0 {
			t.Fatalf("%s: driver exit status = %d", stage, status)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("%s delivered %d bytes, want the %d fed, byte-exact", stage, len(got), total)
		}
		return vm.GlobalCacheStats().Threaded - vmBefore - p.Cycles(), libos.NetStats().Sub(netBefore)
	}
	catInsts, catNet := run("cat")
	splInsts, splNet := run("splcat")
	if catNet.BytesCopied != 0 || splNet.BytesCopied != 0 {
		t.Fatalf("bytes staged through copies: cat %d, splice cat %d, want 0", catNet.BytesCopied, splNet.BytesCopied)
	}
	if catNet.BytesLent != 2*total || splNet.BytesLent != total {
		t.Fatalf("bytes lent: read/write cat %d (want 2× = %d), splice cat %d (want 1× = %d)",
			catNet.BytesLent, 2*total, splNet.BytesLent, total)
	}
	if splNet.Splices == 0 || splInsts >= catInsts {
		t.Fatalf("splice cat: %d splices, %d insts against the read/write cat's %d", splNet.Splices, splInsts, catInsts)
	}
	t.Logf("read/write cat: %d guest insts/MiB, lent %d, copied %d", catInsts, catNet.BytesLent, catNet.BytesCopied)
	t.Logf("splice cat:     %d guest insts/MiB in %d splices, lent %d, copied %d", splInsts, splNet.Splices, splNet.BytesLent, splNet.BytesCopied)
}

// TestSpliceSocketToSocketEcho: an echo server that is nothing but
// splice(conn, conn) — a connection is two streams, so its read side
// moves straight into its write side. 1 MiB through 256 KiB rings parks
// on both an empty source and a full sink; every byte comes back, each
// lent once and none copied.
func TestSpliceSocketToSocketEcho(t *testing.T) {
	const port = 7866
	const total = 1 << 20
	payload := pat(0x17, total)
	sys, tc := bootSmall(t, 4, 2, 0, nil)
	defer sys.OS.Shutdown()
	prog := buildProg(t, func(b *asm.Builder) {
		b.Entry("_start")
		ulib.Prologue(b)
		acceptOn(b, port, "fail")
		spliceLoop(b, isa.R7, isa.R7)
		b.Label("fail")
		b.Nop()
		ulib.Exit(b, 1)
	})
	if err := sys.Install(tc, "/bin/splecho", "splecho", prog); err != nil {
		t.Fatal(err)
	}
	p, err := sys.OS.Spawn("/bin/splecho", nil, libos.SpawnOpt{})
	if err != nil {
		t.Fatal(err)
	}
	conn := dialSIP(t, sys, port)
	defer conn.Close()
	before := libos.NetStats()
	go func() {
		if _, err := conn.Write(payload); err != nil {
			t.Errorf("host write: %v", err)
		}
		conn.CloseWrite()
	}()
	got := readFull(t, conn, total)
	if status := waitTimeout(t, p, 30*time.Second, "splice echo SIP"); status != 0 {
		t.Fatalf("exit status = %d", status)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("socket→socket splice corrupted the echo")
	}
	if d := libos.NetStats().Sub(before); d.BytesCopied != 0 || d.BytesLent != total || d.Splices == 0 {
		t.Fatalf("echo ledger: copied=%d lent=%d splices=%d, want 0, %d, >0", d.BytesCopied, d.BytesLent, d.Splices, total)
	}
}

// TestSpliceRejects: a pipe spliced into itself and a node on either
// side are EINVAL; a pipe end used against its direction is EBADF, as
// for read and write.
func TestSpliceRejects(t *testing.T) {
	sys, tc := bootSmall(t, 4, 2, 0, nil)
	defer sys.OS.Shutdown()
	const pipeR, pipeW, console = isa.R6, isa.R7, isa.R5
	cases := []struct {
		name    string
		in, out isa.Reg
		want    int64
	}{
		{"a pipe into itself", pipeR, pipeW, -libos.EINVAL},
		{"a node as the source", console, pipeW, -libos.EINVAL},
		{"a node as the sink", pipeR, console, -libos.EINVAL},
		{"both pipe ends against their direction", pipeW, pipeR, -libos.EBADF},
	}
	prog := buildProg(t, func(b *asm.Builder) {
		b.Zero("fds", 16)
		b.Entry("_start")
		ulib.Prologue(b)
		ulib.Pipe2(b, "fds")
		for i, c := range cases {
			b.LoadData(pipeR, "fds")
			b.LeaData(pipeW, "fds")
			b.Load(pipeW, isa.Mem(pipeW, 8))
			b.MovRI(console, 1)
			ulib.Splice(b, c.in, c.out, 16)
			b.CmpI(isa.R0, int32(c.want))
			b.Jne(fmt.Sprintf("fail%d", i))
		}
		ulib.Exit(b, 0)
		for i := range cases {
			b.Label(fmt.Sprintf("fail%d", i))
			b.Nop()
			ulib.Exit(b, int64(i+1))
		}
	})
	if err := sys.Install(tc, "/bin/splrej", "splrej", prog); err != nil {
		t.Fatal(err)
	}
	p, err := sys.OS.Spawn("/bin/splrej", nil, libos.SpawnOpt{})
	if err != nil {
		t.Fatal(err)
	}
	if status := waitTimeout(t, p, 30*time.Second, "splice-reject SIP"); status != 0 {
		t.Fatalf("splice of %s: wrong result (exit status %d)", cases[status-1].name, status)
	}
}

// TestPipeNonblock: O_NONBLOCK is honoured on both ends of a pipe by
// read and write, exactly as on a socket — EAGAIN at zero progress, the
// short count otherwise — where it used to be ignored and the SIP
// parked forever on an empty pipe.
func TestPipeNonblock(t *testing.T) {
	const pipeCap = 64 << 10
	sys, tc := bootSmall(t, 4, 2, 0, nil)
	defer sys.OS.Shutdown()
	const pipeR, pipeW = isa.R6, isa.R7
	steps := []struct {
		name string
		no   int64
		fd   isa.Reg
		n    int64
		want int64
	}{
		{"read on an empty pipe", libos.SysRead, pipeR, 8, -libos.EAGAIN},
		{"write of 100 KiB to an empty pipe", libos.SysWrite, pipeW, 100 << 10, pipeCap},
		{"write to a full pipe", libos.SysWrite, pipeW, 1, -libos.EAGAIN},
		{"read of 100 KiB from a full pipe", libos.SysRead, pipeR, 100 << 10, pipeCap},
		{"read on the drained pipe", libos.SysRead, pipeR, 8, -libos.EAGAIN},
	}
	prog := buildProg(t, func(b *asm.Builder) {
		b.Zero("buf", 100<<10)
		b.Zero("fds", 16)
		b.Entry("_start")
		ulib.Prologue(b)
		ulib.Pipe2(b, "fds")
		b.LoadData(pipeR, "fds")
		b.LeaData(pipeW, "fds")
		b.Load(pipeW, isa.Mem(pipeW, 8))
		ulib.FcntlR(b, pipeR, libos.FSetFl, libos.ONonblock)
		ulib.FcntlR(b, pipeW, libos.FSetFl, libos.ONonblock)
		for i, s := range steps {
			b.MovRR(isa.R1, s.fd)
			b.LeaData(isa.R2, "buf")
			b.MovRI(isa.R3, s.n)
			ulib.Syscall(b, s.no)
			b.CmpI(isa.R0, int32(s.want))
			b.Jne(fmt.Sprintf("fail%d", i))
		}
		ulib.Exit(b, 0)
		for i := range steps {
			b.Label(fmt.Sprintf("fail%d", i))
			b.Nop()
			ulib.Exit(b, int64(i+1))
		}
	})
	if err := sys.Install(tc, "/bin/pipenb", "pipenb", prog); err != nil {
		t.Fatal(err)
	}
	p, err := sys.OS.Spawn("/bin/pipenb", nil, libos.SpawnOpt{})
	if err != nil {
		t.Fatal(err)
	}
	if status := waitTimeout(t, p, 30*time.Second, "O_NONBLOCK pipe SIP"); status != 0 {
		t.Fatalf("O_NONBLOCK %s: wrong result (exit status %d)", steps[status-1].name, status)
	}
}

// TestSendfileImageToSocket: sendfile pumps an image-FS file to the
// host twice; both passes are byte-identical, the warm pass re-verifies
// zero Merkle blocks, and every payload byte rides the lent (borrowed
// page-cache) ledger — none through staging copies. A third pass goes
// file → pipe by sendfile and pipe → socket by splice: a pipe is as
// good a sink as a socket, and still nothing is staged.
func TestSendfileImageToSocket(t *testing.T) {
	const port = 7871
	const size = 20000
	payload := pat(0x63, size)

	ib := fs.NewImageBuilder()
	if err := ib.AddFile("/app/big", payload); err != nil {
		t.Fatal(err)
	}
	blob, root, err := ib.Build()
	if err != nil {
		t.Fatal(err)
	}
	host := hostos.New()
	host.WriteFile("base.img", blob)
	var out bytes.Buffer
	os, tc := bootFromImage(t, host, &out, root)
	defer os.Shutdown()

	prog := func(b *asm.Builder) {
		b.String("path", "/app/big")
		b.Zero("goiov", 16)
		b.Zero("gobuf", 8)
		b.Zero("pfds", 16)
		b.Entry("_start")
		ulib.Prologue(b)
		ulib.OpenPath(b, "path", 8, libos.ORdOnly)
		b.CmpI(isa.R0, 0)
		b.Jl("fail1")
		b.MovRR(isa.R6, isa.R0)
		ulib.Socket(b)
		b.MovRR(isa.R5, isa.R0)
		ulib.Bind(b, isa.R5, port)
		ulib.ListenSock(b, isa.R5)
		b.MovRR(isa.R1, isa.R5)
		ulib.Syscall(b, libos.SysAccept)
		b.CmpI(isa.R0, 0)
		b.Jl("fail1")
		b.MovRR(isa.R7, isa.R0)
		// Cold pass: verifies the blocks on first touch.
		ulib.Sendfile(b, isa.R7, isa.R6, 0, size)
		b.CmpI(isa.R0, size)
		b.Jne("fail2")
		// Wait for the host's go byte (readv, to keep the copied
		// ledger at zero) so it can snapshot the verify counter
		// between the passes.
		b.LeaData(isa.R5, "gobuf")
		ulib.IovSetReg(b, "goiov", 0, isa.R5, 1)
		ulib.Readv(b, isa.R7, "goiov", 1)
		b.CmpI(isa.R0, 1)
		b.Jne("fail2")
		// Warm pass: same range, straight from the page cache.
		ulib.Sendfile(b, isa.R7, isa.R6, 0, size)
		b.CmpI(isa.R0, size)
		b.Jne("fail3")
		// Past EOF: sendfile reports 0, not an error.
		ulib.Sendfile(b, isa.R7, isa.R6, size, 4096)
		b.CmpI(isa.R0, 0)
		b.Jne("fail4")
		// A pipe is a sink too (one stream arm): file → pipe by
		// sendfile, pipe → socket by splice, still nothing staged.
		ulib.Pipe2(b, "pfds")
		b.LeaData(isa.R5, "pfds")
		b.Load(isa.R5, isa.Mem(isa.R5, 8))
		ulib.Sendfile(b, isa.R5, isa.R6, 0, size)
		b.CmpI(isa.R0, size)
		b.Jne("fail5")
		b.LoadData(isa.R5, "pfds")
		ulib.Splice(b, isa.R5, isa.R7, size)
		b.CmpI(isa.R0, size)
		b.Jne("fail5")
		ulib.Exit(b, 0)
		for i, l := range []string{"fail1", "fail2", "fail3", "fail4", "fail5"} {
			b.Label(l)
			b.Nop()
			ulib.Exit(b, int64(i+1))
		}
	}
	fsBefore := fs.Stats()
	netBefore := libos.NetStats()
	p, err := buildAndSpawn(t, os, tc, "/bin/sfd", prog)
	if err != nil {
		t.Fatal(err)
	}
	var conn *hostos.Conn
	deadline := time.Now().Add(30 * time.Second)
	for {
		conn, err = host.Dial(port)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("sendfile SIP never started listening")
		}
		time.Sleep(time.Millisecond)
	}
	defer conn.Close()
	cold := readFull(t, conn, size)
	warmBefore := fs.Stats()
	if _, err := conn.Write([]byte("G")); err != nil {
		t.Fatal(err)
	}
	warm := readFull(t, conn, size)
	viaPipe := readFull(t, conn, size)
	if status := waitTimeout(t, p, 30*time.Second, "sendfile SIP"); status != 0 {
		t.Fatalf("exit status = %d", status)
	}
	if !bytes.Equal(cold, payload) || !bytes.Equal(warm, payload) || !bytes.Equal(viaPipe, payload) {
		t.Fatal("sendfile delivered wrong bytes")
	}
	if cd := fs.Stats().Sub(fsBefore); cd.VerifiedBlocks == 0 {
		t.Fatal("cold sendfile pass verified no blocks — not reading through the image layer")
	}
	if wd := fs.Stats().Sub(warmBefore); wd.VerifiedBlocks != 0 {
		t.Fatalf("warm sendfile pass re-verified %d blocks, want 0", wd.VerifiedBlocks)
	}
	nd := libos.NetStats().Sub(netBefore)
	if nd.Sendfiles < 3 {
		t.Fatalf("sendfiles = %d, want >= 3", nd.Sendfiles)
	}
	if nd.BytesLent < 2*size {
		t.Fatalf("sendfile lent %d bytes, want >= %d (page-cache borrow path not taken)", nd.BytesLent, 2*size)
	}
	if nd.BytesCopied != 0 {
		t.Fatalf("sendfile staged %d bytes through copies, want 0", nd.BytesCopied)
	}
}

// TestScalarReadWriteEdges drives the scalar calls through the span
// bodies they now share with readv/writev, one guest program checking
// every row of a table of (call, fd, buffer, count) → result: a
// zero-length read never waits, descriptions of the wrong kind or
// direction are EBADF (the POSIX answer, and readv/writev's), an
// oversized count or a pointer outside the data region is EFAULT, and
// a pipe without a reader is EPIPE. The exit
// status names the first failing row. It then writes 200 KiB to a
// 64 KiB pipe in one call — park, resume, park — and the drain child
// must receive every byte exactly once.
func TestScalarReadWriteEdges(t *testing.T) {
	const port = 7871
	const outside = 1 << 40 // far outside any domain's data region
	payload := pat(0x3c, 200<<10)
	// Registers holding each fd for the table's lifetime.
	const (
		pipeR, pipeW = isa.R6, isa.R7
		listener     = isa.R8
		conn         = isa.R9 // connected, nothing to receive
		epoll        = isa.R10
		noReader     = isa.R11 // write end of a pipe whose reader closed
		unopened     = isa.R4
	)
	cases := []struct {
		name string
		no   int64
		fd   isa.Reg
		addr int64 // 0: the program's buffer
		n    int64
		want int64
	}{
		{"read n=0 on an empty pipe", libos.SysRead, pipeR, 0, 0, 0},
		{"recv n=0 on an empty socket", libos.SysRecv, conn, 0, 0, 0},
		{"write n=0", libos.SysWrite, pipeW, 0, 0, 0},
		{"read on an unopened fd", libos.SysRead, unopened, 0, 8, -libos.EBADF},
		{"write on an unopened fd", libos.SysWrite, unopened, 0, 8, -libos.EBADF},
		{"read on a pipe's write end", libos.SysRead, pipeW, 0, 8, -libos.EBADF},
		{"write on a pipe's read end", libos.SysWrite, pipeR, 0, 8, -libos.EBADF},
		{"read on a listener", libos.SysRead, listener, 0, 8, -libos.EBADF},
		{"write on a listener", libos.SysWrite, listener, 0, 8, -libos.EBADF},
		{"read on an epoll fd", libos.SysRead, epoll, 0, 8, -libos.EBADF},
		{"write on an epoll fd", libos.SysWrite, epoll, 0, 8, -libos.EBADF},
		{"read n > MaxUserBuf", libos.SysRead, pipeR, 0, sysdispatch.MaxUserBuf + 1, -libos.EFAULT},
		{"write n > MaxUserBuf", libos.SysWrite, pipeW, 0, sysdispatch.MaxUserBuf + 1, -libos.EFAULT},
		{"read into a pointer outside the data region", libos.SysRead, pipeR, outside, 8, -libos.EFAULT},
		{"write from a pointer outside the data region", libos.SysWrite, pipeW, outside, 8, -libos.EFAULT},
		{"write to a pipe whose reader closed", libos.SysWrite, noReader, 0, 8, -libos.EPIPE},
	}

	var out syncBuffer
	sys, tc := bootSmall(t, 4, 2, 0, nil)
	defer sys.OS.Shutdown()
	drain := buildProg(t, func(b *asm.Builder) {
		b.Zero("buf", 4096)
		b.Entry("_start")
		ulib.Prologue(b)
		b.MovRI(isa.R1, 61)
		ulib.Syscall(b, libos.SysClose)
		b.Label("loop")
		b.LeaData(isa.R2, "buf")
		b.MovRI(isa.R3, 4096)
		ulib.Read(b, 60, isa.R2, isa.R3)
		b.CmpI(isa.R0, 0)
		b.Jle("done")
		b.MovRR(isa.R3, isa.R0)
		b.LeaData(isa.R2, "buf")
		ulib.Write(b, 1, isa.R2, isa.R3)
		b.Jmp("loop")
		b.Label("done")
		b.Nop()
		ulib.Exit(b, 0)
	})
	prog := buildProg(t, func(b *asm.Builder) {
		b.Bytes("buf", payload)
		b.Zero("fds", 16)
		b.String("drain", "/bin/drain")
		b.Entry("_start")
		ulib.Prologue(b)
		loadFDs := func(r, w isa.Reg) {
			ulib.Pipe2(b, "fds")
			b.LoadData(r, "fds")
			b.LeaData(w, "fds")
			b.Load(w, isa.Mem(w, 8))
		}
		loadFDs(pipeR, pipeW)
		loadFDs(isa.R1, noReader)
		ulib.Syscall(b, libos.SysClose)
		ulib.Socket(b)
		b.MovRR(listener, isa.R0)
		ulib.Bind(b, listener, port)
		ulib.ListenSock(b, listener)
		ulib.Socket(b)
		b.MovRR(conn, isa.R0)
		ulib.Connect(b, conn, port)
		ulib.EpCreate(b)
		b.MovRR(epoll, isa.R0)
		b.MovRI(unopened, 999)
		for i, c := range cases {
			b.MovRR(isa.R1, c.fd)
			if c.addr == 0 {
				b.LeaData(isa.R2, "buf")
			} else {
				b.MovRI(isa.R2, c.addr)
			}
			b.MovRI(isa.R3, c.n)
			ulib.Syscall(b, c.no)
			b.CmpI(isa.R0, int32(c.want))
			b.Jne(fmt.Sprintf("fail%d", i))
		}
		// One 200 KiB write into the 64 KiB ring, drained by a child.
		b.MovRI(isa.R5, 60)
		ulib.Dup2(b, pipeR, isa.R5)
		ulib.Close(b, pipeR)
		b.MovRI(isa.R5, 61)
		ulib.Dup2(b, pipeW, isa.R5)
		ulib.Close(b, pipeW)
		ulib.Close(b, noReader)
		ulib.SpawnPath(b, "drain", 10, "", 0)
		b.MovRR(isa.R6, isa.R0)
		b.MovRI(isa.R1, 60)
		ulib.Syscall(b, libos.SysClose)
		ulib.WriteStr(b, 61, "buf", int64(len(payload)))
		b.CmpI(isa.R0, int32(len(payload)))
		b.Jne(fmt.Sprintf("fail%d", len(cases)))
		b.MovRI(isa.R1, 61)
		ulib.Syscall(b, libos.SysClose)
		ulib.Wait4(b, isa.R6)
		ulib.Exit(b, 0)
		for i := 0; i <= len(cases); i++ {
			b.Label(fmt.Sprintf("fail%d", i))
			b.Nop()
			ulib.Exit(b, int64(i+1))
		}
	})
	for path, p := range map[string]*asm.Program{"/bin/drain": drain, "/bin/edges": prog} {
		if err := sys.Install(tc, path, path, p); err != nil {
			t.Fatal(err)
		}
	}
	p, err := sys.OS.Spawn("/bin/edges", nil, libos.SpawnOpt{Stdout: libos.NewWriterFile(&out)})
	if err != nil {
		t.Fatal(err)
	}
	switch status := waitTimeout(t, p, 30*time.Second, "scalar edge-case SIP"); {
	case status == len(cases)+1:
		t.Fatal("200 KiB write to a 64 KiB pipe did not report every byte written")
	case status != 0:
		t.Fatalf("%s: wrong result (exit status %d)", cases[status-1].name, status)
	}
	if got := out.snapshot(); !bytes.Equal(got, payload) {
		t.Fatalf("drain received %d bytes, want the %d written, each once", len(got), len(payload))
	}
}
