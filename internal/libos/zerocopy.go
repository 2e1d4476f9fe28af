package libos

// This file is the LibOS half of the zero-copy data plane: vectored
// read/write over guest-memory loans, sendfile from the ImageFS
// verified page cache, and splice between stream rings.
//
// Copy discipline (the numbers -stats reports as BytesLent vs
// BytesCopied):
//
//   - read/write/send/recv and readv/writev share one body per
//     direction (readSpans/writeSpans; a scalar call is a one-span
//     vector). It lends the guest spans in place (mem.ViewBytes) and
//     moves them with exactly one copy, guest memory ↔ ring/file.
//   - sendfile lends verified image-cache blocks straight into the
//     socket ring: zero guest-memory traffic, one in-enclave copy into
//     the ring. Non-image nodes fall back to a staging read — the only
//     bytes-copied traffic left.
//   - splice moves bytes ring-to-ring (ring.Move) between any two
//     stream ends, pipe or socket: no guest memory, no staging buffer —
//     bytes-copied stays 0.
//
// Loan lifetime: a loan never crosses a park. A parked syscall
// re-dispatches from scratch and re-takes its loans, so the only
// revocation window is within one dispatch attempt; CommitWrite still
// re-validates every write loan against the page-generation stamps, so
// a remap concurrent with the fill surfaces as EFAULT instead of
// publishing bytes under a dead mapping.

import (
	"io"
	"sync/atomic"

	"repro/internal/fs"
	"repro/internal/mem"
	"repro/internal/ring"
	"repro/internal/sysdispatch"
)

// viewUserBytes lends [addr, addr+n) of the calling SIP's data region
// as a mem.View — the data path's replacement for readUserBytes'
// copy-out. The domain-region check is the same; page permissions are
// additionally enforced by the loan (readUserBytes' ReadDirect is blind
// to them), so a span over unmapped guard pages faults here.
func (p *Proc) viewUserBytes(addr, n uint64, access mem.Access) (mem.View, bool) {
	if n > sysdispatch.MaxUserBuf || !p.inData(addr, n) {
		return mem.View{}, false
	}
	v, f := p.os.enclave.ViewBytes(addr, int(n), access)
	if f != nil {
		return mem.View{}, false
	}
	return v, true
}

// sysWritev is writev(fd, iovPtr, iovCnt); sysReadv is readv. Both
// unmarshal the iovec array and run the span bodies below, counting a
// completed call (any result the guest sees that is not an error) in
// the writevs/readvs ledger — scalar calls run the same bodies and are
// not counted.
func sysWritev(k sysdispatch.Kernel, a *[5]uint64) sysdispatch.Result {
	return vectored(k.(*Proc), a, true)
}

func sysReadv(k sysdispatch.Kernel, a *[5]uint64) sysdispatch.Result {
	return vectored(k.(*Proc), a, false)
}

func vectored(p *Proc, a *[5]uint64, write bool) sysdispatch.Result {
	of, ok := p.getFD(int(int64(a[0])))
	if !ok {
		return sysdispatch.Errno(EBADF)
	}
	// The span bodies are called directly, not through a func value,
	// so the decoded array stays in this frame.
	var scratch [sysdispatch.IovMax]sysdispatch.Iovec
	iov, e := sysdispatch.ReadIovec(p, a[1], a[2], &scratch)
	if e != 0 {
		return sysdispatch.Ok(e)
	}
	var r sysdispatch.Result
	calls := &netStats.Readvs
	if write {
		r, calls = p.writeSpans(of, iov), &netStats.Writevs
	} else {
		r = p.readSpans(of, iov)
	}
	if !r.Parked && r.Ret >= 0 {
		atomic.AddUint64(calls, 1)
	}
	return r
}

// writeSpans is the one write path of the LibOS: gather-write the spans
// in order to a stream (pipe or socket) or a node, lending each span
// from guest memory instead of staging it. A stream parks the caller
// when its ring is full, and partial progress composes with the
// park/resume protocol — cursys.prog records bytes already queued, and
// every re-dispatch re-lends only the unsent remainder, so no byte is
// sent twice. Under O_NONBLOCK it returns the partial count, or EAGAIN
// when nothing fit. A faulting span returns the bytes written before
// it, or EFAULT when it comes first.
func (p *Proc) writeSpans(of *OpenFile, iov []sysdispatch.Iovec) sysdispatch.Result {
	_, wr := of.streams()
	if wr == nil && of.kind != kindNode {
		return sysdispatch.Errno(noStream(of))
	}
	cur := p.cursys
	wait := p.wake
	if of.nonblock.Load() {
		wait = nil
	}
	skip := uint64(cur.prog)
	for _, seg := range iov {
		if skip >= seg.Len {
			skip -= seg.Len
			continue
		}
		v, ok := p.viewUserBytes(seg.Base+skip, seg.Len-skip, mem.AccessRead)
		skip = 0
		if !ok {
			if cur.prog > 0 {
				break
			}
			return sysdispatch.Errno(EFAULT)
		}
		var (
			wn                 int
			closed, wouldBlock bool
		)
		if wr != nil {
			wn, closed, wouldBlock = wr.TryWrite(v.B, wait)
			if wn > 0 {
				of.touch(p.os.timers)
			}
		} else {
			var werr error
			wn, werr = of.Write(v.B)
			closed = werr != nil && wn == 0
		}
		atomic.AddUint64(&netStats.BytesLent, uint64(wn))
		cur.prog += int64(wn)
		if closed {
			if cur.prog > 0 {
				break
			}
			return sysdispatch.Errno(EPIPE)
		}
		if wouldBlock {
			if wait == nil {
				if cur.prog > 0 {
					break
				}
				atomic.AddUint64(&netStats.EAgains, 1)
				return sysdispatch.Errno(EAGAIN)
			}
			if of.kind == kindSock {
				atomic.AddUint64(&netStats.SendParks, 1)
			}
			return sysdispatch.ParkedResult
		}
	}
	return sysdispatch.Ok(cur.prog)
}

// noStream is the errno for a data call on a description that lacks the
// stream direction it needs: an unconnected socket is ENOTCONN, anything
// else (a pipe's other end, a listener, an epoll fd) EBADF.
func noStream(of *OpenFile) int64 {
	if of.kind == kindSock {
		return ENOTCONN
	}
	return EBADF
}

// readSpans is the one read path of the LibOS: scatter-read into the
// spans, lending each span writable and committing the fill through
// the loan protocol (a span remapped mid-fill fails EFAULT instead of
// landing bytes under the new mapping). It returns as soon as at least
// one byte arrived and parks (or EAGAINs under O_NONBLOCK) only when
// nothing is available; empty spans are skipped, so a zero-length read
// returns 0 without waiting.
func (p *Proc) readSpans(of *OpenFile, iov []sysdispatch.Iovec) sysdispatch.Result {
	rd, _ := of.streams()
	if rd == nil && of.kind != kindNode {
		return sysdispatch.Errno(noStream(of))
	}
	nonblock := of.nonblock.Load()

	var total int64
	for _, seg := range iov {
		if seg.Len == 0 {
			continue
		}
		v, ok := p.viewUserBytes(seg.Base, seg.Len, mem.AccessWrite)
		if !ok {
			if total > 0 {
				break
			}
			return sysdispatch.Errno(EFAULT)
		}
		// Only the first span may park: once bytes have landed, an
		// empty buffer means "return the short count", so later spans
		// probe with a nil wait.
		wait := p.wake
		if nonblock || total > 0 {
			wait = nil
		}
		var (
			rn         int
			eof, stall bool
		)
		if rd != nil {
			rn, eof, stall = rd.TryRead(v.B, wait)
			if rn > 0 {
				of.touch(p.os.timers)
			}
		} else {
			var rerr error
			rn, rerr = of.Read(v.B)
			if rerr != nil && rerr != io.EOF && rn == 0 {
				if total > 0 {
					return sysdispatch.Ok(total)
				}
				return sysdispatch.Errno(EIO)
			}
			eof = rerr == io.EOF
		}
		if stall {
			if total > 0 {
				break
			}
			if nonblock {
				atomic.AddUint64(&netStats.EAgains, 1)
				return sysdispatch.Errno(EAGAIN)
			}
			if of.kind == kindSock {
				atomic.AddUint64(&netStats.RecvParks, 1)
			}
			return sysdispatch.ParkedResult
		}
		if rn > 0 && !v.CommitWrite(rn) {
			// The span was remapped while the fill was in flight; the
			// loan died, and so must the syscall's claim on it.
			return sysdispatch.Errno(EFAULT)
		}
		atomic.AddUint64(&netStats.BytesLent, uint64(rn))
		total += int64(rn)
		if eof || rn < len(v.B) {
			break
		}
	}
	return sysdispatch.Ok(total)
}

// sysSendfile is sendfile(outfd, infd, off, count): pump file bytes to
// a stream (socket or pipe) without guest memory in the path.
// Image-backed nodes lend verified page-cache blocks directly into the
// stream's ring (counted as bytes-lent; lazy Merkle verification is
// untouched — a warm file re-verifies nothing); other nodes stage
// through a bounded temp buffer (bytes-copied). Returns the short count
// when the stream backpressures, parks (or EAGAINs) only when nothing
// was sent.
func sysSendfile(k sysdispatch.Kernel, a *[5]uint64) sysdispatch.Result {
	p := k.(*Proc)
	oof, ok := p.getFD(int(int64(a[0])))
	if !ok {
		return sysdispatch.Errno(EBADF)
	}
	inof, ok := p.getFD(int(int64(a[1])))
	if !ok || inof.kind != kindNode {
		return sysdispatch.Errno(EBADF)
	}
	off, count := int64(a[2]), int64(a[3])
	if off < 0 || count < 0 {
		return sysdispatch.Errno(EINVAL)
	}
	_, wr := oof.streams()
	if wr == nil {
		return sysdispatch.Errno(noStream(oof))
	}
	wait := p.wake
	if oof.nonblock.Load() {
		wait = nil
	}
	br, borrow := inof.node.(fs.BorrowReader)

	var sent int64
	var staging []byte
	for sent < count {
		var chunk []byte
		if borrow {
			b, err := br.ReadBorrow(off+sent, int(count-sent))
			if err != nil {
				if sent > 0 {
					break
				}
				return sysdispatch.Ok(errno(err))
			}
			chunk = b
		} else {
			if staging == nil {
				staging = make([]byte, min(64<<10, int(count)))
			}
			want := staging[:min(len(staging), int(count-sent))]
			rn, err := inof.node.ReadAt(want, off+sent)
			if err != nil && rn == 0 {
				if sent > 0 {
					break
				}
				return sysdispatch.Ok(errno(err))
			}
			chunk = want[:rn]
		}
		if len(chunk) == 0 {
			break // EOF
		}
		w := wait
		if sent > 0 {
			w = nil
		}
		wn, closed, wouldBlock := wr.TryWrite(chunk, w)
		if borrow {
			atomic.AddUint64(&netStats.BytesLent, uint64(wn))
		} else {
			atomic.AddUint64(&netStats.BytesCopied, uint64(wn))
		}
		if wn > 0 {
			oof.touch(p.os.timers)
		}
		sent += int64(wn)
		if closed {
			if sent > 0 {
				break
			}
			return sysdispatch.Errno(EPIPE)
		}
		if wouldBlock {
			if sent > 0 {
				break
			}
			if wait == nil {
				atomic.AddUint64(&netStats.EAgains, 1)
				return sysdispatch.Errno(EAGAIN)
			}
			if oof.kind == kindSock {
				atomic.AddUint64(&netStats.SendParks, 1)
			}
			return sysdispatch.ParkedResult
		}
	}
	atomic.AddUint64(&netStats.Sendfiles, 1)
	return sysdispatch.Ok(sent)
}

// sysSplice is splice(fdIn, fdOut, count): move up to count bytes from
// the stream fdIn reads to the stream fdOut writes — pipe or socket on
// either side — with the bytes never entering guest memory: one
// ring.Move, ring to ring. It returns as soon as at least one byte
// moved and 0 at source EOF; with nothing movable it parks on
// whichever side stalled (source empty or sink full), or returns EAGAIN
// when either description is O_NONBLOCK. Splicing a pipe into itself,
// or a node on either side, is EINVAL.
func sysSplice(k sysdispatch.Kernel, a *[5]uint64) sysdispatch.Result {
	p := k.(*Proc)
	inof, ok := p.getFD(int(int64(a[0])))
	if !ok {
		return sysdispatch.Errno(EBADF)
	}
	outof, ok := p.getFD(int(int64(a[1])))
	if !ok {
		return sysdispatch.Errno(EBADF)
	}
	count := int64(a[2])
	if count < 0 || inof.kind == kindNode || outof.kind == kindNode {
		return sysdispatch.Errno(EINVAL)
	}
	if count == 0 {
		return sysdispatch.Ok(0)
	}
	src, _ := inof.streams()
	if src == nil {
		return sysdispatch.Errno(noStream(inof))
	}
	_, dst := outof.streams()
	if dst == nil {
		return sysdispatch.Errno(noStream(outof))
	}
	if src == dst {
		return sysdispatch.Errno(EINVAL)
	}
	wait := p.wake
	if inof.nonblock.Load() || outof.nonblock.Load() {
		wait = nil
	}
	n, st := ring.Move(dst, src, int(count), wait)
	switch st {
	case ring.DstClosed:
		return sysdispatch.Errno(EPIPE)
	case ring.SrcEmpty, ring.DstFull:
		if wait == nil {
			atomic.AddUint64(&netStats.EAgains, 1)
			return sysdispatch.Errno(EAGAIN)
		}
		if st == ring.SrcEmpty && inof.kind == kindSock {
			atomic.AddUint64(&netStats.RecvParks, 1)
		} else if st == ring.DstFull && outof.kind == kindSock {
			atomic.AddUint64(&netStats.SendParks, 1)
		}
		return sysdispatch.ParkedResult
	}
	if n > 0 {
		atomic.AddUint64(&netStats.BytesLent, uint64(n))
		inof.touch(p.os.timers)
		outof.touch(p.os.timers)
	}
	atomic.AddUint64(&netStats.Splices, 1)
	return sysdispatch.Ok(int64(n))
}
