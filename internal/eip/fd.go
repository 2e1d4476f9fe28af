package eip

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"io"
	"sync"
)

// seal encrypts-and-authenticates data with AES-GCM under a key derived
// from key32, binding the associated data. This is the cryptography every
// EIP boundary crossing pays.
func seal(key32 [32]byte, ad, data []byte) []byte {
	block, err := aes.NewCipher(key32[:16])
	if err != nil {
		panic(err)
	}
	gcm, err := cipher.NewGCM(block)
	if err != nil {
		panic(err)
	}
	nonce := make([]byte, gcm.NonceSize())
	sum := sha256.Sum256(append(append([]byte{}, ad...), data...))
	copy(nonce, sum[:])
	out := make([]byte, 0, gcm.NonceSize()+len(data)+gcm.Overhead())
	out = append(out, nonce...)
	return gcm.Seal(out, nonce, data, ad)
}

// open verifies and decrypts a sealed buffer.
func open(key32 [32]byte, ad, sealed []byte) ([]byte, error) {
	block, err := aes.NewCipher(key32[:16])
	if err != nil {
		return nil, err
	}
	gcm, err := cipher.NewGCM(block)
	if err != nil {
		return nil, err
	}
	if len(sealed) < gcm.NonceSize() {
		return nil, errors.New("eip: sealed buffer too short")
	}
	return gcm.Open(nil, sealed[:gcm.NonceSize()], sealed[gcm.NonceSize():], ad)
}

// roFile is an open read-only protected file, fully unsealed at open (the
// per-open decryption cost of protected files). It is the fs.Node behind
// a libos.OpenFile, which supplies the offset and reference count.
type roFile struct{ data []byte }

func (f roFile) ReadAt(p []byte, off int64) (int, error) {
	if off >= int64(len(f.data)) {
		return 0, nil
	}
	return copy(p, f.data[off:]), nil
}
func (roFile) WriteAt([]byte, int64) (int, error) {
	return 0, errors.New("eip: read-only filesystem")
}
func (f roFile) Size() int64 { return int64(len(f.data)) }
func (roFile) Close() error  { return nil }

// encPipe is the EIP pipe: a queue of AES-GCM sealed messages standing in
// untrusted memory between two enclaves. Every write seals; every read
// unseals — the paper's expensive cross-enclave IPC.
type encPipe struct {
	mu      sync.Mutex
	cond    *sync.Cond
	key     [32]byte
	seq     uint64
	rseq    uint64
	queue   [][]byte // sealed chunks in "untrusted memory"
	residue []byte   // unsealed bytes not yet consumed
	rClosed bool
	wClosed bool
}

// newEncPipe returns the two ends of a fresh pipe, one reference each.
func newEncPipe(key [32]byte) (r, w *encPipeEnd) {
	ep := &encPipe{key: key}
	ep.cond = sync.NewCond(&ep.mu)
	return &encPipeEnd{p: ep, refs: 1}, &encPipeEnd{p: ep, refs: 1, writing: true}
}

// encPipeEnd is one end of an encPipe as a sysdispatch.File: shared by
// dup2 and spawn inheritance through Ref, and closed — EOF for the
// reader, broken pipe for the writer — when the last fd drops it.
type encPipeEnd struct {
	p       *encPipe
	writing bool
	refs    int // guarded by p.mu
}

func (e *encPipeEnd) Read(p []byte) (int, error) {
	if e.writing {
		return 0, errors.New("eip: write end")
	}
	ep := e.p
	ep.mu.Lock()
	defer ep.mu.Unlock()
	for len(ep.residue) == 0 && len(ep.queue) == 0 && !ep.wClosed {
		ep.cond.Wait()
	}
	if len(ep.residue) == 0 && len(ep.queue) > 0 {
		sealed := ep.queue[0]
		ep.queue = ep.queue[1:]
		var ad [8]byte
		binary.LittleEndian.PutUint64(ad[:], ep.rseq)
		ep.rseq++
		pt, err := open(ep.key, ad[:], sealed)
		if err != nil {
			return 0, errors.New("eip: pipe message corrupted in untrusted memory")
		}
		ep.residue = pt
	}
	if len(ep.residue) == 0 {
		return 0, io.EOF
	}
	n := copy(p, ep.residue)
	ep.residue = ep.residue[n:]
	ep.cond.Broadcast()
	return n, nil
}

const encPipeMaxQueue = 64

func (e *encPipeEnd) Write(p []byte) (int, error) {
	if !e.writing {
		return 0, errors.New("eip: read end")
	}
	ep := e.p
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if ep.rClosed {
		return 0, errors.New("eip: broken pipe")
	}
	for len(ep.queue) >= encPipeMaxQueue && !ep.rClosed {
		ep.cond.Wait()
	}
	var ad [8]byte
	binary.LittleEndian.PutUint64(ad[:], ep.seq)
	ep.seq++
	ep.queue = append(ep.queue, seal(ep.key, ad[:], p))
	ep.cond.Broadcast()
	return len(p), nil
}

func (e *encPipeEnd) Seek(int64, int) (int64, error) {
	return 0, errors.New("eip: pipe is not seekable")
}

func (e *encPipeEnd) Ref() {
	e.p.mu.Lock()
	e.refs++
	e.p.mu.Unlock()
}

func (e *encPipeEnd) Unref() {
	ep := e.p
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if e.refs--; e.refs > 0 {
		return
	}
	if e.writing {
		ep.wClosed = true
	} else {
		ep.rClosed = true
	}
	ep.cond.Broadcast()
}
