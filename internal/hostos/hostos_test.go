package hostos

import (
	"bytes"
	"io"
	"runtime"
	"sync"
	"testing"
)

func TestFileStorage(t *testing.T) {
	h := New()
	h.WriteFile("img", []byte("hello"))
	got, err := h.ReadFile("img")
	if err != nil || string(got) != "hello" {
		t.Fatalf("ReadFile = %q, %v", got, err)
	}
	if _, err := h.ReadFile("missing"); err == nil {
		t.Fatal("missing file should error")
	}
	h.WriteFileAt("img", 8, []byte("world"))
	if h.FileSize("img") != 13 {
		t.Fatalf("size = %d, want 13", h.FileSize("img"))
	}
	buf := make([]byte, 5)
	n, err := h.ReadFileAt("img", 8, buf)
	if err != nil || n != 5 || string(buf) != "world" {
		t.Fatalf("ReadFileAt = %d %q %v", n, buf, err)
	}
	h.RemoveFile("img")
	if _, err := h.ReadFile("img"); err == nil {
		t.Fatal("removed file should be gone")
	}
}

// TestWriteFileAtGrowthIsAmortised: a file built by ascending block
// writes is copied a constant number of times per byte (the allocator's
// ledger says so, no clock involved), and the capacity behind that is
// never visible: every reader and every fault sees len.
func TestWriteFileAtGrowthIsAmortised(t *testing.T) {
	const writes, chunk = 2048, 4096
	const final = writes * chunk
	h := New()
	buf := bytes.Repeat([]byte{0xAB}, chunk)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < writes; i++ {
		h.WriteFileAt("grow", i*chunk, buf)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 6*final {
		t.Errorf("growing to %d bytes in %d writes allocated %d bytes (%.1f×), want ≤ 6×",
			final, writes, got, float64(got)/final)
	}
	if n := h.FileSize("grow"); n != final {
		t.Fatalf("FileSize = %d, want %d", n, final)
	}
	if data, _ := h.ReadFile("grow"); len(data) != final || !bytes.Equal(data[final-chunk:], buf) {
		t.Fatalf("ReadFile returned %d bytes, want %d ending in the last write", len(data), final)
	}

	// A write that leaves slack, then a sparse write inside it: the gap
	// reads zero, and nothing past len can be read, flipped or rotted.
	h.WriteFileAt("sp", 0, buf)
	h.WriteFileAt("sp", chunk+900, []byte{7})
	const size = chunk + 901
	got := make([]byte, size+64)
	if n, _ := h.ReadFileAt("sp", 0, got); n != size {
		t.Fatalf("ReadFileAt saw %d bytes, want %d", n, size)
	}
	if !bytes.Equal(got[chunk:chunk+900], make([]byte, 900)) || got[chunk+900] != 7 {
		t.Fatal("the tail a sparse write exposed does not read zero")
	}
	if h.FileSize("sp") != size || len(h.CopyFiles("sp")["sp"]) != size {
		t.Fatalf("FileSize %d / CopyFiles %d, want %d", h.FileSize("sp"), len(h.CopyFiles("sp")["sp"]), size)
	}
	if err := h.FlipBit("sp", size); err == nil {
		t.Fatal("FlipBit reached past the end of the file")
	}
	if n := h.CorruptFiles("sp", size, 0, 8, 1); n != 0 {
		t.Fatalf("CorruptFiles flipped %d bits past the end of the file", n)
	}
}

func TestTamper(t *testing.T) {
	h := New()
	h.WriteFile("f", []byte{1, 2, 3})
	if err := h.FlipBit("f", 1); err != nil {
		t.Fatal(err)
	}
	got, _ := h.ReadFile("f")
	if got[1] == 2 {
		t.Fatal("tamper had no effect")
	}
}

func TestFutex(t *testing.T) {
	h := New()
	const key = 0x1000
	var wg sync.WaitGroup
	woken := make(chan int, 3)
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			h.FutexWait(key)
			woken <- id
		}(i)
	}
	// Give the waiters a chance to queue (the test is cooperative: wake
	// until all three report).
	total := 0
	for total < 3 {
		total += h.FutexWake(key, 1)
	}
	wg.Wait()
	if len(woken) != 3 {
		t.Fatalf("woken = %d", len(woken))
	}
	if h.FutexWake(key, 10) != 0 {
		t.Fatal("no waiters should remain")
	}
}

func TestNetConnectivity(t *testing.T) {
	h := New()
	l, err := h.Listen(8000)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		c, err := l.Accept()
		if err != nil {
			t.Error(err)
			return
		}
		buf := make([]byte, 4)
		if _, err := io.ReadFull(c, buf); err != nil {
			t.Error(err)
			return
		}
		c.Write(bytes.ToUpper(buf))
		c.Close()
	}()

	c, err := h.Dial(8000)
	if err != nil {
		t.Fatal(err)
	}
	c.Write([]byte("ping"))
	buf := make([]byte, 4)
	if _, err := io.ReadFull(c, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "PING" {
		t.Fatalf("echo = %q", buf)
	}
	<-done
}

func TestNetErrors(t *testing.T) {
	h := New()
	if _, err := h.Dial(9999); err != ErrConnRefused {
		t.Fatalf("dial no listener: %v", err)
	}
	l, _ := h.Listen(9000)
	if _, err := h.Listen(9000); err != ErrPortInUse {
		t.Fatalf("double listen: %v", err)
	}
	l.Close()
	if _, err := h.Listen(9000); err != nil {
		t.Fatalf("listen after close: %v", err)
	}
	if _, err := l.Accept(); err != ErrClosed {
		t.Fatalf("accept on closed: %v", err)
	}
}

func TestConnEOFAfterClose(t *testing.T) {
	h := New()
	l, _ := h.Listen(8001)
	defer l.Close()
	go func() {
		c, _ := l.Accept()
		c.Write([]byte("bye"))
		c.Close()
	}()
	c, err := h.Dial(8001)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(connReader{c})
	if err != nil || string(data) != "bye" {
		t.Fatalf("ReadAll = %q, %v", data, err)
	}
}

type connReader struct{ c *Conn }

func (r connReader) Read(p []byte) (int, error) { return r.c.Read(p) }

func TestShm(t *testing.T) {
	h := New()
	h.ShmWrite("msg", []byte{9})
	got, ok := h.ShmRead("msg")
	if !ok || got[0] != 9 {
		t.Fatalf("shm = %v %v", got, ok)
	}
	if _, ok := h.ShmRead("none"); ok {
		t.Fatal("absent shm key should miss")
	}
}
