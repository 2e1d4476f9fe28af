package hostos

import (
	"bytes"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/timers"
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
// writes allocates its bytes once (the allocator's ledger says so, no
// clock involved): at most the final size plus one extent, whatever the
// number of writes. Every reader sees exactly the file's size.
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
	if got := after.TotalAlloc - before.TotalAlloc; got > final+extentSize {
		t.Errorf("growing to %d bytes in %d writes allocated %d bytes (%.2f×), want ≤ %d (the size plus one extent)",
			final, writes, got, float64(got)/final, final+extentSize)
	}
	if n := h.FileSize("grow"); n != final {
		t.Fatalf("FileSize = %d, want %d", n, final)
	}
	if data, _ := h.ReadFile("grow"); len(data) != final || !bytes.Equal(data[final-chunk:], buf) {
		t.Fatalf("ReadFile returned %d bytes, want %d ending in the last write", len(data), final)
	}

	// A sparse write past the end of a partly filled extent: the gap
	// reads zero, and nothing past the size can be read.
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
	if data, _ := h.ReadFile("sp"); h.FileSize("sp") != size || len(data) != size {
		t.Fatalf("FileSize %d / ReadFile %d, want %d", h.FileSize("sp"), len(data), size)
	}
}

// TestWriteFileAtReadsBack checks each kind of write against a plain
// model of the file: an overwrite in place, a growing write, sparse
// writes past the end (within an extent, and leaving whole extents as
// holes), writes into a gap and into a hole, a write straddling an
// extent boundary, and an empty write that creates a file. Each step
// reads the file back whole, and in pieces that cross extent
// boundaries.
func TestWriteFileAtReadsBack(t *testing.T) {
	h := New()
	var model []byte
	write := func(what string, off int, p []byte) {
		t.Helper()
		if err := h.WriteFileAt("f", off, p); err != nil {
			t.Fatal(err)
		}
		if need := off + len(p); need > len(model) {
			model = append(model, make([]byte, need-len(model))...)
		}
		copy(model[off:], p)
		got, err := h.ReadFile("f")
		if err != nil || !bytes.Equal(got, model) || h.FileSize("f") != len(model) {
			t.Fatalf("after %s: read %d bytes (%v), size %d, want the model's %d", what, len(got), err, h.FileSize("f"), len(model))
		}
		for off := 0; off < len(model); off += 5000 {
			piece := make([]byte, 7000)
			n, err := h.ReadFileAt("f", off, piece)
			if want := min(len(piece), len(model)-off); err != nil || n != want || !bytes.Equal(piece[:n], model[off:off+n]) {
				t.Fatalf("after %s: ReadFileAt(%d) = %d, %v; want the model's %d bytes", what, off, n, err, want)
			}
		}
	}
	extents := func() int {
		h.mu.Lock()
		defer h.mu.Unlock()
		n := 0
		for _, e := range h.files["f"].ext {
			if e != nil {
				n++
			}
		}
		return n
	}
	write("a first write", 0, bytes.Repeat([]byte{1}, 100))
	write("an overwrite in place", 10, bytes.Repeat([]byte{2}, 50))
	write("an overwrite of the last byte", 99, []byte{3})
	write("a growing write", 90, bytes.Repeat([]byte{4}, 30))
	write("a sparse write past the end", 300, []byte{5, 6, 7})
	write("an overwrite inside the gap", 200, []byte{8})
	write("a growing write by one byte", 303, []byte{9})
	write("a write straddling an extent boundary", extentSize-10, bytes.Repeat([]byte{10}, 30))
	if n := extents(); n != 2 {
		t.Fatalf("%d extents after writes to two, want 2", n)
	}
	write("a sparse write leaving a whole-extent hole", 3*extentSize+5, bytes.Repeat([]byte{11}, 20))
	if n := extents(); n != 3 {
		t.Fatalf("%d extents after a write past a hole, want 3: the hole allocates none", n)
	}
	write("a write into the hole", 2*extentSize+100, []byte{12, 13})
	if n := extents(); n != 4 {
		t.Fatalf("%d extents after a write into the hole, want 4", n)
	}

	// No slice a caller holds aliases a stored file.
	data := bytes.Repeat([]byte{1}, 2*extentSize+3)
	h.WriteFile("iso", data)
	data[0], data[extentSize], data[len(data)-1] = 9, 9, 9
	got, _ := h.ReadFile("iso")
	if !bytes.Equal(got, bytes.Repeat([]byte{1}, 2*extentSize+3)) {
		t.Fatal("changing the slice passed to WriteFile changed the stored file")
	}
	got[0], got[extentSize], got[len(got)-1] = 9, 9, 9
	if again, _ := h.ReadFile("iso"); !bytes.Equal(again, bytes.Repeat([]byte{1}, 2*extentSize+3)) {
		t.Fatal("changing the slice ReadFile returned changed the stored file")
	}
	p := []byte{4, 4}
	h.WriteFileAt("iso", 10, p)
	p[0] = 9
	b := make([]byte, 2)
	if h.ReadFileAt("iso", 10, b); b[0] != 4 {
		t.Fatal("changing the slice passed to WriteFileAt changed the stored file")
	}

	if _, err := h.ReadFile("empty"); err == nil {
		t.Fatal(`"empty" exists before its first write`)
	}
	if err := h.WriteFileAt("empty", 0, nil); err != nil {
		t.Fatal(err)
	}
	if got, err := h.ReadFile("empty"); err != nil || len(got) != 0 {
		t.Fatalf("an empty write to a new name: read %q, %v; want an empty file", got, err)
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

// TestFutexQueuesDeletedWhenEmpty checks that a key's queue goes when
// its last waiter leaves, by wake or by cancel: the guest picks futex
// addresses, so a queue per address ever used would grow without bound.
func TestFutexQueuesDeletedWhenEmpty(t *testing.T) {
	h := New()
	const keys = 64
	var regs [keys][2]*FutexReg
	woken := 0
	for k := range keys {
		for j := range regs[k] {
			regs[k][j] = h.FutexSubscribe(uint64(k)<<12, func() { woken++ })
		}
	}
	for k := range keys {
		key := uint64(k) << 12
		switch {
		case k%2 == 0: // wake half: one at a time, then cancel after the wake
			h.FutexWake(key, 1)
			if len(h.futexes[key]) != 1 || h.futexes[key][0] != regs[k][1] {
				t.Fatalf("key %#x after waking one: queue %v, want the second waiter", key, h.futexes[key])
			}
			h.FutexWake(key, 1)
			regs[k][0].Cancel()
		default: // cancel half, second waiter first
			regs[k][1].Cancel()
			regs[k][0].Cancel()
		}
	}
	if woken != keys {
		t.Fatalf("woken = %d, want %d", woken, keys)
	}
	if len(h.futexes) != 0 {
		t.Fatalf("%d futex queues left after every waiter went", len(h.futexes))
	}
}

// TestFutexStorm races FutexSubscribe, Cancel and FutexWake on four
// keys from eight goroutines, then lets every waiter still queued leave:
// by a wake of the whole queue on keys 0 and 1, by cancel on keys 2 and
// 3. No registration is woken twice, each one not cancelled is woken,
// the callbacks run equal the wakes FutexWake reported, and no queue is
// left behind. Run under -race it also checks that futexMu covers every
// path to the map.
func TestFutexStorm(t *testing.T) {
	h := New()
	const workers, each, keys = 8, 500, 4
	const n = workers * each
	key := func(id int) uint64 { return uint64(id%keys) << 12 }
	regs := make([]*FutexReg, n)
	woken := make([]atomic.Int32, n)
	cancelled := make([]bool, n)
	var wakes atomic.Int64
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for id := w * each; id < (w+1)*each; id++ {
				regs[id] = h.FutexSubscribe(key(id), func() { woken[id].Add(1) })
				switch id % 3 {
				case 0:
					regs[id].Cancel()
					cancelled[id] = true
				case 1:
					wakes.Add(int64(h.FutexWake(key(id), 1+id%2)))
				}
			}
		}()
	}
	wg.Wait()
	for id, reg := range regs {
		if id%keys >= 2 && woken[id].Load() == 0 && !cancelled[id] {
			reg.Cancel()
			cancelled[id] = true
		}
	}
	for id := range 2 {
		wakes.Add(int64(h.FutexWake(key(id), n)))
	}
	var total int64
	for id := range woken {
		w := woken[id].Load()
		total += int64(w)
		if w > 1 || w == 0 && !cancelled[id] {
			t.Fatalf("registration %d (key %#x, cancelled %v) woken %d times", id, key(id), cancelled[id], w)
		}
	}
	if total != wakes.Load() {
		t.Fatalf("%d callbacks ran for %d reported wakes", total, wakes.Load())
	}
	if len(h.futexes) != 0 {
		t.Fatalf("%d futex queues left after every waiter went: %v", len(h.futexes), h.futexes)
	}
}

// armedClock is a virtual clock that reports each timer armed on it.
type armedClock struct {
	*timers.Queue
	armed chan time.Duration
}

func (c armedClock) Timer(d time.Duration, fn func()) func() {
	cancel := c.Queue.Timer(d, fn)
	c.armed <- d
	return cancel
}

// TestSleepWaitsOnTheHostClock: Sleep is a wait on the host's clock, so
// a load generator's pacing and the deadline it tests read one clock.
// On a virtual clock a 10 ms Sleep is still asleep 1 ms short of its
// time and wakes on the last Advance.
func TestSleepWaitsOnTheHostClock(t *testing.T) {
	c := armedClock{timers.New(nil), make(chan time.Duration, 1)}
	h := NewWithClock(c)
	done := make(chan struct{})
	go func() { h.Sleep(10 * time.Millisecond); close(done) }()
	select {
	case <-c.armed:
	case <-done:
		t.Fatal("Sleep returned without a timer on the host clock")
	}
	c.Advance(10*time.Millisecond - timers.Tick)
	select {
	case <-done:
		t.Fatal("Sleep returned 1 ms of host time early")
	case <-time.After(20 * time.Millisecond):
	}
	c.Advance(timers.Tick)
	<-done
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
