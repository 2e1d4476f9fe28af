// The fault battery drives the host boundary through the test-support
// decorator in hostfault; it is an external test package because
// hostfault imports hostos.
package hostos_test

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/hostos"
	"repro/internal/hostos/hostfault"
)

// newFaulty returns an in-memory host and the fault decorator over it.
func newFaulty() (*hostos.Host, *hostfault.Disk) {
	h := hostos.New()
	return h, hostfault.New(h)
}

// TestCrashAfterSharedBudget verifies the crash budget is shared across
// every file a pattern matches: exactly n writes land regardless of
// which file they target, then everything is dropped until Heal.
func TestCrashAfterSharedBudget(t *testing.T) {
	_, d := newFaulty()
	d.Inject("dev.s*", hostfault.CrashAfter(3))
	for i := 0; i < 5; i++ {
		d.WriteFileAt("dev.s0", i*4, []byte{byte(i), 1, 2, 3})
		d.WriteFileAt("dev.s1", i*4, []byte{byte(i), 1, 2, 3})
	}
	// 3 writes landed in total: two on s0 (offsets 0,4 interleaved with
	// s1) and one on s1.
	if got := d.FileSize("dev.s0"); got != 8 {
		t.Fatalf("s0 size = %d, want 8", got)
	}
	if got := d.FileSize("dev.s1"); got != 4 {
		t.Fatalf("s1 size = %d, want 4", got)
	}
	// Unmatched files are unaffected.
	d.WriteFileAt("other", 0, []byte("x"))
	if d.FileSize("other") != 1 {
		t.Fatal("crash budget leaked onto an unmatched file")
	}
	if !d.Heal("dev.s*") {
		t.Fatal("dropped writes did not trip the fault")
	}
	d.WriteFileAt("dev.s1", 4, []byte{9, 9, 9, 9})
	if d.FileSize("dev.s1") != 8 {
		t.Fatal("write after Heal still dropped")
	}
}

// TestHealUntripped reports false when the budget never ran out.
func TestHealUntripped(t *testing.T) {
	_, d := newFaulty()
	d.Inject("f", hostfault.CrashAfter(10))
	d.WriteFileAt("f", 0, []byte("ok"))
	if d.Heal("f") {
		t.Fatal("untripped crash reported tripped")
	}
}

// TestTornWritesDeterministic: the same seed tears the same writes at
// the same points; a torn write persists only a prefix.
func TestTornWritesDeterministic(t *testing.T) {
	run := func() []byte {
		h, d := newFaulty()
		d.Inject("f", hostfault.TornWrites(0.5, 42))
		for i := 0; i < 16; i++ {
			buf := bytes.Repeat([]byte{byte(i + 1)}, 32)
			d.WriteFileAt("f", i*32, buf)
		}
		got, _ := h.ReadFile("f")
		return got
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatal("same seed produced different torn-write outcomes")
	}
	// With p=0.5 over 16 writes, some must be torn (leaving zero bytes
	// where the tail was dropped inside the grown file).
	torn := false
	for _, x := range a {
		if x == 0 {
			torn = true
		}
	}
	if !torn {
		t.Fatal("no write was torn at p=0.5 over 16 writes")
	}
}

// TestBitRotDeterministic: write-path rot flips bits persistently and
// replays bit-identically under one seed.
func TestBitRotDeterministic(t *testing.T) {
	run := func() []byte {
		h, d := newFaulty()
		d.Inject("f", hostfault.BitRot(0.01, 7))
		d.WriteFileAt("f", 0, make([]byte, 4096))
		got, _ := h.ReadFile("f")
		return got
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatal("same seed produced different rot")
	}
	rotted := 0
	for _, x := range a {
		if x != 0 {
			rotted++
		}
	}
	if rotted == 0 {
		t.Fatal("no bits rotted at p=0.01 over 4 KiB")
	}
}

// TestShortReads: a short read returns fewer bytes than stored; the
// buffer beyond the returned count must not be trusted, and the count
// is what shrinks — no silent zero-fill.
func TestShortReads(t *testing.T) {
	h, d := newFaulty()
	h.WriteFile("f", bytes.Repeat([]byte{0xAA}, 100))
	d.Inject("f", hostfault.ShortReads(1.0, 3))
	buf := make([]byte, 100)
	n, err := d.ReadFileAt("f", 0, buf)
	if err != nil {
		t.Fatal(err)
	}
	if n >= 100 {
		t.Fatalf("read returned %d bytes, want a short count", n)
	}
	d.Heal("f")
	n, _ = d.ReadFileAt("f", 0, buf)
	if n != 100 {
		t.Fatalf("read after Heal = %d, want 100", n)
	}
}

// TestStackedFaults: crash and torn writes stack in injection order on
// the same file set.
func TestStackedFaults(t *testing.T) {
	h, d := newFaulty()
	d.Inject("f", hostfault.CrashAfter(2), hostfault.TornWrites(1.0, 1))
	d.WriteFileAt("f", 0, bytes.Repeat([]byte{1}, 64))
	d.WriteFileAt("f", 64, bytes.Repeat([]byte{2}, 64))
	d.WriteFileAt("f", 128, bytes.Repeat([]byte{3}, 64)) // dropped by crash
	if d.FileSize("f") > 128 {
		t.Fatal("crash did not drop the third write")
	}
	// Both surviving writes were torn (p=1.0): the file cannot hold the
	// full 128 bytes of payload.
	full := 0
	got, _ := h.ReadFile("f")
	for _, x := range got {
		if x != 0 {
			full++
		}
	}
	if full >= 128 {
		t.Fatal("torn writes persisted full buffers")
	}
	if !d.Heal("f") {
		t.Fatal("stacked faults never tripped")
	}
}

// TestReadLatency delays matching reads without holding the host lock.
func TestReadLatency(t *testing.T) {
	h, d := newFaulty()
	h.WriteFile("slow", []byte("x"))
	h.WriteFile("fast", []byte("x"))
	d.Inject("slow", hostfault.ReadLatency(30*time.Millisecond))
	start := time.Now()
	buf := make([]byte, 1)
	if _, err := d.ReadFileAt("slow", 0, buf); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 20*time.Millisecond {
		t.Fatalf("latency fault not applied: read took %v", d)
	}
	// Concurrent read of an unmatched file is not stalled behind the
	// sleeping one (the sleep happens outside the decorator lock).
	done := make(chan time.Duration, 1)
	go func() {
		s := time.Now()
		d.ReadFileAt("fast", 0, make([]byte, 1))
		done <- time.Since(s)
	}()
	go d.ReadFileAt("slow", 0, make([]byte, 1))
	if d := <-done; d > 25*time.Millisecond {
		t.Fatalf("unmatched read stalled %v behind a latency fault", d)
	}
}

func TestTamper(t *testing.T) {
	h := hostos.New()
	h.WriteFile("f", []byte{1, 2, 3})
	if err := hostfault.FlipBit(h, "f", 1); err != nil {
		t.Fatal(err)
	}
	got, _ := h.ReadFile("f")
	if got[1] == 2 {
		t.Fatal("tamper had no effect")
	}
}

// TestCorruptDropCopyPut covers the one-shot at-rest faults.
func TestCorruptDropCopyPut(t *testing.T) {
	h := hostos.New()
	h.WriteFile("a.s0", make([]byte, 256))
	h.WriteFile("a.s1", make([]byte, 256))
	h.WriteFile("keep", make([]byte, 16))

	snap := hostfault.CopyFiles(h, "a.s*")
	if len(snap) != 2 {
		t.Fatalf("snapshot has %d files, want 2", len(snap))
	}

	if n := hostfault.CorruptFiles(h, "a.s*", 0, 0, 8, 11); n != 16 {
		t.Fatalf("flipped %d bits, want 16 (8 per matched file)", n)
	}
	got, _ := h.ReadFile("a.s0")
	if bytes.Equal(got, snap["a.s0"]) {
		t.Fatal("corruption had no effect")
	}
	// Range-restricted corruption stays inside [from, to).
	h2 := hostos.New()
	h2.WriteFile("r", make([]byte, 100))
	hostfault.CorruptFiles(h2, "r", 10, 20, 64, 5)
	r, _ := h2.ReadFile("r")
	for i, x := range r {
		if x != 0 && (i < 10 || i >= 20) {
			t.Fatalf("corruption escaped range: byte %d", i)
		}
	}

	if n := hostfault.DropFiles(h, "a.s*"); n != 2 {
		t.Fatalf("dropped %d files, want 2", n)
	}
	if _, err := h.ReadFile("a.s0"); err == nil {
		t.Fatal("dropped file still readable")
	}
	if h.FileSize("keep") != 16 {
		t.Fatal("drop ate an unmatched file")
	}

	hostfault.PutFiles(h, snap)
	back, _ := h.ReadFile("a.s1")
	if !bytes.Equal(back, snap["a.s1"]) {
		t.Fatal("restore did not bring the snapshot back")
	}
}
