package hostfault

import (
	"errors"
	"testing"

	"repro/internal/hostos"
)

// TestFailWrites: after n writes land, every later matching write is
// refused with the fault's error and changes nothing; unmatched files
// and Heal behave as for CrashAfter.
func TestFailWrites(t *testing.T) {
	h := hostos.New()
	d := New(h)
	d.Inject("dev.s*", FailWrites(2, hostos.ErrNoSpace))
	for i := 0; i < 2; i++ {
		if err := d.WriteFileAt("dev.s0", i*4, []byte{1, 2, 3, 4}); err != nil {
			t.Fatalf("write %d inside the budget: %v", i, err)
		}
	}
	err := d.WriteFileAt("dev.s1", 0, []byte{5})
	if !errors.Is(err, hostos.ErrNoSpace) {
		t.Fatalf("write past the budget: %v, want ErrNoSpace", err)
	}
	if h.FileSize("dev.s1") != 0 || h.FileSize("dev.s0") != 8 {
		t.Fatal("a refused write changed the disk")
	}
	if err := d.WriteFileAt("other", 0, []byte{1}); err != nil {
		t.Fatalf("unmatched file refused: %v", err)
	}
	if !d.Heal("dev.s*") {
		t.Fatal("refused write did not trip the fault")
	}
	if err := d.WriteFileAt("dev.s1", 0, []byte{5}); err != nil || h.FileSize("dev.s1") != 1 {
		t.Fatalf("write after Heal: %v", err)
	}
}

// TestAtRestHelpersStopAtLen: the at-rest helpers see a file's length,
// never the capacity behind it.
func TestAtRestHelpersStopAtLen(t *testing.T) {
	h := hostos.New()
	h.WriteFileAt("sp", 0, make([]byte, 4096))
	h.WriteFileAt("sp", 4096+900, []byte{7})
	const size = 4096 + 901
	if err := FlipBit(h, "sp", size); err == nil {
		t.Fatal("FlipBit reached past the end of the file")
	}
	if n := CorruptFiles(h, "sp", size, 0, 8, 1); n != 0 {
		t.Fatalf("CorruptFiles flipped %d bits past the end of the file", n)
	}
	if got := len(CopyFiles(h, "sp")["sp"]); got != size {
		t.Fatalf("CopyFiles saw %d bytes, want %d", got, size)
	}
	if err := FlipBit(h, "missing", 0); !errors.Is(err, hostos.ErrNoFile) {
		t.Fatalf("FlipBit of a missing file: %v", err)
	}
}
