package isa

import "testing"

// TestFlagMetadata pins ReadsFlags (flags.go) to the opcode space: the
// readers are exactly the documented ones.
func TestFlagMetadata(t *testing.T) {
	for op := Op(1); op < opMax; op++ {
		// The readers are exactly the flag-based conditional branches:
		// every cond branch except the register-based loop.
		want := op.IsCondBranch() && op != OpLoop
		if got := op.ReadsFlags(); got != want {
			t.Errorf("%v.ReadsFlags() = %v, want %v", op, got, want)
		}
		// A reader's condition must be non-trivial under EvalCond (and a
		// non-reader must be constant-false over every flag triple).
		varies := false
		for mask := 0; mask < 8; mask++ {
			if op.EvalCond(mask&1 != 0, mask&2 != 0, mask&4 != 0) {
				varies = true
			}
		}
		if varies != op.ReadsFlags() {
			t.Errorf("%v: EvalCond varies=%v but ReadsFlags=%v", op, varies, op.ReadsFlags())
		}
	}
}
