package vm

import (
	"testing"
	"time"

	"repro/internal/asm"
	"repro/internal/isa"
)

// TestRequestPreemptStopsAtBlockBoundary: a hart spinning in a tight
// loop with no cycle budget must stop with StopPreempt soon after an
// asynchronous preemption request — the mechanism prompt signal
// delivery and M:N scheduling are built on.
func TestRequestPreemptStopsAtBlockBoundary(t *testing.T) {
	img := build(t, func(b *asm.Builder) {
		b.Entry("_start")
		b.Label("spin")
		b.Jmp("spin")
	})
	c := loadImage(t, img, 4096)
	done := make(chan Stop, 1)
	go func() { done <- c.Run(0) }()
	time.Sleep(5 * time.Millisecond)
	c.RequestPreempt()
	select {
	case st := <-done:
		if st.Reason != StopPreempt {
			t.Fatalf("stop = %v, want StopPreempt", st)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("preemption request not honored")
	}
	// The request is consumed: resuming runs again instead of stopping
	// immediately (drive it with a budget this time).
	st := c.Run(100)
	if st.Reason != StopCycles {
		t.Fatalf("after preempt consumed: stop = %v, want StopCycles", st)
	}
}

// TestPreemptLatchedBeforeRun: a request that lands while the hart is
// descheduled is honored on the next Run, before any block executes —
// and Run with a budget exits exactly at a block boundary (PC stays
// consistent, so execution can resume).
func TestPreemptLatchedBeforeRun(t *testing.T) {
	img := build(t, func(b *asm.Builder) {
		b.Entry("_start")
		b.Label("spin")
		b.AddI(isa.R1, 1)
		b.Jmp("spin")
	})
	c := loadImage(t, img, 4096)
	c.RequestPreempt()
	st := c.Run(1 << 20)
	if st.Reason != StopPreempt {
		t.Fatalf("stop = %v, want StopPreempt", st)
	}
	if c.Cycles != 0 {
		t.Fatalf("preempt-before-run retired %d cycles, want 0", c.Cycles)
	}
	// Resume and verify the loop actually runs: budget-bounded.
	st = c.Run(1000)
	if st.Reason != StopCycles || c.Cycles != 1000 {
		t.Fatalf("resume: stop = %v after %d cycles", st, c.Cycles)
	}
	if c.Regs[isa.R1] == 0 {
		t.Fatal("loop made no progress after preemption")
	}
}

// TestResetDropsPreempt: a request latched for the program a CPU ran
// last does not stop the next one it is Reset for — the LibOS runs
// every SIP of a domain on one CPU, and a Kill aimed at an exiting SIP
// may land after its exit.
func TestResetDropsPreempt(t *testing.T) {
	img := build(t, func(b *asm.Builder) {
		b.Entry("_start")
		b.Label("spin")
		b.AddI(isa.R1, 1)
		b.Jmp("spin")
	})
	c := loadImage(t, img, 4096)
	pc, sp := c.PC, c.Regs[isa.SP]
	c.RequestPreempt()
	c.Reset()
	c.PC, c.Regs[isa.SP] = pc, sp
	if st := c.Run(1000); st.Reason != StopCycles || c.Cycles != 1000 {
		t.Fatalf("after Reset: stop = %v after %d cycles, want StopCycles after 1000", st, c.Cycles)
	}
}
