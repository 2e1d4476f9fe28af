package vm

// FuzzTraceInvalidation interleaves execution with stores into
// executable pages, whole-range remaps, and preemption requests, and
// asserts that no stale superblock (or block) ever executes: a fuzzed
// action script drives a fast CPU and a Step reference in lockstep,
// with every mutation applied identically to both memories at a common
// architectural boundary. Any trace that survives an invalidation it
// should not have — or any cycle-accounting drift across side exits,
// severs, and preemptions — shows up as state divergence.

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/mem"
)

// Magic immediates locate the two patch sites in the encoded image:
// their little-endian bytes appear verbatim in the instruction stream.
const (
	fuzzMagicA = 0x1112131415161718 // inside the hot loop
	fuzzMagicB = 0x2122232425262728 // inside the called helper
	fuzzMagicC = 0x3132333435363738 // never executed, on the loop's page
)

// fuzzTraceProgram is the victim: a hot self-loop (promotes fast)
// calling a helper on every iteration, both carrying a patchable
// immediate that feeds the accumulator — executing even one iteration
// from a stale translation desynchronizes R0 against the reference. The
// loop also runs a read-modify-write of the word at r6 (a data word
// until an action aims it at fuzzMagicC, which sits unexecuted on the
// loop's own code page) and an ALU-immediate pair: both fuse in the
// trace.
func fuzzTraceProgram(r *rand.Rand, b *asm.Builder) {
	b.Entry("_start")
	b.MovRI(isa.R8, 0)
	b.LeaData(isa.R6, "w")
	b.Label("loop")
	b.MovRI(isa.R3, fuzzMagicA)
	b.Add(isa.R0, isa.R3)
	b.Load(isa.R5, isa.Mem(isa.R6, 0))
	b.XorI(isa.R5, 0x77)
	b.Store(isa.Mem(isa.R6, 0), isa.R5)
	b.Call("fn")
	b.AddI(isa.R7, 3)
	b.AddI(isa.R8, 1)
	b.CmpI(isa.R8, 4000)
	b.Jl("loop")
	b.Trap()
	b.MovRI(isa.R15, fuzzMagicC)
	b.Func("fn")
	b.MovRI(isa.R4, fuzzMagicB)
	b.Add(isa.R0, isa.R4)
	b.Ret()
	b.Zero("w", 8)
}

func le64(v uint64) []byte {
	var b [8]byte
	for i := range b {
		b[i] = byte(v >> (8 * i))
	}
	return b[:]
}

func FuzzTraceInvalidation(f *testing.F) {
	f.Add([]byte{0, 255, 0, 255, 0, 255, 0, 255})                        // promote, run hot
	f.Add([]byte{0, 255, 0, 255, 2, 0x37, 0, 255, 2, 0x81, 0, 255})      // promote, patch, run, patch, run
	f.Add([]byte{0, 255, 3, 0, 0, 255, 3, 1, 0, 255})                    // promote, remap, run
	f.Add([]byte{0, 200, 4, 0, 0, 200, 2, 9, 4, 0, 0, 255})              // preempt + patch mix
	f.Add([]byte{2, 1, 2, 2, 2, 3, 0, 255, 3, 0, 2, 4, 0, 255, 4, 0})    // patch storm before warmup
	f.Add([]byte{0, 10, 2, 0xff, 0, 10, 2, 0, 0, 10, 2, 7, 0, 10, 3, 2}) // tiny slices, churn
	f.Add([]byte{0, 255, 0, 255, 5, 0, 0, 255, 0, 40, 0, 255})           // promote, fused store rewrites its own code page
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 64 {
			script = script[:64]
		}
		img := build(t, func(b *asm.Builder) { fuzzTraceProgram(nil, b) })
		siteA := bytes.Index(img.Code, le64(fuzzMagicA))
		siteB := bytes.Index(img.Code, le64(fuzzMagicB))
		siteC := bytes.Index(img.Code, le64(fuzzMagicC))
		if siteA < 0 || siteB < 0 || siteC < 0 {
			t.Fatal("magic immediates not found in encoded image")
		}
		mk, db, ds := diffImage(t, 0, true, fuzzTraceProgram)
		fast, slow := mk(), mk()
		base := fast.Mem.Base()
		code := append([]byte(nil), img.Code...)

		compare := func(tag string) {
			t.Helper()
			if fast.Regs != slow.Regs || fast.PC != slow.PC || fast.Cycles != slow.Cycles ||
				fast.flags != slow.flags {
				t.Fatalf("%s: stale translation executed: fast pc=%#x cycles=%d regs=%v, step pc=%#x cycles=%d regs=%v",
					tag, fast.PC, fast.Cycles, fast.Regs, slow.PC, slow.Cycles, slow.Regs)
			}
		}
		// sync steps the reference to the fast CPU's retired count; a
		// true return means the program finished.
		sync := func() (Stop, bool) {
			for slow.Cycles < fast.Cycles {
				if st, d := slow.Step(); d {
					return st, true
				}
			}
			return Stop{}, false
		}
		finish := func(stFast Stop) {
			t.Helper()
			stSlow, d := sync()
			if !d {
				var dd bool
				if stSlow, dd = slow.Step(); !dd {
					t.Fatalf("Run stopped (%v) but Step continues", stFast)
				}
			}
			diffStops(t, 0, stFast, stSlow)
			diffCompareAt(t, 0, fast, slow, db, ds)
		}

		for i := 0; i+1 < len(script); i += 2 {
			op, arg := script[i], script[i+1]
			switch op % 6 {
			case 0, 1: // advance both CPUs by a fuzzed budget
				st := fast.Run(uint64(1 + int(arg)*8))
				if st.Reason != StopCycles {
					finish(st)
					return
				}
				if _, d := sync(); d {
					t.Fatalf("Step finished before Run at cycle %d", slow.Cycles)
				}
				compare("advance")
			case 2: // patch one byte of a magic immediate, both memories
				site := siteA
				if arg&1 != 0 {
					site = siteB
				}
				off := site + int(arg>>1)%8
				code[off] = arg
				for _, c := range []*CPU{fast, slow} {
					if err := c.Mem.WriteDirect(base+uint64(off), []byte{arg}); err != nil {
						t.Fatal(err)
					}
				}
			case 3: // remap the whole code range and rewrite it wholesale
				for _, c := range []*CPU{fast, slow} {
					if err := c.Mem.Map(base, img.CodeSpan(), mem.PermRWX); err != nil {
						t.Fatal(err)
					}
					if err := c.Mem.WriteDirect(base, code); err != nil {
						t.Fatal(err)
					}
				}
			case 5: // aim the loop's read-modify-write at its own code page
				for _, c := range []*CPU{fast, slow} {
					c.Regs[isa.R6] = base + uint64(siteC)
				}
			case 4: // preempt the fast CPU mid-flight
				fast.RequestPreempt()
				st := fast.Run(0)
				if st.Reason != StopPreempt {
					finish(st)
					return
				}
				if _, d := sync(); d {
					t.Fatalf("Step finished before preempted Run")
				}
				compare("preempt")
			}
		}
		// Script exhausted: drive both to a final common boundary.
		if st := fast.Run(512); st.Reason != StopCycles {
			finish(st)
			return
		}
		if _, d := sync(); d {
			t.Fatalf("Step finished before Run at final boundary")
		}
		compare("final")
		diffCompareAt(t, 0, fast, slow, db, ds)
	})
}
