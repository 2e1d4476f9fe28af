package vm

// Directed stop tests for the exec-backed handler: every op compile does
// not specialize runs as exec inside a block or a trace, where PC and
// Cycles are dead state. Each case places such an op mid-block, in a loop
// hot enough to form traces, so that it stops the hart both at the block
// tier and inside a superblock; every stop is held against Step.

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
)

// execBackedLoop builds the frame every case shares. Block A (the trace
// anchor) counts r1 and always branches to block B, whose first
// instruction saves SP in r13; body then sets up its operands from r1 and
// ends with the op under test. At cont, SP is restored and the loop runs
// again until r1 reaches 200: past traceHotThreshold, so later
// iterations run the op inside a trace.
func execBackedLoop(t *testing.T, body func(b *asm.Builder)) (c *CPU, dataBase uint64, dataSize int) {
	t.Helper()
	img := build(t, func(b *asm.Builder) {
		b.Zero("ptr", 16)
		b.Entry("_start")
		b.MovRI(isa.R1, 0)
		b.Label("loop")
		b.AddI(isa.R1, 1)
		b.CmpI(isa.R1, 0)
		b.Jne("body") // always taken
		b.Trap()
		b.Label("body")
		b.MovRR(isa.R13, isa.SP)
		body(b)
		b.Label("cont")
		b.MovRR(isa.SP, isa.R13)
		b.CmpI(isa.R1, 200)
		b.Jl("loop")
		b.Trap()
	})
	c = loadImage(t, img, 4096)
	// ptr holds the address of cont, the target of jmpm and callm; r12
	// points at it. loadImage loads the code at 0x100000.
	const base = 0x100000
	dataBase = base + img.DataStart()
	ptr := dataBase + uint64(img.DataSymbols["ptr"])
	if err := c.Mem.WriteDirect(ptr, le64(base+uint64(img.Symbols["cont"]))); err != nil {
		t.Fatal(err)
	}
	c.Regs[isa.R12] = ptr
	return c, dataBase, int(c.Regs[isa.SP] - dataBase)
}

// far is an offset that takes a data address past every mapping.
const far = 1 << 24

// farOnOdd sets r to 0 on even iterations and to far on odd ones.
func farOnOdd(b *asm.Builder, r isa.Reg) {
	b.MovRR(r, isa.R1).AndI(r, 1).MulI(r, far)
}

func TestExecBackedStopsMatchStep(t *testing.T) {
	for _, tc := range []struct {
		name string
		op   isa.Op
		body func(b *asm.Builder)
	}{
		// #DE on every fourth iteration.
		{"div by zero", isa.OpDivRR, func(b *asm.Builder) {
			b.MovRR(isa.R4, isa.R1).AndI(isa.R4, 3).MovRI(isa.R3, 1000)
			b.Div(isa.R3, isa.R4)
		}},
		{"mod by zero", isa.OpModRR, func(b *asm.Builder) {
			b.MovRR(isa.R4, isa.R1).AndI(isa.R4, 3).MovRI(isa.R3, 1000)
			b.Alu(isa.OpModRR, isa.R3, isa.R4)
		}},
		// The first store lands, the second (128 bytes up) runs into the
		// guard page above the stack on odd iterations.
		{"vscatter second store", isa.OpVScatter, func(b *asm.Builder) {
			b.MovRR(isa.R6, isa.R1).AndI(isa.R6, 1).ShlI(isa.R6, 8)
			b.Add(isa.R6, isa.SP).SubI(isa.R6, 264)
			b.I(isa.Inst{Op: isa.OpVScatter, R1: isa.R1, Mem: isa.Mem(isa.R6, 0)})
		}},
		// Through ptr on even iterations, through an unmapped cell on
		// odd ones.
		{"jmpm unmapped pointer", isa.OpJmpM, func(b *asm.Builder) {
			b.MovRR(isa.R6, isa.R12)
			farOnOdd(b, isa.R7)
			b.Add(isa.R6, isa.R7)
			b.I(isa.Inst{Op: isa.OpJmpM, Mem: isa.Mem(isa.R6, 0)})
		}},
		{"callm unmapped pointer", isa.OpCallM, func(b *asm.Builder) {
			b.MovRR(isa.R6, isa.R12)
			farOnOdd(b, isa.R7)
			b.Add(isa.R6, isa.R7)
			b.I(isa.Inst{Op: isa.OpCallM, Mem: isa.Mem(isa.R6, 0)})
		}},
		// SP moves into unmapped memory on odd iterations (cont restores
		// it).
		{"pushi unmapped stack", isa.OpPushI, func(b *asm.Builder) {
			farOnOdd(b, isa.R7)
			b.Add(isa.SP, isa.R7)
			b.I(isa.Inst{Op: isa.OpPushI, Imm: 0x1234})
		}},
		{"eaccept", isa.OpEAccept, func(b *asm.Builder) {
			b.AddI(isa.R2, 1)
			b.I(isa.Inst{Op: isa.OpEAccept})
		}},
		{"halt", isa.OpHalt, func(b *asm.Builder) {
			b.AddI(isa.R2, 1)
			b.I(isa.Inst{Op: isa.OpHalt})
		}},
		{"eexit", isa.OpEExit, func(b *asm.Builder) {
			b.AddI(isa.R2, 1)
			b.I(isa.Inst{Op: isa.OpEExit})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if compilers[tc.op] != nil {
				t.Fatalf("%s is specialized: this case tests the exec-backed handler", tc.op)
			}
			fast, dataBase, dataSize := execBackedLoop(t, tc.body)
			slow, _, _ := execBackedLoop(t, tc.body)
			var blockStops, traceStops int
			for {
				traced := fast.stats.TraceInsts
				st := fast.Run(0)
				var ss Stop
				for done := false; !done; {
					ss, done = slow.Step()
				}
				diffStops(t, 0, st, ss)
				diffCompareAt(t, 0, fast, slow, dataBase, dataSize)
				if s := fast.CacheStats(); s.Threaded != fast.Cycles {
					t.Fatalf("threaded=%d cycles=%d after %v: an instruction escaped the handlers", s.Threaded, fast.Cycles, st)
				}
				if st.Reason == StopTrap {
					break
				}
				// An exception stops at the op, halt and eexit after it.
				pc := st.PC
				if st.Reason != StopException {
					pc -= uint64(isa.EncodedLen(tc.op))
				}
				if in, _, _, _ := fast.fetch(pc); in.Op != tc.op {
					t.Fatalf("stop %v is not at the %s under test (%s)", st, tc.op, in.Op)
				}
				if st.Reason == StopException {
					// Both harts resume past the op that raised.
					fast.PC = pc + uint64(isa.EncodedLen(tc.op))
					slow.PC = fast.PC
				}
				if fast.stats.TraceInsts > traced {
					traceStops++
				} else {
					blockStops++
				}
			}
			t.Logf("%s: %d stops at the block tier, %d in a trace", tc.op, blockStops, traceStops)
			if blockStops == 0 || traceStops == 0 {
				t.Fatalf("stops: %d at the block tier, %d in a trace; want both", blockStops, traceStops)
			}
			if fast.Regs[isa.R1] != 200 {
				t.Fatalf("r1 = %d, want 200", fast.Regs[isa.R1])
			}
		})
	}
}
