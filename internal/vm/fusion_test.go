package vm

// Directed tests for the trace tier's fused slots (trace.go, fuse): which
// instruction runs fuse, and that a fused read-modify-write stops, or
// falls back to its component handlers, exactly where and how Step
// does — at a faulting load, a faulting store, a page straddle, a store
// into executable code and a page's first store.

import (
	"bytes"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/mem"
)

// isFusedSlot reports whether h is one of the fused slots' closures
// (fuse's own, readModifyWrite's).
func isFusedSlot(h handler) bool {
	name := runtime.FuncForPC(reflect.ValueOf(h).Pointer()).Name()
	return strings.Contains(name, ".fuse.") || strings.Contains(name, ".readModifyWrite.")
}

// fusedSlots counts the fused slots of every superblock c holds.
func fusedSlots(c *CPU) int {
	n := 0
	for _, b := range c.blocks {
		if b.trace != nil {
			for _, h := range b.trace.ops {
				if isFusedSlot(h) {
					n++
				}
			}
		}
	}
	return n
}

func TestFuseShapes(t *testing.T) {
	m := func(base isa.Reg, disp int32) isa.MemRef { return isa.Mem(base, disp) }
	ld := func(r isa.Reg, mr isa.MemRef) isa.Inst { return isa.Inst{Op: isa.OpLoad, R1: r, Mem: mr} }
	ldb := func(r isa.Reg, mr isa.MemRef) isa.Inst { return isa.Inst{Op: isa.OpLoadB, R1: r, Mem: mr} }
	st := func(mr isa.MemRef, r isa.Reg) isa.Inst { return isa.Inst{Op: isa.OpStore, R1: r, Mem: mr} }
	stb := func(mr isa.MemRef, r isa.Reg) isa.Inst { return isa.Inst{Op: isa.OpStoreB, R1: r, Mem: mr} }
	alu := func(op isa.Op, r isa.Reg, imm int64) isa.Inst { return isa.Inst{Op: op, R1: r, Imm: imm} }
	for _, c := range []struct {
		name string
		ins  []isa.Inst
		want int
	}{
		{"cc1 rmw", []isa.Inst{ld(isa.R6, m(isa.R4, 0)), alu(isa.OpMulRI, isa.R6, 31), alu(isa.OpAddRI, isa.R6, 17),
			alu(isa.OpXorRI, isa.R6, 0x5c5c5c), st(m(isa.R4, 0), isa.R6)}, 5},
		{"od rmw", []isa.Inst{ldb(isa.R6, m(isa.R4, 0)), alu(isa.OpXorRI, isa.R6, 0x55), stb(m(isa.R4, 0), isa.R6)}, 3},
		{"copy back, no alu", []isa.Inst{ld(isa.R6, m(isa.R4, -8)), st(m(isa.R4, -8), isa.R6)}, 2},
		{"induction pair", []isa.Inst{alu(isa.OpAddRI, isa.R4, 8), alu(isa.OpSubRI, isa.R5, 8), ld(isa.R6, m(isa.R4, 0))}, 2},
		{"alu run stops at three", []isa.Inst{alu(isa.OpShlRI, isa.R1, 3), alu(isa.OpShrRI, isa.R2, 1),
			alu(isa.OpAndRI, isa.R1, 7), alu(isa.OpOrRI, isa.R3, 1)}, 3},
		{"lone alu op", []isa.Inst{alu(isa.OpAddRI, isa.R4, 8), ld(isa.R6, m(isa.R4, 0))}, 0},
		{"cmpi is no alu op", []isa.Inst{alu(isa.OpAddRI, isa.R4, 8), alu(isa.OpCmpRI, isa.R4, 8)}, 0},
		{"base is the loaded register", []isa.Inst{ld(isa.R4, m(isa.R4, 0)), alu(isa.OpXorRI, isa.R4, 1), st(m(isa.R4, 0), isa.R4)}, 0},
		{"width differs", []isa.Inst{ld(isa.R6, m(isa.R4, 0)), alu(isa.OpXorRI, isa.R6, 1), stb(m(isa.R4, 0), isa.R6)}, 0},
		{"width differs, byte load", []isa.Inst{ldb(isa.R6, m(isa.R4, 0)), st(m(isa.R4, 0), isa.R6)}, 0},
		{"displacement differs", []isa.Inst{ld(isa.R6, m(isa.R4, 8)), alu(isa.OpXorRI, isa.R6, 1), st(m(isa.R4, 0), isa.R6)}, 0},
		{"base differs", []isa.Inst{ld(isa.R6, m(isa.R4, 0)), st(m(isa.R5, 0), isa.R6)}, 0},
		{"stores another register", []isa.Inst{ld(isa.R6, m(isa.R4, 0)), st(m(isa.R4, 0), isa.R7)}, 0},
		{"alu op on another register", []isa.Inst{ld(isa.R6, m(isa.R4, 0)), alu(isa.OpXorRI, isa.R7, 1), st(m(isa.R4, 0), isa.R6)}, 0},
		{"indexed operand", []isa.Inst{ld(isa.R6, isa.MemSIB(isa.R4, isa.R5, 8, 0)), st(isa.MemSIB(isa.R4, isa.R5, 8, 0), isa.R6)}, 0},
		{"four alu ops", []isa.Inst{ld(isa.R6, m(isa.R4, 0)), alu(isa.OpXorRI, isa.R6, 1), alu(isa.OpXorRI, isa.R6, 2),
			alu(isa.OpXorRI, isa.R6, 3), alu(isa.OpXorRI, isa.R6, 4)}, 0},
	} {
		ins := c.ins[:min(len(c.ins), 5)] // as buildTrace offers them
		s := make([]tslot, len(ins))
		for i := range ins {
			s[i] = tslot{in: &ins[i], base: compile(&ins[i], 0, 0)}
		}
		h, k := fuse(s)
		if k != c.want || (h != nil) != (c.want > 0) {
			t.Errorf("%s: fuse covers %d instructions (handler %v), want %d", c.name, k, h != nil, c.want)
		}
	}
}

// rmwWalkProgram is a hot loop whose body is one read-modify-write of
// the word (or byte) at [r4+disp], then the induction pair r4 += stride,
// r8++: three slots per iteration once its trace forms. The test sets
// r4. An unexecuted movri after the trap carries fuzzMagicC, a word in
// the loop's own code page for the SMC case.
func rmwWalkProgram(byteWide bool, disp, stride int32, trips int64) func(b *asm.Builder) {
	return func(b *asm.Builder) {
		b.Entry("_start")
		b.MovRI(isa.R8, 0)
		b.Label("loop")
		b.CmpI(isa.R8, int32(trips))
		b.Jge("done")
		if byteWide {
			b.LoadB(isa.R6, isa.Mem(isa.R4, disp))
			b.XorI(isa.R6, 0x5a)
			b.AddI(isa.R6, 3)
			b.StoreB(isa.Mem(isa.R4, disp), isa.R6)
		} else {
			b.Load(isa.R6, isa.Mem(isa.R4, disp))
			b.MulI(isa.R6, 31)
			b.AddI(isa.R6, 17)
			b.XorI(isa.R6, 0x5c5c5c)
			b.Store(isa.Mem(isa.R4, disp), isa.R6)
		}
		b.AddI(isa.R4, stride)
		b.AddI(isa.R8, 1)
		b.Jmp("loop")
		b.Label("done")
		b.Trap()
		b.MovRI(isa.R15, fuzzMagicC)
		b.Zero("arr", 64)
	}
}

// TestFusedSlotsMatchStep runs rmwWalkProgram over each edge a fused
// read-modify-write can meet after its trace formed (the walk reaches
// the edge at iteration ~150, its trace forms at ~64) and holds the run
// to Step in lockstep: PC, every register, flags, Cycles and memory at
// every slice boundary and at the stop. A stop inside a fused slot must
// retire exactly the instructions up to and including the stopping one.
func TestFusedSlotsMatchStep(t *testing.T) {
	const stack = 3 * mem.PageSize
	type layout struct{ dbase, dend uint64 } // the mapped data region
	for _, c := range []struct {
		name     string
		byteWide bool
		disp     int32
		stride   int32
		// start returns r4's first value; setup remaps pages before it.
		start func(l layout) uint64
		setup func(t *testing.T, c *CPU, l layout)
		fault bool // the walk ends in a page fault, else in the trap
	}{
		{name: "load fault on an unmapped page", stride: 8, fault: true,
			start: func(l layout) uint64 { return l.dend - 150*8 }},
		{name: "byte load fault on an unmapped page", byteWide: true, disp: 3, stride: 1, fault: true,
			start: func(l layout) uint64 { return l.dend - 150 - 3 }},
		{name: "store fault on a read-only page", stride: 8, fault: true,
			start: func(l layout) uint64 { return l.dend - mem.PageSize - 150*8 },
			setup: func(t *testing.T, c *CPU, l layout) {
				if err := c.Mem.Map(l.dend-mem.PageSize, mem.PageSize, mem.PermR); err != nil {
					t.Fatal(err)
				}
			}},
		{name: "byte store fault on a read-only page", byteWide: true, stride: 1, fault: true,
			start: func(l layout) uint64 { return l.dend - mem.PageSize - 150 },
			setup: func(t *testing.T, c *CPU, l layout) {
				if err := c.Mem.Map(l.dend-mem.PageSize, mem.PageSize, mem.PermR); err != nil {
					t.Fatal(err)
				}
			}},
		{name: "page straddle", disp: -4, stride: 8,
			start: func(l layout) uint64 { return l.dbase + mem.PageSize - 150*8 }},
		{name: "first store to a clean page", stride: 8,
			start: func(l layout) uint64 { return l.dbase + mem.PageSize - 150*8 }},
		{name: "first byte store to a clean page", byteWide: true, stride: 1,
			start: func(l layout) uint64 { return l.dbase + 2*mem.PageSize - 150 }},
		{name: "rmw of the same word, no walk", stride: 0,
			start: func(l layout) uint64 { return l.dbase }},
	} {
		t.Run(c.name, func(t *testing.T) {
			img := build(t, rmwWalkProgram(c.byteWide, c.disp, c.stride, 300))
			mk := func() *CPU {
				cpu := loadImage(t, img, stack)
				dbase := cpu.Mem.Base() + img.DataStart()
				l := layout{dbase, dbase + (img.MinDataSize()+stack+mem.PageSize-1)/mem.PageSize*mem.PageSize}
				if c.setup != nil {
					c.setup(t, cpu, l)
				}
				cpu.Regs[isa.R4] = c.start(l)
				return cpu
			}
			probe := mk()
			dbase := probe.Mem.Base() + img.DataStart()
			dsize := int(probe.Mem.Base() + probe.Mem.Size() - dbase)
			diffDriveSliced(t, 0, mk, dbase, dsize)
			diffDriveFull(t, 0, mk, dbase, dsize)
			// Before the edge (iteration 150 of 9 instructions each) the
			// loop runs in a trace with fused slots; then it meets the edge.
			if st := probe.Run(1200); st.Reason != StopCycles {
				t.Fatalf("stop = %v before the edge", st)
			}
			if tracesEnabled && fusionEnabled && fusedSlots(probe) == 0 {
				t.Fatalf("stats = %+v: no trace with a fused slot formed", probe.CacheStats())
			}
			st := probe.Run(0)
			if got := st.Reason == StopException && st.Fault != nil; got != c.fault {
				t.Fatalf("stop = %v, want a page fault: %v", st, c.fault)
			}
		})
	}

	// A fused store into the loop's own executable code page: the walk
	// runs over data until its trace formed, then r4 is aimed (in both
	// CPUs, at a common boundary) at fuzzMagicC's immediate. The fused
	// slot's Store8 refuses the executable page, the component store
	// stamps it, and the trace is severed at its next entry; the
	// rewritten bytes never execute, so the run stays exact against Step.
	t.Run("store into the trace's own code page", func(t *testing.T) {
		img := build(t, rmwWalkProgram(false, 0, 0, 300))
		site := bytes.Index(img.Code, le64(fuzzMagicC))
		if site < 0 {
			t.Fatal("magic immediate not found")
		}
		fast, slow := loadImageRWX(t, img, stack), loadImageRWX(t, img, stack)
		dbase := fast.Mem.Base() + img.DataStart()
		fast.Regs[isa.R4], slow.Regs[isa.R4] = dbase, dbase
		step := func(budget uint64) Stop {
			st := fast.Run(budget)
			stopped := false
			for !stopped && slow.Cycles < fast.Cycles {
				var sst Stop
				if sst, stopped = slow.Step(); stopped {
					diffStops(t, 0, st, sst)
				}
			}
			if stopped != (st.Reason != StopCycles) {
				t.Fatalf("Run stopped with %v, Step stopped: %v", st, stopped)
			}
			diffCompareAt(t, 0, fast, slow, dbase, 64)
			return st
		}
		if st := step(1500); st.Reason != StopCycles {
			t.Fatalf("stop = %v", st)
		}
		if n := fusedSlots(fast); n == 0 && tracesEnabled && fusionEnabled {
			t.Fatalf("stats = %+v: no fused slot after warm-up", fast.CacheStats())
		}
		flushes := fast.CacheStats().Flushes
		code := fast.Mem.Base() + uint64(site)
		fast.Regs[isa.R4], slow.Regs[isa.R4] = code, code
		if st := step(0); st.Reason != StopTrap {
			t.Fatalf("stop = %v", st)
		}
		got, _ := fast.Mem.ReadDirect(code, 8)
		want, _ := slow.Mem.ReadDirect(code, 8)
		if !bytes.Equal(got, want) || bytes.Equal(got, le64(fuzzMagicC)) {
			t.Fatalf("code word % x, Step's % x, started % x", got, want, le64(fuzzMagicC))
		}
		if tracesEnabled && fast.CacheStats().Flushes == flushes {
			t.Fatalf("stats = %+v: the store into the trace's code page severed nothing", fast.CacheStats())
		}
	})
}
