package vm

// Randomized differential testing: the chained + threaded Run fast
// path must match the Step slow path state-for-state on random
// programs drawn from the full opcode space — including programs whose
// branches land mid-instruction and decode garbage, whose memory
// operands fault, and whose execution is sliced by arbitrary cycle
// budgets (exercising the budget-clipped dispatch path).

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/mpx"
)

const (
	diffBase     = 0x200000
	diffCodePgs  = 2
	diffDataPgs  = 4
	diffDataBase = diffBase + (diffCodePgs+1)*mem.PageSize // one guard page
	diffDataSize = diffDataPgs * mem.PageSize
)

// diffProgram builds a random program image and a constructor for
// identically-initialized CPUs over fresh memory.
func diffProgram(t *testing.T, seed int64) func() *CPU {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	var code []byte
	for n := 20 + r.Intn(180); n > 0; n-- {
		// One draw in eight is an idiom the trace tier fuses rather
		// than a lone instruction, half of those the body of a `loop`
		// counted down from r1 = 70..99: hot enough to form a trace.
		ins := []isa.Inst{isa.RandomInst(r)}
		if r.Intn(8) == 0 {
			ins = fusableRun(r, func() isa.Reg { return isa.Reg(r.Intn(isa.NumRegs)) })
			if r.Intn(2) == 0 {
				n := isa.EncodedLen(isa.OpLoop)
				for _, in := range ins {
					n += isa.EncodedLen(in.Op)
				}
				ins = append(append([]isa.Inst{{Op: isa.OpMovRI, R1: isa.R1, Imm: int64(70 + r.Intn(30))}}, ins...),
					isa.Inst{Op: isa.OpLoop, Imm: int64(-n)})
			}
		}
		for _, in := range ins {
			var err error
			if code, err = isa.Encode(code, in); err != nil {
				t.Fatalf("seed %d: %v: %v", seed, in, err)
			}
		}
		if len(code) > diffCodePgs*mem.PageSize {
			break
		}
	}
	// Register/bound seeds, fixed per program so both CPUs start equal.
	regs := [isa.NumRegs]uint64{}
	for i := range regs {
		switch r.Intn(3) {
		case 0: // plausible data pointer
			regs[i] = diffDataBase + uint64(r.Intn(diffDataSize-16))
		case 1: // small scalar
			regs[i] = uint64(r.Intn(512))
		default: // wild
			regs[i] = r.Uint64()
		}
	}
	regs[isa.SP] = diffDataBase + diffDataSize - 8*uint64(1+r.Intn(16))
	var bounds [isa.NumBndRegs]mpx.Bound
	for i := range bounds {
		lo := r.Uint64() % (2 * diffDataBase)
		bounds[i] = mpx.Bound{Lower: lo, Upper: lo + uint64(r.Intn(1<<20))}
	}
	return func() *CPU {
		m := mem.NewPaged(diffBase, (diffCodePgs+1+diffDataPgs+1)*mem.PageSize)
		if err := m.Map(diffBase, diffCodePgs*mem.PageSize, mem.PermRX); err != nil {
			t.Fatal(err)
		}
		if err := m.WriteDirect(diffBase, code); err != nil {
			t.Fatal(err)
		}
		if err := m.Map(diffDataBase, diffDataSize, mem.PermRW); err != nil {
			t.Fatal(err)
		}
		c := New(m)
		c.PC = diffBase
		c.Regs = regs
		for i, b := range bounds {
			c.Bnd.Set(isa.BndReg(i), b)
		}
		return c
	}
}

// fusableRun returns a run of instructions the trace tier fuses, mostly,
// over registers drawn from pick: a read-modify-write of [base+disp]
// through reg (load or loadb, 0–3 ALU-immediate ops on reg, the store of
// the same width back), or 2–3 ALU-immediate ops. Now and then the
// shape is one fuse must refuse: base == reg, or a store of the other
// width or to another displacement.
func fusableRun(r *rand.Rand, pick func() isa.Reg) []isa.Inst {
	alu := func(rg isa.Reg) isa.Inst {
		in := isa.RandomInstOp(r, isa.OpAddRI+isa.Op(r.Intn(8)))
		in.R1 = rg
		return in
	}
	reg := pick()
	if r.Intn(3) == 0 {
		ins := []isa.Inst{alu(reg), alu(pick())}
		if r.Intn(2) == 0 {
			ins = append(ins, alu(pick()))
		}
		return ins
	}
	base := pick()
	if r.Intn(8) == 0 {
		base = reg
	}
	m := isa.Mem(base, int32(r.Intn(64))-32)
	ld, st := isa.OpLoad, isa.OpStore
	if r.Intn(2) == 0 {
		ld, st = isa.OpLoadB, isa.OpStoreB
	}
	ins := []isa.Inst{{Op: ld, R1: reg, Mem: m}}
	for k := r.Intn(4); k > 0; k-- {
		ins = append(ins, alu(reg))
	}
	switch r.Intn(8) {
	case 0:
		st ^= isa.OpStore ^ isa.OpStoreB // the other width
	case 1:
		m.Disp += 8
	}
	return append(ins, isa.Inst{Op: st, R1: reg, Mem: m})
}

// diffCompare fails the test unless the two CPUs have identical
// architectural state (registers, PC, flags, cycles, bounds, and the
// full data region).
func diffCompare(t *testing.T, seed int64, fast, slow *CPU) {
	t.Helper()
	diffCompareAt(t, seed, fast, slow, diffDataBase, diffDataSize)
}

// diffCompareAt is diffCompare over an arbitrary data region, for
// programs not laid out at the diffBase constants (the asm-built trace
// battery below).
func diffCompareAt(t *testing.T, seed int64, fast, slow *CPU, dataBase uint64, dataSize int) {
	t.Helper()
	if fast.Regs != slow.Regs || fast.PC != slow.PC || fast.Cycles != slow.Cycles {
		t.Fatalf("seed %d: state differs:\nrun:  pc=%#x cycles=%d regs=%v\nstep: pc=%#x cycles=%d regs=%v",
			seed, fast.PC, fast.Cycles, fast.Regs, slow.PC, slow.Cycles, slow.Regs)
	}
	if fast.flags != slow.flags {
		t.Fatalf("seed %d: flags differ", seed)
	}
	if fast.Bnd != slow.Bnd {
		t.Fatalf("seed %d: bound registers differ: %v vs %v", seed, fast.Bnd, slow.Bnd)
	}
	fd, _ := fast.Mem.ReadDirect(dataBase, dataSize)
	sd, _ := slow.Mem.ReadDirect(dataBase, dataSize)
	for i := range fd {
		if fd[i] != sd[i] {
			t.Fatalf("seed %d: data memory differs at +%#x: %#x vs %#x", seed, i, fd[i], sd[i])
		}
	}
}

// diffStops fails the test unless the two stops describe the same
// architectural event (Fault is compared by value, not pointer).
func diffStops(t *testing.T, seed int64, stFast, stSlow Stop) {
	t.Helper()
	same := stFast.Reason == stSlow.Reason && stFast.Exc == stSlow.Exc && stFast.PC == stSlow.PC
	if same {
		switch {
		case stFast.Fault == nil && stSlow.Fault == nil:
		case stFast.Fault != nil && stSlow.Fault != nil:
			same = *stFast.Fault == *stSlow.Fault
		default:
			same = false
		}
	}
	if !same {
		t.Fatalf("seed %d: stops differ: run=%v step=%v", seed, stFast, stSlow)
	}
}

func TestRandomizedStepMatchesRun(t *testing.T) {
	const (
		numSeeds  = 300
		maxCycles = 4000
	)
	for seed := int64(0); seed < numSeeds; seed++ {
		newCPU := diffProgram(t, seed)
		fast, slow := newCPU(), newCPU()
		r := rand.New(rand.NewSource(^seed))

		// Drive the fast CPU with random budget slices (clipping blocks
		// at arbitrary points); treat the first non-budget stop as the
		// end of the program. A budget cap bounds runaway loops — the
		// comparison below is valid at any common cycle count.
		var stFast Stop
		done := false
		for !done && fast.Cycles < maxCycles {
			st := fast.Run(uint64(1 + r.Intn(97)))
			if st.Reason != StopCycles {
				stFast, done = st, true
			}
		}

		// Step the slow CPU to the same retired-instruction count.
		var stSlow Stop
		sdone := false
		for !sdone && slow.Cycles < fast.Cycles {
			if st, d := slow.Step(); d {
				stSlow, sdone = st, true
			}
		}
		if done && !sdone {
			// The fast stop did not retire an instruction (a fetch
			// fault): the very next Step must raise the same stop.
			st, d := slow.Step()
			if !d {
				t.Fatalf("seed %d: Run stopped (%v) but Step continues", seed, stFast)
			}
			stSlow, sdone = st, true
		}
		if done != sdone {
			t.Fatalf("seed %d: Run done=%v (%v) but Step done=%v (%v)", seed, done, stFast, sdone, stSlow)
		}
		if done {
			diffStops(t, seed, stFast, stSlow)
		}
		diffCompare(t, seed, fast, slow)
	}
}

// TestRandomizedRunToCompletion re-runs a subset of seeds with no
// budget at all (whole blocks only) against Step,
// stopping runaway programs by injecting a halt... they cannot be
// stopped externally, so instead compare only programs that stop on
// their own within the cycle cap under the budgeted loop first.
func TestRandomizedRunToCompletion(t *testing.T) {
	const (
		numSeeds  = 300
		maxCycles = 4000
	)
	for seed := int64(0); seed < numSeeds; seed++ {
		newCPU := diffProgram(t, seed)
		// Probe with a bounded run: only programs that terminate by
		// themselves can be compared under Run(0).
		probe := newCPU()
		if st := probe.Run(maxCycles); st.Reason == StopCycles {
			continue
		}
		fast, slow := newCPU(), newCPU()
		stFast := fast.Run(0)
		// Bound the Step loop at the probe's cycle cap: if a dispatch
		// divergence made Run(0) terminate but Step loop forever, the
		// test must fail naming the seed, not hang.
		var stSlow Stop
		sdone := false
		for slow.Cycles <= maxCycles {
			if st, d := slow.Step(); d {
				stSlow, sdone = st, true
				break
			}
		}
		if !sdone {
			t.Fatalf("seed %d: Run(0) stopped (%v) but Step exceeded %d cycles", seed, stFast, maxCycles)
		}
		diffStops(t, seed, stFast, stSlow)
		diffCompare(t, seed, fast, slow)
	}
}

// ---------------------------------------------------------------------
// Trace-aware battery: structured random programs shaped so the trace
// tier actually engages (hot loops well past traceHotThreshold, jump
// tables behind indirect jumps, call/ret towers deeper than any trace's
// static call stack, back-to-back flag writers across seams,
// self-modifying stores into promoted traces), all held bit-exact —
// registers, flags, memory, and cycle counts — against the Step
// reference, under both budget slices and free runs, and across
// mid-run preemption.
// ---------------------------------------------------------------------

// diffImage builds a random program with gen and returns a constructor
// for identically-initialized CPUs plus the data region to compare.
// rwx remaps the code writable (the loader-pool shape the SMC programs
// need).
func diffImage(t *testing.T, seed int64, rwx bool, gen func(r *rand.Rand, b *asm.Builder)) (mk func() *CPU, dataBase uint64, dataSize int) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	img := build(t, func(b *asm.Builder) { gen(r, b) })
	const base, stack = 0x100000, 4096
	ds := (img.MinDataSize() + stack + mem.PageSize - 1) / mem.PageSize * mem.PageSize
	mk = func() *CPU {
		c := loadImage(t, img, stack)
		if rwx {
			if err := c.Mem.Map(c.Mem.Base(), img.CodeSpan(), mem.PermRWX); err != nil {
				t.Fatal(err)
			}
		}
		return c
	}
	return mk, base + img.DataStart(), int(ds)
}

const diffTraceMaxCycles = 200000

// diffDriveSliced drives fast under random budget slices and the Step
// reference to every slice boundary, holding the boundary states equal
// along the way (a final-state-only comparison would let compensating
// mid-run errors cancel), then compares stops and the full state.
func diffDriveSliced(t *testing.T, seed int64, mk func() *CPU, dataBase uint64, dataSize int) {
	t.Helper()
	fast, slow := mk(), mk()
	r := rand.New(rand.NewSource(^seed))
	var stFast, stSlow Stop
	done, sdone := false, false
	for !done && fast.Cycles < diffTraceMaxCycles {
		st := fast.Run(uint64(1 + r.Intn(197)))
		if st.Reason != StopCycles {
			stFast, done = st, true
		}
		for !sdone && slow.Cycles < fast.Cycles {
			if st, d := slow.Step(); d {
				stSlow, sdone = st, true
			}
		}
		if !done && !sdone {
			if fast.Cycles != slow.Cycles || fast.Regs != slow.Regs || fast.PC != slow.PC ||
				fast.flags != slow.flags {
				t.Fatalf("seed %d: boundary state diverged at cycle %d (step at %d)",
					seed, fast.Cycles, slow.Cycles)
			}
		}
	}
	if !done {
		t.Fatalf("seed %d: program exceeded %d cycles", seed, diffTraceMaxCycles)
	}
	if !sdone {
		// The fast stop did not retire an instruction: the very next
		// Step must raise the same stop.
		st, d := slow.Step()
		if !d {
			t.Fatalf("seed %d: Run stopped (%v) but Step continues", seed, stFast)
		}
		stSlow = st
	}
	diffStops(t, seed, stFast, stSlow)
	diffCompareAt(t, seed, fast, slow, dataBase, dataSize)
}

// diffDriveFull drives fast with no budget (nothing is ever clipped, so
// blocks and traces chain freely) against a bounded Step loop.
func diffDriveFull(t *testing.T, seed int64, mk func() *CPU, dataBase uint64, dataSize int) {
	t.Helper()
	fast, slow := mk(), mk()
	stFast := fast.Run(0)
	var stSlow Stop
	sdone := false
	for !sdone && slow.Cycles <= diffTraceMaxCycles {
		if st, d := slow.Step(); d {
			stSlow, sdone = st, true
		}
	}
	if !sdone {
		t.Fatalf("seed %d: Run(0) stopped (%v) but Step exceeded %d cycles", seed, stFast, diffTraceMaxCycles)
	}
	diffStops(t, seed, stFast, stSlow)
	diffCompareAt(t, seed, fast, slow, dataBase, dataSize)
}

// traceProgram is the workhorse generator: a hot loop (trip count well
// above traceHotThreshold) whose body mixes straight-line ALU work,
// data-dependent forward branches (side exits in both directions),
// bounded memory traffic, and calls into a small helper tower.
// Construction guarantees termination: body registers never include
// the loop counter, intra-body branches only go forward, and helper i
// calls only helper i+1.
func traceProgram(r *rand.Rand, b *asm.Builder) {
	bodyRegs := [...]isa.Reg{isa.R0, isa.R2, isa.R3, isa.R4, isa.R5}
	reg := func() isa.Reg { return bodyRegs[r.Intn(len(bodyRegs))] }
	rr := []isa.Op{isa.OpAddRR, isa.OpSubRR, isa.OpXorRR, isa.OpAndRR, isa.OpOrRR, isa.OpMulRR}
	alu := func() {
		switch r.Intn(8) {
		case 0:
			b.MovRI(reg(), int64(r.Uint32()))
		case 1:
			b.Alu(rr[r.Intn(len(rr))], reg(), reg())
		case 2:
			b.AddI(reg(), int32(r.Intn(1<<12)))
		case 3:
			b.SubI(reg(), int32(r.Intn(1<<12)))
		case 4:
			b.XorI(reg(), int32(r.Intn(1<<16)))
		case 5:
			b.ShlI(reg(), int32(r.Intn(8)))
		case 6:
			b.ShrI(reg(), int32(r.Intn(8)))
		default:
			b.MovRR(reg(), reg())
		}
	}
	memOp := func() {
		off := int32(8 * r.Intn(63))
		switch r.Intn(3) {
		case 0:
			b.Store(isa.Mem(isa.R9, off), reg())
		case 1:
			b.Load(reg(), isa.Mem(isa.R9, off))
		default: // a fusable run, its accesses moved into arr
			for _, in := range fusableRun(r, reg) {
				if in.Op.Format() == isa.FRMem || in.Op.Format() == isa.FMemR {
					in.Mem = isa.Mem(isa.R9, off+in.Mem.Disp&^7+32)
				}
				b.I(in)
			}
		}
	}
	conds := []isa.Op{isa.OpJe, isa.OpJne, isa.OpJl, isa.OpJle, isa.OpJg, isa.OpJge, isa.OpJb, isa.OpJae}

	nhelp := r.Intn(3)
	trips := 80 + r.Intn(140)
	loopStyle := r.Intn(2) // cmp+jl counter vs the register loop op

	b.Entry("_start")
	for _, rg := range bodyRegs {
		b.MovRI(rg, int64(r.Uint32()))
	}
	b.LeaData(isa.R9, "arr")
	if loopStyle == 0 {
		b.MovRI(isa.R8, 0)
	} else {
		b.MovRI(isa.R1, int64(trips))
	}
	b.Label("loop")
	nseg := 2 + r.Intn(3)
	for s := 0; s < nseg; s++ {
		b.Label(fmt.Sprintf("seg%d", s))
		for k := 1 + r.Intn(4); k > 0; k-- {
			switch r.Intn(5) {
			case 0:
				memOp()
			case 1:
				if nhelp > 0 {
					b.Call(fmt.Sprintf("h%d", r.Intn(nhelp)))
				} else {
					alu()
				}
			default:
				alu()
			}
		}
		if s+1 < nseg && r.Intn(2) == 0 {
			if r.Intn(2) == 0 {
				b.CmpI(reg(), int32(r.Intn(1<<12)))
			} else {
				b.Cmp(reg(), reg())
			}
			b.Jcc(conds[r.Intn(len(conds))], fmt.Sprintf("seg%d", s+1+r.Intn(nseg-s-1)))
		}
	}
	if loopStyle == 0 {
		b.AddI(isa.R8, 1)
		b.CmpI(isa.R8, int32(trips))
		b.Jl("loop")
	} else {
		b.Jcc(isa.OpLoop, "loop")
	}
	b.Trap()
	for h := 0; h < nhelp; h++ {
		b.Func(fmt.Sprintf("h%d", h))
		for k := 1 + r.Intn(4); k > 0; k-- {
			alu()
		}
		if h+1 < nhelp && r.Intn(2) == 0 {
			b.Call(fmt.Sprintf("h%d", h+1))
		}
		b.Ret()
	}
	b.Zero("arr", 512)
}

func TestTraceDifferentialHotLoops(t *testing.T) {
	const numSeeds = 50
	for seed := int64(0); seed < numSeeds; seed++ {
		mk, db, ds := diffImage(t, seed, false, traceProgram)
		diffDriveSliced(t, seed, mk, db, ds)
		diffDriveFull(t, seed, mk, db, ds)
	}
}

// jumpTableProgram dispatches a hot loop through a jump table built at
// runtime (the getpc idiom): indirect exits from blocks and traces,
// through one target or alternating between 2 or 4, each resolved
// through the cache map.
func jumpTableProgram(r *rand.Rand, b *asm.Builder) {
	ntargets := 1 << r.Intn(3) // 1, 2, or 4
	trips := 80 + r.Intn(140)
	b.Entry("_start")
	b.LeaData(isa.R9, "table")
	for i := 0; i < ntargets; i++ {
		ti, si := fmt.Sprintf("t%d", i), fmt.Sprintf("s%d", i)
		b.Call("getpc")    // r6 = address of the addi below
		b.AddI(isa.R6, 11) // skip the addi (6 bytes) and the jmp (5): r6 = ti
		b.Jmp(si)
		b.Label(ti)
		for k := 1 + r.Intn(3); k > 0; k-- {
			b.AddI([]isa.Reg{isa.R2, isa.R3, isa.R4, isa.R5}[r.Intn(4)], int32(1+r.Intn(100)))
		}
		b.Jmp("back")
		b.Label(si)
		b.Store(isa.Mem(isa.R9, int32(8*i)), isa.R6)
	}
	b.MovRI(isa.R8, 0)
	b.Label("loop")
	b.MovRR(isa.R7, isa.R8)
	b.AndI(isa.R7, int32(ntargets-1))
	b.ShlI(isa.R7, 3)
	b.Add(isa.R7, isa.R9)
	b.Load(isa.R7, isa.Mem(isa.R7, 0))
	b.JmpR(isa.R7)
	b.Label("back")
	b.AddI(isa.R8, 1)
	b.CmpI(isa.R8, int32(trips))
	b.Jl("loop")
	b.Trap()
	b.Func("getpc")
	b.Load(isa.R6, isa.Mem(isa.SP, 0))
	b.Ret()
	b.Zero("table", 8*4)
}

func TestTraceDifferentialJumpTables(t *testing.T) {
	const numSeeds = 30
	for seed := int64(0); seed < numSeeds; seed++ {
		mk, db, ds := diffImage(t, seed, false, jumpTableProgram)
		diffDriveSliced(t, seed, mk, db, ds)
		diffDriveFull(t, seed, mk, db, ds)
	}
}

// callTowerProgram recurses from inside a hot loop deeper than one
// trace can follow: a trace holds at most maxTraceInsts instructions,
// so at most that many calls, and every descent is longer. Traces end
// at every ret; the unwind resolves each return through the map.
func callTowerProgram(r *rand.Rand, b *asm.Builder) {
	depth := maxTraceInsts + 8 + r.Intn(60)
	trips := 70 + r.Intn(40)
	b.Entry("_start")
	b.MovRI(isa.R0, 0)
	b.MovRI(isa.R8, 0)
	b.Label("loop")
	b.MovRI(isa.R7, int64(depth))
	b.Call("f")
	b.AddI(isa.R8, 1)
	b.CmpI(isa.R8, int32(trips))
	b.Jl("loop")
	b.Trap()
	b.Func("f")
	b.CmpI(isa.R7, 0)
	b.Je("out")
	b.SubI(isa.R7, 1)
	b.AddI(isa.R0, int32(1+r.Intn(16)))
	b.Call("f")
	b.AddI(isa.R0, int32(1+r.Intn(16))) // unwind-side work
	b.Label("out")
	b.Ret()
}

func TestTraceDifferentialCallTowers(t *testing.T) {
	const numSeeds = 20
	for seed := int64(0); seed < numSeeds; seed++ {
		mk, db, ds := diffImage(t, seed, false, callTowerProgram)
		diffDriveSliced(t, seed, mk, db, ds)
		diffDriveFull(t, seed, mk, db, ds)
	}
}

// retMispredictProgram hijacks every fourth return by overwriting the
// return address on the stack (longjmp-shaped control flow): the ret
// that ends a trace must leave for where the return really went, with
// SP and flags exactly architectural.
func retMispredictProgram(r *rand.Rand, b *asm.Builder) {
	trips := 100 + r.Intn(100)
	b.Entry("_start")
	b.Call("getpc")
	b.AddI(isa.R6, 11) // r6 = "alt", the hijacked return target
	b.Jmp("begin")
	b.AddI(isa.R2, 7) // alt
	b.Jmp("cont")
	b.Label("begin")
	b.MovRI(isa.R8, 0)
	b.Label("loop")
	b.Call("g")
	b.AddI(isa.R3, 1) // architectural return site
	b.Label("cont")
	b.AddI(isa.R8, 1)
	b.CmpI(isa.R8, int32(trips))
	b.Jl("loop")
	b.Trap()
	b.Func("g")
	b.MovRR(isa.R7, isa.R8)
	b.AndI(isa.R7, 3)
	b.CmpI(isa.R7, 0)
	b.Jne("gout")
	b.Store(isa.Mem(isa.SP, 0), isa.R6) // redirect this return to alt
	b.Label("gout")
	b.AddI(isa.R4, 1)
	b.Ret()
	b.Func("getpc")
	b.Load(isa.R6, isa.Mem(isa.SP, 0))
	b.Ret()
}

func TestTraceDifferentialRetMispredict(t *testing.T) {
	const numSeeds = 20
	for seed := int64(0); seed < numSeeds; seed++ {
		mk, db, ds := diffImage(t, seed, false, retMispredictProgram)
		diffDriveSliced(t, seed, mk, db, ds)
		diffDriveFull(t, seed, mk, db, ds)
	}
}

// flagWriterProgram is the flag-writer row: a hot loop whose segments
// are runs of back-to-back flag writers — cmp; test; cmp, then one more
// random writer — each overwriting the flags of the last, with a jmp
// seam inside the run half the time. A run ends in a flag branch to a
// later segment (a seam guard, or a fused pair), in a memory access (a
// slot that can stop), or in nothing, so its flags flow into the next
// run's writers across the seam. One dead writer sits before the fused
// final pair and one live writer before the trap. Every write retires
// in its own slot; the row holds the flags bit-exact against Step at
// every slice boundary and stop.
func flagWriterProgram(r *rand.Rand, b *asm.Builder) {
	bodyRegs := [...]isa.Reg{isa.R0, isa.R2, isa.R3, isa.R4, isa.R5}
	reg := func() isa.Reg { return bodyRegs[r.Intn(len(bodyRegs))] }
	conds := []isa.Op{isa.OpJe, isa.OpJne, isa.OpJl, isa.OpJle, isa.OpJg, isa.OpJge, isa.OpJb, isa.OpJae}
	writer := func() {
		switch r.Intn(3) {
		case 0:
			b.CmpI(reg(), int32(r.Intn(512)))
		case 1:
			b.Cmp(reg(), reg())
		default:
			b.Test(reg(), isa.R8) // the trip count's bits: ZF flips
		}
	}
	trips := 200 + r.Intn(200)

	b.Entry("_start")
	for _, rg := range bodyRegs {
		b.MovRI(rg, int64(r.Intn(512)))
	}
	b.LeaData(isa.R9, "arr")
	b.MovRI(isa.R8, 0)
	b.Label("loop")
	nseg := 2 + r.Intn(3)
	for s := 0; s < nseg; s++ {
		b.Label(fmt.Sprintf("seg%d", s))
		b.Alu(isa.OpXorRR, reg(), isa.R8) // operands flip every trip: both directions run
		b.CmpI(reg(), int32(r.Intn(512)))
		b.Test(reg(), reg())
		if r.Intn(2) == 0 {
			b.Jmp(fmt.Sprintf("mid%d", s))
			b.Label(fmt.Sprintf("mid%d", s))
		}
		b.Cmp(reg(), reg())
		writer()
		switch r.Intn(3) {
		case 0:
			b.Jcc(conds[r.Intn(len(conds))], fmt.Sprintf("seg%d", s+1))
			b.XorI(reg(), int32(r.Intn(1<<16)))
		case 1:
			b.Store(isa.Mem(isa.R9, int32(8*r.Intn(63))), reg())
		}
	}
	b.Label(fmt.Sprintf("seg%d", nseg))
	writer()
	b.AddI(isa.R8, 1)
	b.CmpI(isa.R8, int32(trips))
	b.Jl("loop")
	writer()
	b.Trap()
	b.Zero("arr", 512)
}

func TestTraceDifferentialFlagWriters(t *testing.T) {
	const numSeeds = 30
	for seed := int64(0); seed < numSeeds; seed++ {
		mk, db, ds := diffImage(t, seed, false, flagWriterProgram)
		diffDriveSliced(t, seed, mk, db, ds)
		diffDriveFull(t, seed, mk, db, ds)
	}
	if !tracesEnabled {
		return
	}
	// The row must run mostly inside traces and leave them through seam
	// guards on the written flags, not only at the loop's final trip.
	exits := uint64(0)
	for seed := int64(0); seed < numSeeds; seed++ {
		mk, _, _ := diffImage(t, seed, false, flagWriterProgram)
		c := mk()
		if st := c.Run(0); st.Reason != StopTrap {
			t.Fatalf("seed %d: stop = %v", seed, st)
		}
		s := c.CacheStats()
		if s.TraceInsts*2 < s.Threaded {
			t.Fatalf("seed %d: stats = %+v: want the loop to run mostly inside traces", seed, s)
		}
		exits += s.TraceExits
	}
	if exits <= 2*numSeeds {
		t.Fatalf("%d side exits over %d programs: the guards never fail mid-loop", exits, numSeeds)
	}
}

// smcCalleeProgram stores into code under a promoted trace: a hot loop
// (which promotes — its own pages are never written) patches the
// immediate of a function on a different code page every iteration and
// calls it register-indirectly. Both tiers observe the patch at the
// callee's next entry, so the run stays bit-exact against Step while
// the invalidation machinery (page stamps, sever, retranslate) grinds
// underneath.
func smcCalleeProgram(r *rand.Rand, b *asm.Builder) {
	trips := 150 + r.Intn(100)
	b.Entry("_start")
	b.Jmp("computef")
	b.Label("main")
	b.MovRI(isa.R8, 0)
	b.MovRI(isa.R4, 0)
	b.Label("loop")
	b.MovRR(isa.R3, isa.R8)
	b.AndI(isa.R3, 0xff)
	b.StoreB(isa.Mem(isa.R6, 2), isa.R3) // patch f's movri imm low byte
	b.MovRR(isa.R7, isa.R6)
	b.CallR(isa.R7)
	b.Add(isa.R4, isa.R0)
	b.AddI(isa.R8, 1)
	b.CmpI(isa.R8, int32(trips))
	b.Jl("loop")
	b.Trap()
	// Pad the patched function onto its own page so the patch stores
	// never stamp the hot loop's page (which must stay promoted).
	for i := 0; i < 4200; i++ {
		b.Nop()
	}
	b.Label("computef")
	b.Call("getpc")
	b.AddI(isa.R6, 11) // r6 = "f"
	b.Jmp("main")
	b.Func("f")
	b.MovRI(isa.R0, 1)
	b.Ret()
	b.Func("getpc")
	b.Load(isa.R6, isa.Mem(isa.SP, 0))
	b.Ret()
}

func TestTraceDifferentialSMCCallee(t *testing.T) {
	const numSeeds = 8
	for seed := int64(0); seed < numSeeds; seed++ {
		mk, db, ds := diffImage(t, seed, true, smcCalleeProgram)
		diffDriveSliced(t, seed, mk, db, ds)
		diffDriveFull(t, seed, mk, db, ds)
	}
	// The program must actually have exercised the trace tier and its
	// invalidation path, or the battery proves nothing.
	if !tracesEnabled {
		return
	}
	mk, _, _ := diffImage(t, 0, true, smcCalleeProgram)
	c := mk()
	if st := c.Run(0); st.Reason != StopTrap {
		t.Fatalf("stop = %v", st)
	}
	if s := c.CacheStats(); s.Traces == 0 || s.Flushes == 0 {
		t.Fatalf("stats = %+v: want promoted traces and SMC flushes", s)
	}
}

// memEdgeProgram is the memory-heavy row: a hot loop whose accesses sit
// on the edges the sized mem.Paged entries decline, so the compiled
// handlers' fall-through to the general Load and Store runs beside their
// hits, against Step, which only ever uses the general entries. Word
// and byte accesses in both operand shapes ([base+disp] and indexed)
// land on and across a page end inside a three-page array; push, pop,
// call and ret run with SP moved onto that page end and four bytes
// above it (their slot then straddles); every iteration patches a function in the SIP's own RWX code (a
// store the sized entries must refuse: the page is executable), reads
// the patched bytes back and runs them; and the program ends in a trap
// or in an access that straddles into the unmapped page above the stack
// — a fault the sized entry cannot raise and the general one must.
func memEdgeProgram(r *rand.Rand, b *asm.Builder) {
	bodyRegs := [...]isa.Reg{isa.R0, isa.R2, isa.R3, isa.R4, isa.R5}
	reg := func() isa.Reg { return bodyRegs[r.Intn(len(bodyRegs))] }
	trips := 100 + r.Intn(100)
	// r9 = a page end inside arr, r7 = a small index, r6 = "f",
	// r10 = the real SP while it is moved, r11 = the top of the stack.
	edge := func(n int32) isa.MemRef {
		disp := int32(r.Intn(24)) - 16 // -16..7: before, across and after the page end
		if r.Intn(3) == 0 {
			return isa.MemSIB(isa.R9, isa.R7, uint8(n), disp-n)
		}
		return isa.Mem(isa.R9, disp)
	}
	b.Entry("_start")
	b.Jmp("computef")
	b.Label("main")
	for _, rg := range bodyRegs {
		b.MovRI(rg, int64(r.Uint64()))
	}
	b.MovRR(isa.R11, isa.SP)
	b.LeaData(isa.R9, "arr")
	b.AddI(isa.R9, mem.PageSize-1)
	b.AndI(isa.R9, -mem.PageSize)
	b.AddI(isa.R9, mem.PageSize) // a page end with a mapped page on each side
	b.MovRI(isa.R7, 1)
	b.MovRI(isa.R8, 0)
	b.Label("loop")
	for k := 6 + r.Intn(8); k > 0; k-- {
		switch r.Intn(9) {
		case 0:
			b.Store(edge(8), reg())
		case 1:
			b.Load(reg(), edge(8))
		case 2:
			b.StoreB(edge(1), reg())
		case 3:
			b.LoadB(reg(), edge(1))
		case 4: // stack ops at and across the page end
			b.MovRR(isa.R10, isa.SP)
			b.MovRR(isa.SP, isa.R9)
			b.AddI(isa.SP, int32(4*r.Intn(3))) // at +4 the slot at SP-8 straddles the page end
			switch r.Intn(3) {
			case 0:
				b.Push(reg()).Pop(reg())
			case 1:
				b.I(isa.Inst{Op: isa.OpPushI, Imm: int64(int32(r.Uint32()))}).Pop(reg())
			default:
				b.Call("leaf")
			}
			b.MovRR(isa.SP, isa.R10)
		case 5: // patch f's movri immediate in RWX code, read it back, run it
			imm := isa.Mem(isa.R6, 2+int32(r.Intn(8)))
			if rg := reg(); r.Intn(2) == 0 {
				b.StoreB(imm, rg)
			} else { // a fused read-modify-write into the executable page
				b.LoadB(rg, imm).XorI(rg, int32(r.Intn(256))).StoreB(imm, rg)
			}
			b.Load(reg(), isa.Mem(isa.R6, 2))
			b.CallR(isa.R6)
			b.Add(reg(), isa.R1)
		case 8: // a read-modify-write on and across the page end
			m, rg := isa.Mem(isa.R9, int32(r.Intn(24))-16), reg()
			ld, st := isa.OpLoad, isa.OpStore
			if r.Intn(2) == 0 {
				ld, st = isa.OpLoadB, isa.OpStoreB
			}
			b.I(isa.Inst{Op: ld, R1: rg, Mem: m})
			b.MulI(rg, 31).AddI(rg, int32(r.Intn(1<<12)))
			b.I(isa.Inst{Op: st, R1: rg, Mem: m})
		default:
			b.AddI(reg(), int32(r.Intn(1<<12)))
		}
	}
	b.AddI(isa.R8, 1)
	b.CmpI(isa.R8, int32(trips))
	b.Jl("loop")
	switch r.Intn(6) { // r11 is the top of the stack: the page above is unmapped
	case 0:
		b.Load(isa.R0, isa.Mem(isa.R11, -4))
	case 4:
		b.LoadB(isa.R0, isa.Mem(isa.R11, 0))
	case 1:
		b.Store(isa.Mem(isa.R11, -4), isa.R0)
	case 2:
		b.StoreB(isa.Mem(isa.R11, 0), isa.R0)
	case 3:
		b.AddI(isa.SP, 4).Push(isa.R0)
	}
	b.Trap()
	b.Func("leaf")
	b.AddI(isa.R0, 1)
	b.Ret()
	// f sits on its own code page, as in smcCalleeProgram: patching it
	// must not stamp the hot loop's page.
	for i := 0; i < 4200; i++ {
		b.Nop()
	}
	b.Label("computef")
	b.Call("getpc")
	b.AddI(isa.R6, 11) // r6 = "f"
	b.Jmp("main")
	b.Func("f")
	b.MovRI(isa.R1, 1)
	b.Ret()
	b.Func("getpc")
	b.Load(isa.R6, isa.Mem(isa.SP, 0))
	b.Ret()
	b.Zero("arr", 3*mem.PageSize)
}

func TestTraceDifferentialMemEdges(t *testing.T) {
	const numSeeds = 40
	for seed := int64(0); seed < numSeeds; seed++ {
		mk, db, ds := diffImage(t, seed, true, memEdgeProgram)
		diffDriveSliced(t, seed, mk, db, ds)
		diffDriveFull(t, seed, mk, db, ds)
	}
	if !tracesEnabled {
		return
	}
	// The row must have engaged the trace tier and its invalidation
	// path, and ended in both ways, or it proves less than it says.
	faults := 0
	for seed := int64(0); seed < numSeeds; seed++ {
		mk, _, _ := diffImage(t, seed, true, memEdgeProgram)
		c := mk()
		st := c.Run(0)
		if st.Reason != StopTrap && (st.Reason != StopException || st.Fault == nil) {
			t.Fatalf("seed %d: stop = %v", seed, st)
		}
		if st.Fault != nil {
			faults++
		}
		if s := c.CacheStats(); s.Traces == 0 {
			t.Fatalf("seed %d: stats = %+v: want promoted traces", seed, s)
		}
	}
	if faults == 0 || faults == numSeeds {
		t.Fatalf("%d of %d programs ended in a page fault: want some of each ending", faults, numSeeds)
	}
}

// TestTraceDifferentialHostPatch patches the body of a promoted trace
// through the trusted WriteDirect interface at a run boundary — both
// memories identically — and requires the resumed runs to stay
// bit-exact: the fast CPU must sever the stale superblock, never
// executing patched-over code.
func TestTraceDifferentialHostPatch(t *testing.T) {
	gen := func(r *rand.Rand, b *asm.Builder) {
		b.Entry("_start")
		b.Call("getpc")
		b.AddI(isa.R6, 11) // r6 = "loop"
		b.Jmp("loop")
		b.Label("loop")
		b.MovRI(isa.R3, 5) // imm low byte at r6+2: the patch site
		b.Add(isa.R0, isa.R3)
		b.AddI(isa.R8, 1)
		b.CmpI(isa.R8, 300)
		b.Jl("loop")
		b.Trap()
		b.Func("getpc")
		b.Load(isa.R6, isa.Mem(isa.SP, 0))
		b.Ret()
	}
	for seed := int64(0); seed < 10; seed++ {
		mk, db, ds := diffImage(t, seed, false, gen)
		fast, slow := mk(), mk()
		r := rand.New(rand.NewSource(seed))
		patchAt := uint64(800 + r.Intn(600)) // after promotion at threshold 64
		patched := false
		var stFast, stSlow Stop
		done, sdone := false, false
		for !done && fast.Cycles < diffTraceMaxCycles {
			st := fast.Run(uint64(1 + r.Intn(97)))
			if st.Reason != StopCycles {
				stFast, done = st, true
			}
			for !sdone && slow.Cycles < fast.Cycles {
				if st, d := slow.Step(); d {
					stSlow, sdone = st, true
				}
			}
			if !patched && fast.Cycles >= patchAt && !done && !sdone {
				// Both CPUs are parked at the same boundary: rewrite the
				// movri immediate in both memories.
				if fast.Regs != slow.Regs {
					t.Fatalf("seed %d: boundary diverged before patch", seed)
				}
				site := fast.Regs[isa.R6] + 2
				for _, c := range []*CPU{fast, slow} {
					if err := c.Mem.WriteDirect(site, []byte{9}); err != nil {
						t.Fatal(err)
					}
				}
				patched = true
			}
		}
		if !done {
			t.Fatalf("seed %d: program exceeded %d cycles", seed, diffTraceMaxCycles)
		}
		if !sdone {
			st, d := slow.Step()
			if !d {
				t.Fatalf("seed %d: Run stopped (%v) but Step continues", seed, stFast)
			}
			stSlow = st
		}
		if !patched {
			t.Fatalf("seed %d: patch point %d never reached", seed, patchAt)
		}
		diffStops(t, seed, stFast, stSlow)
		diffCompareAt(t, seed, fast, slow, db, ds)
		if tracesEnabled {
			if s := fast.CacheStats(); s.Traces == 0 {
				t.Fatalf("seed %d: stats = %+v: loop never promoted", seed, s)
			}
		}
	}
}

// TestTraceDifferentialPreempt latches a preemption request against a
// warmed-up trace loop and requires delivery at the next trace exit —
// promptly, with the stop state bit-exact against a Step reference
// driven to the same retired-instruction count — then resumes both to
// completion.
func TestTraceDifferentialPreempt(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		mk, db, ds := diffImage(t, seed, false, traceProgram)
		fast, slow := mk(), mk()
		syncSlow := func() (Stop, bool) {
			for slow.Cycles < fast.Cycles {
				if st, d := slow.Step(); d {
					return st, true
				}
			}
			return Stop{}, false
		}
		// Warm up far enough that the hot path is promoted.
		warm := fast.Run(2000)
		if warm.Reason != StopCycles {
			continue // program finished cold; nothing to preempt
		}
		preempts := 0
		var stFast Stop
		finished := false
		for !finished {
			fast.RequestPreempt()
			st := fast.Run(0)
			if st.Reason != StopPreempt {
				stFast, finished = st, true
				break
			}
			preempts++
			if st.PC != fast.PC {
				t.Fatalf("seed %d: preempt stop PC %#x != cpu PC %#x", seed, st.PC, fast.PC)
			}
			if _, d := syncSlow(); d {
				t.Fatalf("seed %d: Step finished before preempted Run", seed)
			}
			diffCompareAt(t, seed, fast, slow, db, ds)
			// Make forward progress between preemptions.
			if st := fast.Run(256 + uint64(seed)*37); st.Reason != StopCycles {
				stFast, finished = st, true
			}
			if preempts > 64 {
				break
			}
		}
		if !finished { // capped the preempt loop: run free to the end
			stFast = fast.Run(0)
		}
		stSlow, d := syncSlow()
		if !d {
			if st, dd := slow.Step(); dd {
				stSlow, d = st, true
			}
		}
		if !d {
			t.Fatalf("seed %d: Run stopped (%v) but Step continues", seed, stFast)
		}
		diffStops(t, seed, stFast, stSlow)
		diffCompareAt(t, seed, fast, slow, db, ds)
		if preempts == 0 {
			t.Fatalf("seed %d: no preemption was ever delivered", seed)
		}
	}
}

// TestTraceDifferentialAsyncPreempt fires preemption requests from
// another goroutine while the hart runs free — the shape the scheduler
// uses — and checks every delivery point against the Step reference.
// Under -race this also proves the preempt path is data-race-free
// against trace execution.
func TestTraceDifferentialAsyncPreempt(t *testing.T) {
	mk, db, ds := diffImage(t, 3, false, traceProgram)
	fast, slow := mk(), mk()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				fast.RequestPreempt()
				time.Sleep(20 * time.Microsecond)
			}
		}
	}()
	var stFast Stop
	preempts := 0
	for {
		st := fast.Run(0)
		if st.Reason != StopPreempt {
			stFast = st
			break
		}
		preempts++
		if preempts > 1_000_000 {
			t.Fatal("preempt livelock: Run never completes")
		}
	}
	close(stop)
	wg.Wait()
	var stSlow Stop
	sdone := false
	for !sdone && slow.Cycles <= diffTraceMaxCycles {
		if st, d := slow.Step(); d {
			stSlow, sdone = st, true
		}
	}
	if !sdone {
		t.Fatalf("Run stopped (%v) but Step exceeded %d cycles", stFast, diffTraceMaxCycles)
	}
	diffStops(t, 3, stFast, stSlow)
	diffCompareAt(t, 3, fast, slow, db, ds)
	t.Logf("async preemptions delivered: %d", preempts)
}
