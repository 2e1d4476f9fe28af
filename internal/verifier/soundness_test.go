package verifier_test

// The abstraction-soundness check of the range analysis, the part of the
// verifier's TCB that decides which accesses need no guard. It runs
// instrumented programs under vm.Step and, before every instruction
// that retires, checks the concrete registers against the abstract state
// the analysis gave that instruction, up to the program's first fault.

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strconv"
	"testing"

	"repro/internal/asm"
	"repro/internal/baseline"
	"repro/internal/isa"
	"repro/internal/libos"
	"repro/internal/mem"
	"repro/internal/mmdsfi"
	"repro/internal/oelf"
	"repro/internal/verifier"
	"repro/internal/verifier/analysis"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// soundSeed seeds the random programs; OCCLUM_SOUND_SEED replays
// another seed.
const soundSeed = 45

// sipRun is one instrumented program loaded the way the LibOS loads it
// (trampoline page, code, guard gap, data and stack, trailing guard),
// with its analysis.
type sipRun struct {
	name     string
	cpu      *vm.CPU
	codeBase uint64
	dBase    uint64
	dEnd     uint64
	node     map[uint64]int // code offset → analysis node
	code     *analysis.Code
	res      *analysis.Result
	sys      func(r *sipRun) bool
}

const (
	soundBase  = 0x100000
	soundDomID = 0x45
	soundStack = 64 << 10
)

// loadSIP instruments p, links, verifies and analyses it, and maps it.
func loadSIP(t *testing.T, name string, p *asm.Program) *sipRun {
	t.Helper()
	ip, err := mmdsfi.Instrument(p, mmdsfi.DefaultOptions())
	if err != nil {
		t.Fatalf("%s: instrument: %v", name, err)
	}
	img, err := asm.Link(ip)
	if err != nil {
		t.Fatalf("%s: link: %v", name, err)
	}
	bin := oelf.FromImage(name, img)
	if err := verifier.New(oelf.NewSigningKey("sound")).Verify(bin); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	offs, code, res, err := verifier.Stage4Analysis(bin)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	r := &sipRun{name: name, code: code, res: res, node: make(map[uint64]int, len(offs))}
	for i, off := range offs {
		r.node[uint64(off)] = i
	}

	r.codeBase = soundBase + mem.PageSize
	r.dBase = r.codeBase + img.DataStart()
	dSize := (img.MinDataSize() + soundStack + 2*mem.PageSize - 1) / mem.PageSize * mem.PageSize
	r.dEnd = r.dBase + dSize
	if r.cpu, err = baseline.BareDomain(img, soundDomID, r.codeBase, dSize); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if _, _, err = libos.SetupUserStack(r.cpu.Mem, r.cpu, soundBase, r.dBase, dSize, soundStack, img.MinDataSize(), "/bin/"+name, nil); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	r.sys = func(*sipRun) bool { return false }
	return r
}

// contains reports whether the concrete value x lies in the abstract
// value v: a KConst as a signed interval, a KDPtr relative to the
// data region [dBase, dEnd).
func (r *sipRun) contains(v analysis.AVal, x uint64) bool {
	switch v.K {
	case analysis.KTop:
		return true
	case analysis.KConst:
		return v.Lo <= int64(x) && int64(x) <= v.Hi
	case analysis.KDPtr:
		return satAdd(int64(r.dBase), v.Lo) <= int64(x) && int64(x) <= satAdd(int64(r.dEnd)-1, v.Hi)
	}
	return false
}

func satAdd(a, b int64) int64 {
	s := a + b
	switch {
	case b > 0 && s < a:
		return math.MaxInt64
	case b < 0 && s > a:
		return math.MinInt64
	}
	return s
}

// ea is the concrete effective address of m, as vm.CPU computes it.
func ea(c *vm.CPU, m isa.MemRef, next uint64) uint64 {
	var a uint64
	switch {
	case m.IsPCRel():
		a = next
	case m.Base.Valid():
		a = c.Regs[m.Base]
	}
	if m.HasIndex() {
		a += c.Regs[m.Index] * uint64(m.Scale)
	}
	return a + uint64(int64(m.Disp))
}

// run steps r for at most maxSteps instructions and returns how many
// retired inside the analysed code. Before each one it checks every
// register against the analysis, and that each access the analysis
// proved lands within [D.begin-G, D.end+G). It stops at the first fault,
// at exit, or at a self-loop.
func (r *sipRun) run(t *testing.T, maxSteps int) int {
	t.Helper()
	c := r.cpu
	g := uint64(r.code.GuardSize)
	checked := 0
	for step := 0; step < maxSteps; step++ {
		pc := c.PC
		if i, ok := r.node[pc-r.codeBase]; ok && pc >= r.codeBase {
			in := r.res.In[i]
			nd := &r.code.Nodes[i]
			if !in.Reachable {
				t.Fatalf("%s: %#x (%s) executed, but the analysis found it unreachable", r.name, pc-r.codeBase, nd.Inst.Op)
			}
			for reg, v := range in.Regs {
				if x := c.Regs[reg]; !r.contains(v, x) {
					t.Fatalf("%s: at %#x (%s), r%d = %#x (%d; D = [%#x, %#x)) is outside the analysis's %v",
						r.name, pc-r.codeBase, nd.Inst.Op, reg, x, int64(x), r.dBase, r.dEnd, v)
				}
			}
			if r.res.Proven[i] && !nd.Exempt && nd.Inst.Op != isa.OpVScatter {
				for _, a := range analysis.Accesses(nd.Inst) {
					addr := ea(c, a.Mem, pc+nd.Next-nd.Addr)
					if addr < r.dBase-g || addr+uint64(a.Size) > r.dEnd+g {
						t.Fatalf("%s: at %#x (%s), a proven access reaches %#x, outside [D.begin-G, D.end+G) = [%#x, %#x)",
							r.name, pc-r.codeBase, nd.Inst.Op, addr, r.dBase-g, r.dEnd+g)
					}
				}
			}
			checked++
		}
		st, stopped := c.Step()
		if !stopped {
			if c.PC == pc {
				return checked // a self-loop: the program's end
			}
			continue
		}
		if st.Reason != vm.StopTrap || !r.syscall() {
			return checked
		}
	}
	return checked
}

// syscall returns from the trampoline the way the LibOS does: pop the
// return address, set R0, resume there. It reports false at exit.
func (r *sipRun) syscall() bool {
	c := r.cpu
	ret, f := c.Mem.Load(c.Regs[isa.SP], 8)
	if f != nil {
		return false
	}
	c.Regs[isa.SP] += 8
	if !r.sys(r) {
		return false
	}
	c.PC = ret
	return true
}

// serve answers the syscalls the workload programs make: reads come from
// input and then EOF, accepts succeed accepts times and then fail, and
// everything else succeeds with what a program expects.
func serve(input []byte, accepts int, req string) func(r *sipRun) bool {
	in := input
	pending := ""
	return func(r *sipRun) bool {
		c := r.cpu
		a1, a2, a3 := c.Regs[isa.R1], c.Regs[isa.R2], c.Regs[isa.R3]
		ret := int64(0)
		switch c.Regs[isa.R0] {
		case libos.SysExit:
			return false
		case libos.SysRead:
			src := in
			if pending != "" {
				src = []byte(pending)
			}
			n := min(int(a3), len(src))
			if c.Mem.WriteAt(a2, src[:n]) != nil {
				return false
			}
			if pending != "" {
				pending = ""
			} else {
				in = in[n:]
			}
			ret = int64(n)
		case libos.SysWrite, libos.SysSend:
			ret = int64(a3)
		case libos.SysWritev:
			ret = 1
		case libos.SysAccept:
			if accepts == 0 {
				ret = -libos.EBADF
			} else {
				accepts--
				pending = req
				ret = 7
			}
		case libos.SysOpen:
			ret = 3
		case libos.SysSpawn:
			ret = 2
		case libos.SysWait4:
			ret = int64(a1)
		case libos.SysDup2:
			ret = int64(a2)
		case libos.SysPipe2:
			var fds [16]byte
			binary.LittleEndian.PutUint64(fds[:], 3)
			binary.LittleEndian.PutUint64(fds[8:], 4)
			if c.Mem.WriteAt(a1, fds[:]) != nil {
				ret = -libos.EFAULT
			}
		}
		c.Regs[isa.R0] = uint64(ret)
		return true
	}
}

// soundProgram is a random program biased to the facts the analysis
// takes from the ISA: byte loads, shifts (past the guard and past 63
// too), masks, sums and lea chains that index a table with a loaded
// byte and feed loads and stores, inside counted loops, with a call.
// Registers start as data pointers or small constants. An index shifted
// past D, or (in one program of eight) an access through whatever a
// register holds, ends the run at its fault.
func soundProgram(rng *rand.Rand) (*asm.Program, error) {
	b := asm.NewBuilder()
	raw := make([]byte, 512)
	rng.Read(raw)
	b.Bytes("bytes", raw)
	b.Zero("table", 256*8)
	b.Zero("tail", 64)
	b.Entry("_start")
	regs := []isa.Reg{isa.R1, isa.R2, isa.R3, isa.R4, isa.R5, isa.R6, isa.R7, isa.R8, isa.R9, isa.R11}
	pick := func() isa.Reg { return regs[rng.Intn(len(regs))] }
	two := func() (isa.Reg, isa.Reg) {
		r := pick()
		for {
			if q := pick(); q != r {
				return r, q
			}
		}
	}
	syms := []string{"bytes", "table", "tail"}
	sym := func() string { return syms[rng.Intn(len(syms))] }
	// Index shifts stay inside D up to 8 and prove up to 4; any shift
	// may hit a plain register.
	index := []int32{0, 1, 2, 3, 3, 3, 3, 4, 5, 8, 13}
	shifts := []int32{0, 1, 3, 7, 12, 13, 40, 52, 55, 56, 57, 60, 62, 63, 64, 67, -1}
	access := func(m isa.MemRef) {
		r := pick()
		switch rng.Intn(4) {
		case 0:
			b.Load(r, m)
		case 1:
			b.Store(m, r)
		case 2:
			b.LoadB(r, m)
		default:
			b.StoreB(m, r)
		}
	}
	for _, r := range regs {
		if rng.Intn(2) == 0 {
			b.LeaData(r, sym())
		} else {
			b.MovRI(r, int64(rng.Intn(300)))
		}
	}
	wild := rng.Intn(8) == 0
	for blk := 0; blk < 2+rng.Intn(3); blk++ {
		loop := fmt.Sprintf("L%d", blk)
		b.MovRI(isa.R0, int64(1+rng.Intn(6)))
		b.Label(loop)
		for i := 0; i < 4+rng.Intn(10); i++ {
			switch k := rng.Intn(20); {
			case k < 6: // [sym + (loadb(bytes[d]) << s (& mask)) + d']
				r, q := two()
				b.LeaData(q, "bytes")
				b.LoadB(r, isa.Mem(q, int32(rng.Intn(len(raw)))))
				b.ShlI(r, index[rng.Intn(len(index))])
				if rng.Intn(4) == 0 {
					b.AndI(r, int32(rng.Intn(1<<12)))
				}
				b.LeaData(q, sym())
				if rng.Intn(3) == 0 {
					b.AddI(q, int32(rng.Intn(64)))
				}
				b.Add(q, r)
				access(isa.Mem(q, int32(rng.Intn(48))-16))
			case k < 9: // a loaded byte shifted by anything
				r, q := two()
				b.LeaData(q, sym())
				b.LoadB(r, isa.Mem(q, int32(rng.Intn(64))))
				b.ShlI(r, shifts[rng.Intn(len(shifts))])
			case k < 10:
				b.ShlI(pick(), shifts[rng.Intn(len(shifts))])
			case k < 11:
				b.AndI(pick(), int32(rng.Intn(1<<16))-1024)
			case k < 12:
				r, q := two()
				b.Add(r, q)
			case k < 13:
				r, q := two()
				b.Sub(r, q)
			case k < 14:
				b.MovRI(pick(), rng.Int63n(1<<62)-1<<61)
			case k < 15:
				b.AddI(pick(), int32(rng.Intn(4096))-2048)
			case k < 16:
				b.MulI(pick(), int32(rng.Intn(64))-8)
			case k < 17:
				b.Push(pick())
				b.Pop(pick())
			case k < 18:
				b.Call("fn")
			case k < 19 && wild:
				access(isa.Mem(pick(), int32(rng.Intn(64))))
			default:
				r := pick()
				b.LeaData(r, sym())
				access(isa.Mem(r, int32(rng.Intn(64))))
			}
		}
		b.SubI(isa.R0, 1)
		b.CmpI(isa.R0, 0)
		b.Jg(loop)
	}
	b.Label("end")
	b.Jmp("end")
	b.Func("fn")
	b.LeaData(isa.R5, "bytes")
	b.LoadB(isa.R6, isa.Mem(isa.R5, 3))
	b.ShlI(isa.R6, 3)
	b.Ret()
	return b.Finish()
}

// TestAnalysisSoundness is the range analysis's abstraction-soundness
// check: 300 random programs and the five workloads' instrumented
// stages run under vm.Step, and at every instruction each register's
// concrete value lies inside the abstract value the analysis gave that
// point, and each access it proved lands within [D.begin-G, D.end+G).
func TestAnalysisSoundness(t *testing.T) {
	seed := int64(soundSeed)
	if s := os.Getenv("OCCLUM_SOUND_SEED"); s != "" {
		var err error
		if seed, err = strconv.ParseInt(s, 10, 64); err != nil {
			t.Fatal(err)
		}
	}
	steps := 0
	t.Run("random", func(t *testing.T) {
		for n := 0; n < 300; n++ {
			rng := rand.New(rand.NewSource(seed*1000 + int64(n)))
			p, err := soundProgram(rng)
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("seed %d program %d (replay: OCCLUM_SOUND_SEED=%d)", seed, n, seed)
			steps += loadSIP(t, name, p).run(t, 20000)
		}
	})

	rng := rand.New(rand.NewSource(seed))
	input := make([]byte, 2*4096+777)
	rng.Read(input)
	file := make([]byte, 4*4096)
	rng.Read(file)
	for _, w := range []struct {
		name  string
		build func() (*asm.Program, error)
		sys   func(r *sipRun) bool
	}{
		{"od", workloads.BuildOd, serve(input, 0, "")},
		{"grep", workloads.BuildGrep, serve(input, 0, "")},
		{"sort", workloads.BuildSort, serve(input, 0, "")},
		{"wc", workloads.BuildWc, serve(input, 0, "")},
		{"fish", func() (*asm.Program, error) {
			return workloads.BuildPipelineDriver("/data/fish.in", workloads.FishStages)
		}, serve(nil, 0, "")},
		{"cc1", func() (*asm.Program, error) { return workloads.BuildCompilerStage(3, 0) }, serve(input, 0, "")},
		{"httpd", workloads.BuildHTTPWorker, serve(nil, 3, "GET / HTTP/1.0\r\n\r\n")},
		{"fs_write", func() (*asm.Program, error) {
			return workloads.BuildSeqFileIO("/data/out.bin", len(file), 4096, true)
		}, serve(nil, 0, "")},
		{"fs_read", func() (*asm.Program, error) {
			return workloads.BuildSeqFileIO("/data/in.bin", len(file), 4096, false)
		}, serve(file, 0, "")},
	} {
		t.Run(w.name, func(t *testing.T) {
			p, err := w.build()
			if err != nil {
				t.Fatal(err)
			}
			r := loadSIP(t, w.name, p)
			r.sys = w.sys
			steps += r.run(t, 400000)
		})
	}
	t.Logf("seed %d: %d instructions checked", seed, steps)
}
