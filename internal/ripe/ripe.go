// Package ripe reproduces the paper's §9.3 security evaluation: a
// RIPE-style corpus of buffer-overflow attacks run against an
// Occlum-style environment (MMDSFI-instrumented code, NX data, MPX
// bounds) and a Graphene-SGX-style environment (uninstrumented code, the
// RWX enclave page pool of §7, no MPX).
//
// Each attack builds a deliberately vulnerable program whose stack buffer
// is overflowed with an attacker-controlled payload, corrupting either
// the saved return address or a function pointer. The payload aims at
// injected shellcode, a mid-function gadget, or a legitimate library
// function (return-to-libc). Attacks run with and without a stack
// protector (canary).
//
// Success is detected exactly: the attack "shell" sets a magic register
// value and traps. The paper's findings reproduce:
//
//   - Occlum stops all code-injection attacks (mem_guard/NX) and all
//     ROP-style gadget attacks (cfi_guard), while return-to-libc attacks
//     still succeed (library functions begin with valid cfi_labels);
//   - Graphene-SGX stops none of them without a stack protector, and
//     the canary only stops the return-slot overwrites.
package ripe

import (
	"encoding/binary"
	"fmt"

	"repro/internal/asm"
	"repro/internal/baseline"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/mmdsfi"
	"repro/internal/mpx"
	"repro/internal/oelf"
	"repro/internal/vm"
)

// Env selects the defense environment.
type Env int

// Environments.
const (
	EnvOcclum Env = iota
	EnvGraphene
)

func (e Env) String() string {
	if e == EnvOcclum {
		return "Occlum"
	}
	return "Graphene-SGX"
}

// Technique is the corrupted code pointer.
type Technique int

// Techniques.
const (
	TechRet     Technique = iota // overwrite the saved return address
	TechFuncPtr                  // overwrite a function pointer local
)

func (t Technique) String() string {
	if t == TechRet {
		return "ret"
	}
	return "funcptr"
}

// Target is where the corrupted pointer aims.
type Target int

// Targets, matching the paper's attack classes.
const (
	TargetShellcode Target = iota // code injection
	TargetGadget                  // ROP-style: mid-function code
	TargetLibc                    // return-to-libc: a real function
)

func (t Target) String() string {
	switch t {
	case TargetShellcode:
		return "code-injection"
	case TargetGadget:
		return "rop"
	default:
		return "return-to-libc"
	}
}

// Attack is one corpus entry.
type Attack struct {
	Tech        Technique
	Target      Target
	BufSize     int
	ForgedLabel bool // prefix shellcode with a forged cfi_label
	StackProt   bool // compile with a stack canary
}

// GenerateCorpus enumerates the attack corpus: every technique × target ×
// buffer size, shellcode with and without a forged cfi_label, each with
// and without stack protection.
func GenerateCorpus(stackProt bool) []Attack {
	var out []Attack
	for _, tech := range []Technique{TechRet, TechFuncPtr} {
		for _, tgt := range []Target{TargetShellcode, TargetGadget, TargetLibc} {
			for _, bufSize := range []int{64, 256, 1024} {
				forged := []bool{false}
				if tgt == TargetShellcode {
					forged = []bool{false, true}
				}
				for _, f := range forged {
					out = append(out, Attack{
						Tech: tech, Target: tgt, BufSize: bufSize,
						ForgedLabel: f, StackProt: stackProt,
					})
				}
			}
		}
	}
	return out
}

// Outcome reports one attack run.
type Outcome struct {
	Attack    Attack
	Succeeded bool
	// PreventedBy names the mechanism that stopped a failed attack.
	PreventedBy string
}

// successMagic is the value the attack payload places in R0 on success.
const successMagic = 0x5EC7E7

// canary is the stack-protector value (the attacker does not know it).
const canaryValue = 0x0DD0C0DE

const abortStatus = 0xAB

// domID is the attacked program's MMDSFI domain.
const domID = 7

// buildVulnerable builds the victim program for an attack: a main that
// calls a vulnerable function which copies the payload over its stack
// frame without bounds checking, then (funcptr technique) calls through a
// local function pointer or (ret technique) returns.
//
// Frame layout (low→high): buf[BufSize] | funcptr | canary | saved-ret.
func buildVulnerable(a Attack) (*asm.Program, error) {
	b := asm.NewBuilder()
	payloadLen := a.BufSize + 8 // overflow through funcptr
	if a.Tech == TechRet {
		payloadLen = a.BufSize + 24 // through funcptr, canary and ret
	}
	b.Zero("payload", payloadLen)
	b.Zero("plen", 8)

	b.Entry("_start")
	b.Call("vuln")
	// Normal return: no effect; report 0.
	b.MovRI(isa.R0, 0)
	b.I(isa.Inst{Op: isa.OpTrap})

	b.Func("vuln")
	frame := int32(a.BufSize + 16)
	b.SubI(isa.SP, frame)
	// funcptr ← &benign (the runner patches the *payload*, not this).
	b.LoadData(isa.R2, "benignptr")
	b.Store(isa.Mem(isa.SP, int32(a.BufSize)), isa.R2)
	if a.StackProt {
		b.MovRI(isa.R2, canaryValue)
		b.Store(isa.Mem(isa.SP, int32(a.BufSize)+8), isa.R2)
	}
	// The unchecked copy: memcpy(buf, payload, *plen) — *plen exceeds
	// BufSize, the classic RIPE vulnerability.
	b.LeaData(isa.R3, "payload")
	b.MovRR(isa.R4, isa.SP)
	b.LoadData(isa.R5, "plen")
	b.Label("copy")
	b.CmpI(isa.R5, 0)
	b.Jle("copied")
	b.Load(isa.R6, isa.Mem(isa.R3, 0))
	b.Store(isa.Mem(isa.R4, 0), isa.R6)
	b.AddI(isa.R3, 8)
	b.AddI(isa.R4, 8)
	b.SubI(isa.R5, 8)
	b.Jmp("copy")
	b.Label("copied")
	b.Nop()
	if a.Tech == TechFuncPtr {
		// Call through the (now corrupted) function pointer before
		// the epilogue — which is why the canary cannot help here.
		b.Load(isa.R7, isa.Mem(isa.SP, int32(a.BufSize)))
		b.CallR(isa.R7)
	}
	if a.StackProt {
		b.Load(isa.R2, isa.Mem(isa.SP, int32(a.BufSize)+8))
		b.CmpI(isa.R2, canaryValue)
		b.Jne("smashed")
	}
	b.AddI(isa.SP, frame)
	b.Ret()
	b.Label("smashed")
	// __stack_chk_fail: abort.
	b.MovRI(isa.R0, abortStatus)
	b.I(isa.Inst{Op: isa.OpTrap})

	// benign: the legitimate funcptr target.
	b.Func("benign")
	b.AddI(isa.R1, 1)
	b.Ret()

	// "libc": a real library function whose body is the attacker's
	// goal (think system(3)). It starts with a valid cfi_label.
	b.Func("libc_system")
	b.MovRI(isa.R0, successMagic)
	b.I(isa.Inst{Op: isa.OpTrap})

	// A function containing a usable gadget *not* at a cfi_label.
	b.Func("bigfunc")
	b.AddI(isa.R1, 2)
	b.MulI(isa.R1, 3)
	b.Label("gadget") // mid-function: no cfi_label here
	b.MovRI(isa.R0, successMagic)
	b.I(isa.Inst{Op: isa.OpTrap})

	// Pointer materialization table, filled by the runner.
	b.Zero("benignptr", 8)
	return b.Finish()
}

// Run executes one attack in the given environment and classifies the
// outcome.
func Run(a Attack, env Env) (Outcome, error) {
	prog, err := buildVulnerable(a)
	if err != nil {
		return Outcome{}, err
	}
	opts := mmdsfi.Options{}
	if env == EnvOcclum {
		opts = mmdsfi.DefaultOptions()
	}
	ip, err := mmdsfi.Instrument(prog, opts)
	if err != nil {
		return Outcome{}, err
	}
	img, err := asm.Link(ip)
	if err != nil {
		return Outcome{}, err
	}

	// Load into a bare domain, then reproduce each environment's memory
	// policy.
	const base, dSize = 0x300000, 1 << 20
	cpu, err := baseline.BareDomain(img, domID, base, dSize)
	if err != nil {
		return Outcome{}, err
	}
	m, dBase := cpu.Mem, base+img.DataStart()
	if env == EnvGraphene {
		// The RWX enclave page pool of §7: data is executable. No MPX
		// programming: bounds stay permissive enough that the (absent)
		// instrumentation never fires.
		if err := m.Map(dBase, dSize, mem.PermRWX); err != nil {
			return Outcome{}, err
		}
		cpu.Bnd.Set(isa.BND0, mpx.Bound{Lower: 0, Upper: ^uint64(0)})
		cpu.Bnd.Set(isa.BND1, mpx.Bound{Lower: 0, Upper: ^uint64(0)})
	}
	stackTop := dBase + dSize

	// The attacker knows the layout (no ASLR, as in RIPE): compute the
	// frame addresses and patch the payload and plen in the data
	// region.
	// At vuln entry: SP = stackTop - 8 (pushed return address);
	// after the prologue SubI: buf = that - frame.
	frame := uint64(a.BufSize + 16)
	bufAddr := stackTop - 8 - frame
	payload, err := buildPayload(a, img, base, bufAddr)
	if err != nil {
		return Outcome{}, err
	}
	payloadAddr := dBase + uint64(img.DataSymbols["payload"])
	if err := m.WriteDirect(payloadAddr, payload); err != nil {
		return Outcome{}, err
	}
	var plen [8]byte
	binary.LittleEndian.PutUint64(plen[:], uint64(len(payload)))
	if err := m.WriteDirect(dBase+uint64(img.DataSymbols["plen"]), plen[:]); err != nil {
		return Outcome{}, err
	}
	// benignptr ← &benign.
	var bp [8]byte
	binary.LittleEndian.PutUint64(bp[:], base+uint64(img.Symbols["benign"]))
	if err := m.WriteDirect(dBase+uint64(img.DataSymbols["benignptr"]), bp[:]); err != nil {
		return Outcome{}, err
	}

	st := cpu.Run(10_000_000)
	out := Outcome{Attack: a}
	switch {
	case st.Reason == vm.StopTrap && cpu.Regs[isa.R0] == successMagic:
		out.Succeeded = true
	case st.Reason == vm.StopTrap && cpu.Regs[isa.R0] == abortStatus:
		out.PreventedBy = "stack-protector"
	case st.Reason == vm.StopException && st.Exc == vm.ExcBound:
		out.PreventedBy = "MMDSFI (#BR)"
	case st.Reason == vm.StopException && st.Exc == vm.ExcPage &&
		st.Fault != nil && st.Fault.Access == mem.AccessExec:
		out.PreventedBy = "NX data region (#PF)"
	case st.Reason == vm.StopException:
		out.PreventedBy = fmt.Sprintf("fault (%v)", st.Exc)
	default:
		out.PreventedBy = "no effect"
	}
	return out, nil
}

// buildPayload constructs the overflow bytes for an attack.
func buildPayload(a Attack, img *oelf.Image, codeBase, bufAddr uint64) ([]byte, error) {
	// The corrupted pointer's value.
	var target uint64
	switch a.Target {
	case TargetShellcode:
		target = bufAddr
	case TargetGadget:
		target = codeBase + uint64(img.Symbols["gadget"])
	case TargetLibc:
		target = codeBase + uint64(img.Symbols["libc_system"])
	}

	buf := make([]byte, a.BufSize)
	if a.Target == TargetShellcode {
		var sc []byte
		if a.ForgedLabel {
			// Forge this domain's cfi_label so the value check of
			// cfi_guard passes; only NX can stop it then.
			var err error
			sc, err = isa.Encode(sc, isa.Inst{Op: isa.OpCFILabel, DomainID: domID})
			if err != nil {
				return nil, err
			}
		}
		var err error
		sc, err = isa.Encode(sc, isa.Inst{Op: isa.OpMovRI, R1: isa.R0, Imm: successMagic})
		if err != nil {
			return nil, err
		}
		sc, err = isa.Encode(sc, isa.Inst{Op: isa.OpTrap})
		if err != nil {
			return nil, err
		}
		copy(buf, sc)
	}

	out := buf
	var tgt [8]byte
	binary.LittleEndian.PutUint64(tgt[:], target)
	switch a.Tech {
	case TechFuncPtr:
		out = append(out, tgt[:]...) // overwrite funcptr, stop
	case TechRet:
		out = append(out, tgt[:]...) // funcptr slot: don't care (same value)
		var garbage [8]byte
		binary.LittleEndian.PutUint64(garbage[:], 0x4141414141414141)
		out = append(out, garbage[:]...) // canary slot: smashed
		out = append(out, tgt[:]...)     // saved return address
	}
	return out, nil
}

// CategoryCounts summarizes outcomes by attack class.
type CategoryCounts struct {
	Total     map[Target]int
	Succeeded map[Target]int
}

// RunCorpus executes a corpus in an environment.
func RunCorpus(attacks []Attack, env Env) (CategoryCounts, []Outcome, error) {
	cc := CategoryCounts{Total: map[Target]int{}, Succeeded: map[Target]int{}}
	var outs []Outcome
	for _, a := range attacks {
		o, err := Run(a, env)
		if err != nil {
			return cc, nil, fmt.Errorf("%v/%v: %w", a.Tech, a.Target, err)
		}
		cc.Total[a.Target]++
		if o.Succeeded {
			cc.Succeeded[a.Target]++
		}
		outs = append(outs, o)
	}
	return cc, outs, nil
}
