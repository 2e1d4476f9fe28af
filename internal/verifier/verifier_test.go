package verifier

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/mmdsfi"
	"repro/internal/oelf"
)

var testKey = oelf.NewSigningKey("verifier-test")

// jmpToStart appends a direct jump back to offset 0 (the cfi_label),
// computing the rel32 from the current code length.
func jmpToStart(code []byte) []byte {
	rel := -(len(code) + 5)
	out, _ := isa.Encode(code, isa.Inst{Op: isa.OpJmp, Imm: int64(rel)})
	return out
}

func buildRaw(t testing.TB, f func(b *asm.Builder)) *asm.Program {
	t.Helper()
	b := asm.NewBuilder()
	f(b)
	p, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// compile instruments (optionally) and links a program into a binary.
func compile(t testing.TB, p *asm.Program, instrument bool) *oelf.Binary {
	t.Helper()
	var err error
	if instrument {
		p, err = mmdsfi.Instrument(p, mmdsfi.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
	}
	img, err := asm.Link(p)
	if err != nil {
		t.Fatal(err)
	}
	return oelf.FromImage("test", img)
}

// workload is a representative program: functions, loops, stack use,
// indirect control flow via return, static data.
func workload(t testing.TB) *asm.Program {
	return buildRaw(t, func(b *asm.Builder) {
		b.Bytes("table", make([]byte, 256))
		b.Entry("_start")
		b.MovRI(isa.R1, 10)
		b.Call("fill")
		b.MovRI(isa.R1, 3)
		b.MovRI(isa.R2, 4)
		b.Call("madd")
		b.Label("done")
		b.Jmp("done")

		b.Func("fill")
		b.LeaData(isa.R3, "table")
		b.MovRI(isa.R4, 0)
		b.Label("fill_loop")
		b.Store(isa.Mem(isa.R3, 0), isa.R4)
		b.AddI(isa.R3, 8)
		b.AddI(isa.R4, 1)
		b.CmpI(isa.R4, 32)
		b.Jl("fill_loop")
		b.Ret()

		b.Func("madd")
		b.Push(isa.R1)
		b.Mul(isa.R1, isa.R2)
		b.MovRR(isa.R0, isa.R1)
		b.Pop(isa.R1)
		b.Add(isa.R0, isa.R1)
		b.Ret()
	})
}

func TestInstrumentedProgramVerifies(t *testing.T) {
	bin := compile(t, workload(t), true)
	v := New(testKey)
	if err := v.VerifyAndSign(bin); err != nil {
		t.Fatalf("instrumented program rejected: %v", err)
	}
	if err := testKey.Verify(bin); err != nil {
		t.Fatalf("signature missing after VerifyAndSign: %v", err)
	}
}

func TestUninstrumentedProgramRejected(t *testing.T) {
	bin := compile(t, workload(t), false)
	err := New(testKey).Verify(bin)
	if err == nil {
		t.Fatal("uninstrumented program must be rejected")
	}
	t.Logf("rejected as expected: %v", err)
}

func stageOf(t *testing.T, err error) int {
	t.Helper()
	ve, ok := err.(*Error)
	if !ok {
		t.Fatalf("error %v is not a verifier.Error", err)
	}
	return ve.Stage
}

func TestStage1RejectsNoLabels(t *testing.T) {
	bin := oelf.FromImage("x", &oelf.Image{
		Code:      []byte{byte(isa.OpNop)},
		GuardSize: oelf.GuardSize,
	})
	err := New(testKey).Verify(bin)
	if err == nil || stageOf(t, err) != 1 {
		t.Fatalf("err = %v, want stage 1", err)
	}
}

func TestStage1RejectsInvalidInstruction(t *testing.T) {
	var code []byte
	code, _ = isa.Encode(code, isa.Inst{Op: isa.OpCFILabel})
	code = append(code, 0xEE) // undefined opcode reached by fallthrough
	bin := oelf.FromImage("x", &oelf.Image{Code: code, GuardSize: oelf.GuardSize})
	err := New(testKey).Verify(bin)
	if err == nil || stageOf(t, err) != 1 {
		t.Fatalf("err = %v, want stage 1", err)
	}
}

func TestStage1RejectsRunoffEnd(t *testing.T) {
	// A conditional branch as the last instruction falls through past
	// the end of C.
	var code []byte
	code, _ = isa.Encode(code, isa.Inst{Op: isa.OpCFILabel})
	code, _ = isa.Encode(code, isa.Inst{Op: isa.OpJe, Imm: -13})
	bin := oelf.FromImage("x", &oelf.Image{Code: code, GuardSize: oelf.GuardSize})
	err := New(testKey).Verify(bin)
	if err == nil || stageOf(t, err) != 1 {
		t.Fatalf("err = %v, want stage 1", err)
	}
}

func TestStage1RejectsOverlap(t *testing.T) {
	// A direct jump into the middle of another instruction: the jump
	// target decodes fine but overlaps the movri.
	var code []byte
	code, _ = isa.Encode(code, isa.Inst{Op: isa.OpCFILabel})
	// movri r0, imm where imm bytes decode as a nop at offset +2.
	code, _ = isa.Encode(code, isa.Inst{Op: isa.OpMovRI, R1: isa.R0, Imm: int64(isa.OpNop)})
	// jmp back into the middle of the movri (offset 8+2 = 10).
	// jmp is at offset 18, next=23; target 10 → rel = -13.
	code, _ = isa.Encode(code, isa.Inst{Op: isa.OpJmp, Imm: -13})
	bin := oelf.FromImage("x", &oelf.Image{Code: code, GuardSize: oelf.GuardSize})
	err := New(testKey).Verify(bin)
	if err == nil || stageOf(t, err) != 1 {
		t.Fatalf("err = %v, want stage 1 overlap", err)
	}
}

func TestStage1RejectsEntryNotLabel(t *testing.T) {
	var code []byte
	code, _ = isa.Encode(code, isa.Inst{Op: isa.OpCFILabel})
	code, _ = isa.Encode(code, isa.Inst{Op: isa.OpNop})
	code, _ = isa.Encode(code, isa.Inst{Op: isa.OpJmp, Imm: -14}) // loop back to label
	bin := oelf.FromImage("x", &oelf.Image{Code: code, Entry: 8, GuardSize: oelf.GuardSize})
	err := New(testKey).Verify(bin)
	if err == nil || stageOf(t, err) != 1 {
		t.Fatalf("err = %v, want stage 1 (entry not a cfi_label)", err)
	}
}

func TestStage2RejectsDangerous(t *testing.T) {
	for _, op := range []isa.Op{isa.OpEExit, isa.OpEAccept, isa.OpEModPE,
		isa.OpBndMov, isa.OpXRstor, isa.OpTrap, isa.OpHalt} {
		var code []byte
		code, _ = isa.Encode(code, isa.Inst{Op: isa.OpCFILabel})
		code, _ = isa.Encode(code, isa.Inst{Op: op, Bnd: isa.BND2, Bnd2: isa.BND3})
		code = jmpToStart(code)
		bin := oelf.FromImage("x", &oelf.Image{Code: code, GuardSize: oelf.GuardSize})
		err := New(testKey).Verify(bin)
		if err == nil || stageOf(t, err) != 2 {
			t.Fatalf("%s: err = %v, want stage 2", op, err)
		}
	}
}

func TestStage2RejectsWrFSBase(t *testing.T) {
	var code []byte
	code, _ = isa.Encode(code, isa.Inst{Op: isa.OpCFILabel})
	code, _ = isa.Encode(code, isa.Inst{Op: isa.OpWrFSBase, R1: isa.R1})
	code = jmpToStart(code)
	bin := oelf.FromImage("x", &oelf.Image{Code: code, GuardSize: oelf.GuardSize})
	err := New(testKey).Verify(bin)
	if err == nil || stageOf(t, err) != 2 {
		t.Fatalf("err = %v, want stage 2", err)
	}
}

func TestStage3RejectsUnguardedIndirect(t *testing.T) {
	var code []byte
	code, _ = isa.Encode(code, isa.Inst{Op: isa.OpCFILabel})
	code, _ = isa.Encode(code, isa.Inst{Op: isa.OpJmpR, R1: isa.R1})
	bin := oelf.FromImage("x", &oelf.Image{Code: code, GuardSize: oelf.GuardSize})
	err := New(testKey).Verify(bin)
	if err == nil || stageOf(t, err) != 3 {
		t.Fatalf("err = %v, want stage 3", err)
	}
}

func TestStage3RejectsReturn(t *testing.T) {
	var code []byte
	code, _ = isa.Encode(code, isa.Inst{Op: isa.OpCFILabel})
	code, _ = isa.Encode(code, isa.Inst{Op: isa.OpRet})
	bin := oelf.FromImage("x", &oelf.Image{Code: code, GuardSize: oelf.GuardSize})
	err := New(testKey).Verify(bin)
	if err == nil || stageOf(t, err) != 3 {
		t.Fatalf("err = %v, want stage 3", err)
	}
}

func TestStage3RejectsMemIndirect(t *testing.T) {
	var code []byte
	code, _ = isa.Encode(code, isa.Inst{Op: isa.OpCFILabel})
	code, _ = isa.Encode(code, isa.Inst{Op: isa.OpJmpM, R1: isa.R0, Mem: isa.Mem(isa.R1, 0)})
	bin := oelf.FromImage("x", &oelf.Image{Code: code, GuardSize: oelf.GuardSize})
	err := New(testKey).Verify(bin)
	if err == nil || stageOf(t, err) != 3 {
		t.Fatalf("err = %v, want stage 3", err)
	}
}

// guardedJump encodes cfi_label; cfi_guard(r1); jmpr r1 and returns the
// code plus the offsets of the pieces.
func guardedJump(t *testing.T) (code []byte, guardCL, jmpOff int) {
	t.Helper()
	var err error
	code, _ = isa.Encode(code, isa.Inst{Op: isa.OpCFILabel})
	code, err = isa.Encode(code, isa.Inst{Op: isa.OpLoad, R1: isa.GuardScratch, Mem: isa.Mem(isa.R1, 0)})
	if err != nil {
		t.Fatal(err)
	}
	guardCL = len(code)
	code, _ = isa.Encode(code, isa.Inst{Op: isa.OpBndCL, Bnd: isa.BND1, R1: isa.GuardScratch})
	code, _ = isa.Encode(code, isa.Inst{Op: isa.OpBndCU, Bnd: isa.BND1, R1: isa.GuardScratch})
	jmpOff = len(code)
	code, _ = isa.Encode(code, isa.Inst{Op: isa.OpJmpR, R1: isa.R1})
	return code, guardCL, jmpOff
}

func TestStage3AcceptsGuardedIndirect(t *testing.T) {
	code, _, _ := guardedJump(t)
	bin := oelf.FromImage("x", &oelf.Image{Code: code, GuardSize: oelf.GuardSize})
	// The guard load reads [r1] which is exempt; there are no other
	// accesses, so this passes all stages.
	if err := New(testKey).Verify(bin); err != nil {
		t.Fatalf("guarded indirect rejected: %v", err)
	}
}

// guardedJumpWithEntryJmp builds: cfi_label; jmp <guard-start+delta>;
// cfi_guard(r1); jmpr r1. The direct jmp is reachable from the label, so
// Stage 1 keeps it in R.
func guardedJumpWithEntryJmp(t *testing.T, delta int) *oelf.Binary {
	t.Helper()
	var code []byte
	code, _ = isa.Encode(code, isa.Inst{Op: isa.OpCFILabel})
	code, _ = isa.Encode(code, isa.Inst{Op: isa.OpJmp, Imm: int64(delta)}) // guard starts right after
	code, _ = isa.Encode(code, isa.Inst{Op: isa.OpLoad, R1: isa.GuardScratch, Mem: isa.Mem(isa.R1, 0)})
	code, _ = isa.Encode(code, isa.Inst{Op: isa.OpBndCL, Bnd: isa.BND1, R1: isa.GuardScratch})
	code, _ = isa.Encode(code, isa.Inst{Op: isa.OpBndCU, Bnd: isa.BND1, R1: isa.GuardScratch})
	code, _ = isa.Encode(code, isa.Inst{Op: isa.OpJmpR, R1: isa.R1})
	return oelf.FromImage("x", &oelf.Image{Code: code, GuardSize: oelf.GuardSize})
}

func TestStage3AcceptsJumpToGuardStart(t *testing.T) {
	// Landing at the start of the cfi_guard executes the whole
	// sequence — allowed.
	if err := New(testKey).Verify(guardedJumpWithEntryJmp(t, 0)); err != nil {
		t.Fatalf("jump to guard start rejected: %v", err)
	}
}

func TestStage3RejectsJumpSkippingGuard(t *testing.T) {
	// A direct jump straight to the jmpr would bypass the cfi_guard.
	// Guard layout: load (9 bytes), bndcl (3), bndcu (3), jmpr.
	err := New(testKey).Verify(guardedJumpWithEntryJmp(t, 9+3+3))
	if err == nil || stageOf(t, err) != 3 {
		t.Fatalf("err = %v, want stage 3", err)
	}
}

func TestStage3RejectsJumpIntoGuardMiddle(t *testing.T) {
	// A direct jump to the bndcu (with a stale scratch) must be
	// rejected: it would reach the jmpr with an unvalidated target.
	err := New(testKey).Verify(guardedJumpWithEntryJmp(t, 9+3))
	if err == nil || stageOf(t, err) != 3 {
		t.Fatalf("err = %v, want stage 3", err)
	}
}

func TestStage4RejectsUnguardedStore(t *testing.T) {
	var code []byte
	code, _ = isa.Encode(code, isa.Inst{Op: isa.OpCFILabel})
	code, _ = isa.Encode(code, isa.Inst{Op: isa.OpStore, R1: isa.R2, Mem: isa.Mem(isa.R1, 0)})
	code = jmpToStart(code)
	bin := oelf.FromImage("x", &oelf.Image{Code: code, GuardSize: oelf.GuardSize})
	err := New(testKey).Verify(bin)
	if err == nil || stageOf(t, err) != 4 {
		t.Fatalf("err = %v, want stage 4", err)
	}
}

func TestStage4RejectsAbsoluteOperand(t *testing.T) {
	var code []byte
	code, _ = isa.Encode(code, isa.Inst{Op: isa.OpCFILabel})
	code, _ = isa.Encode(code, isa.Inst{Op: isa.OpLoad, R1: isa.R2, Mem: isa.Abs(0x1000)})
	code = jmpToStart(code)
	bin := oelf.FromImage("x", &oelf.Image{Code: code, GuardSize: oelf.GuardSize})
	err := New(testKey).Verify(bin)
	if err == nil || stageOf(t, err) != 4 {
		t.Fatalf("err = %v, want stage 4", err)
	}
}

func TestStage4RejectsVectorScatter(t *testing.T) {
	var code []byte
	code, _ = isa.Encode(code, isa.Inst{Op: isa.OpCFILabel})
	// Pre-guard the operand so only the scatter rule can reject.
	code, _ = isa.Encode(code, isa.Inst{Op: isa.OpBndCLM, Bnd: isa.BND0, Mem: isa.Mem(isa.R1, 0)})
	code, _ = isa.Encode(code, isa.Inst{Op: isa.OpBndCUM, Bnd: isa.BND0, Mem: isa.Mem(isa.R1, 0)})
	code, _ = isa.Encode(code, isa.Inst{Op: isa.OpVScatter, R1: isa.R2, Mem: isa.Mem(isa.R1, 0)})
	code = jmpToStart(code)
	bin := oelf.FromImage("x", &oelf.Image{Code: code, GuardSize: oelf.GuardSize})
	err := New(testKey).Verify(bin)
	if err == nil || stageOf(t, err) != 4 {
		t.Fatalf("err = %v, want stage 4", err)
	}
}

// TestStage4IndexTerms: the range analysis computes an operand's address
// term by term as the OVM does. A PC-relative store at D.begin proves
// nothing once an unknown index is added to it, and an operand with an
// index but no base is judged, not indexed into the register file.
func TestStage4IndexTerms(t *testing.T) {
	pcIndexed := func(index int64) *oelf.Binary {
		var code []byte
		code, _ = isa.Encode(code, isa.Inst{Op: isa.OpCFILabel})
		if index >= 0 {
			code, _ = isa.Encode(code, isa.Inst{Op: isa.OpMovRI, R1: isa.R1, Imm: index})
		}
		next := len(code) + isa.EncodedLen(isa.OpStore)
		dBegin := int32(oelf.CodeSpan(64)+oelf.GuardSize) - int32(next) // code stays under a page
		m := isa.MemRef{Base: isa.RegPC, Index: isa.R1, Scale: 8, Disp: dBegin}
		code, _ = isa.Encode(code, isa.Inst{Op: isa.OpStore, R1: isa.R2, Mem: m})
		return oelf.FromImage("x", &oelf.Image{Code: jmpToStart(code), BSS: 64, GuardSize: oelf.GuardSize})
	}
	if err := New(testKey).Verify(pcIndexed(0)); err != nil {
		t.Fatalf("store at D.begin through pc + 0*8 rejected: %v", err)
	}
	if err := New(testKey).Verify(pcIndexed(-1)); err == nil || stageOf(t, err) != 4 {
		t.Fatalf("store through pc + r1*8 with r1 unknown: err = %v, want stage 4", err)
	}

	var code []byte
	code, _ = isa.Encode(code, isa.Inst{Op: isa.OpCFILabel})
	code, _ = isa.Encode(code, isa.Inst{Op: isa.OpStore, R1: isa.R2,
		Mem: isa.MemRef{Base: isa.RegNone, Index: isa.R1, Scale: 8}})
	bin := oelf.FromImage("x", &oelf.Image{Code: jmpToStart(code), GuardSize: oelf.GuardSize})
	if err := New(testKey).Verify(bin); err == nil || stageOf(t, err) != 4 {
		t.Fatalf("store through r1*8 with no base: err = %v, want stage 4", err)
	}
}

func TestStage4AcceptsGuardedStore(t *testing.T) {
	var code []byte
	code, _ = isa.Encode(code, isa.Inst{Op: isa.OpCFILabel})
	code, _ = isa.Encode(code, isa.Inst{Op: isa.OpBndCLM, Bnd: isa.BND0, Mem: isa.Mem(isa.R1, 0)})
	code, _ = isa.Encode(code, isa.Inst{Op: isa.OpBndCUM, Bnd: isa.BND0, Mem: isa.Mem(isa.R1, 0)})
	code, _ = isa.Encode(code, isa.Inst{Op: isa.OpStore, R1: isa.R2, Mem: isa.Mem(isa.R1, 0)})
	code = jmpToStart(code)
	bin := oelf.FromImage("x", &oelf.Image{Code: code, GuardSize: oelf.GuardSize})
	if err := New(testKey).Verify(bin); err != nil {
		t.Fatalf("guarded store rejected: %v", err)
	}
}

func TestFuzzMutationsNeverPanic(t *testing.T) {
	bin := compile(t, workload(t), true)
	v := New(testKey)
	if err := v.Verify(bin); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 500; i++ {
		mut := *bin
		mut.Image.Code = append([]byte(nil), bin.Image.Code...)
		// Flip 1-4 random bytes.
		for j := 0; j < 1+rng.Intn(4); j++ {
			mut.Image.Code[rng.Intn(len(mut.Image.Code))] ^= byte(1 + rng.Intn(255))
		}
		// The verifier must terminate without panicking; acceptance
		// is allowed only if the mutation kept the binary compliant.
		_ = v.Verify(&mut)
	}
}

// handmade is a compliant binary written without the toolchain: raw
// encoded instructions in an oelf.Image, no asm types and no Instrument.
func handmade() *oelf.Binary {
	var code []byte
	code, _ = isa.Encode(code, isa.Inst{Op: isa.OpCFILabel})
	code, _ = isa.Encode(code, isa.Inst{Op: isa.OpMovRI, R1: isa.R2, Imm: 1})
	code, _ = isa.Encode(code, isa.Inst{Op: isa.OpBndCLM, Bnd: isa.BND0, Mem: isa.Mem(isa.R5, 16)})
	code, _ = isa.Encode(code, isa.Inst{Op: isa.OpBndCUM, Bnd: isa.BND0, Mem: isa.Mem(isa.R5, 16)})
	code, _ = isa.Encode(code, isa.Inst{Op: isa.OpStore, R1: isa.R2, Mem: isa.Mem(isa.R5, 16)})
	// Redundant-by-refinement second store within guard slack.
	code, _ = isa.Encode(code, isa.Inst{Op: isa.OpStore, R1: isa.R2, Mem: isa.Mem(isa.R5, 24)})
	code = jmpToStart(code)
	return oelf.FromImage("handmade", &oelf.Image{Code: code, GuardSize: oelf.GuardSize})
}

func TestVerifierIndependentOfToolchain(t *testing.T) {
	// The verifier accepts compliant binaries regardless of origin:
	// hand-written instrumented code (not produced by Instrument).
	if err := New(testKey).Verify(handmade()); err != nil {
		t.Fatalf("hand-made compliant binary rejected: %v", err)
	}
}

// FuzzVerify feeds the verifier arbitrary images — code, data, BSS,
// entry and guard size — seeded with the instrumented workload and the
// hand-made binary. Every input gets a verdict that does not panic and
// does not change between two calls (nor does its error text); a
// rejection is a *Error naming stage 0–4; and an accepted binary still
// verifies after Marshal and Unmarshal. The image's fields are fuzzed
// rather than its encoding so that mutations reach the four stages
// instead of the OELF parser, which has tests of its own.
func FuzzVerify(f *testing.F) {
	for _, bin := range []*oelf.Binary{compile(f, workload(f), true), handmade()} {
		im := bin.Image
		f.Add(im.Code, im.Data, im.BSS, im.Entry, im.GuardSize)
	}
	v := New(testKey)
	f.Fuzz(func(t *testing.T, code, data []byte, bss, entry, guard uint32) {
		bin := oelf.FromImage("fuzz", &oelf.Image{Code: code, Data: data, BSS: bss, Entry: entry, GuardSize: guard})
		err1, err2 := v.Verify(bin), v.Verify(bin)
		if fmt.Sprint(err1) != fmt.Sprint(err2) {
			t.Fatalf("verdict changed between two calls: %v, then %v", err1, err2)
		}
		if err1 != nil {
			if ve, ok := err1.(*Error); !ok || ve.Stage < 0 || ve.Stage > 4 {
				t.Fatalf("rejection %v (%T) is not a *verifier.Error of stage 0-4", err1, err1)
			}
			return
		}
		again, err := oelf.Unmarshal(bin.Marshal())
		if err != nil {
			t.Fatalf("accepted binary does not unmarshal after Marshal: %v", err)
		}
		if err := v.Verify(again); err != nil {
			t.Fatalf("accepted binary rejected after Marshal and Unmarshal: %v", err)
		}
	})
}

func BenchmarkVerify(b *testing.B) {
	bin := compile(b, workload(b), true)
	v := New(testKey)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := v.Verify(bin); err != nil {
			b.Fatal(err)
		}
	}
}
