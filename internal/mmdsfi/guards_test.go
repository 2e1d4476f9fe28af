package mmdsfi_test

import (
	"errors"
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/mmdsfi"
	"repro/internal/oelf"
	"repro/internal/verifier"
	"repro/internal/workloads"
)

// loopGuards counts the bndclm/bndcum in the loop whose head carries
// label, from the head to its back edge.
func loopGuards(t *testing.T, p *asm.Program, label string) int {
	t.Helper()
	head := -1
	for i, it := range p.Items {
		for _, l := range it.Labels {
			if l == label {
				head = i
			}
		}
		if head >= 0 && it.Inst.Op.IsDirectBranch() && it.Inst.Label == label {
			n := 0
			for _, g := range p.Items[head : i+1] {
				if g.Inst.Op == isa.OpBndCLM || g.Inst.Op == isa.OpBndCUM {
					n++
				}
			}
			return n
		}
	}
	t.Fatalf("no loop %q", label)
	return 0
}

// TestSortCountingLoopUnguarded: in sort's counting loop,
// counts[loadb(buf[i]) << 3] is a data symbol plus a byte scaled into
// [0, 2040], which the analysis proves inside the guard window, so the
// loop keeps no mem_guard. The emit loop's counts[v << 3] keeps its
// guards: v is bounded only by the loop's branch condition, a fact the
// analysis does not take.
func TestSortCountingLoopUnguarded(t *testing.T) {
	p, err := workloads.BuildSort()
	if err != nil {
		t.Fatal(err)
	}
	ip, err := mmdsfi.Instrument(p, mmdsfi.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if n := loopGuards(t, ip, "cloop"); n != 0 {
		t.Errorf("counting loop keeps %d bound checks, want 0", n)
	}
	if n := loopGuards(t, ip, "eloop"); n == 0 {
		t.Errorf("emit loop keeps no bound check: the analysis now refines on branch conditions; update DESIGN.md")
	}
}

// byteIndexed loads counts[loadb(buf[0]) << shift].
func byteIndexed(t *testing.T, shift int32) *asm.Program {
	t.Helper()
	b := asm.NewBuilder()
	b.Zero("buf", 16)
	b.Zero("counts", 256*8)
	b.Entry("_start")
	b.LeaData(isa.R4, "buf")
	b.LoadB(isa.R6, isa.Mem(isa.R4, 0))
	b.ShlI(isa.R6, shift)
	b.LeaData(isa.R8, "counts")
	b.Add(isa.R8, isa.R6)
	b.Load(isa.R9, isa.Mem(isa.R8, 0))
	b.Label("end")
	b.Jmp("end")
	p, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestShiftedByteIndexGuards: a byte shifted by 3 indexes inside the
// guard window and needs no guard; shifted by 13 it reaches 2 MiB past
// the table and keeps its guard, and the verifier rejects the binary
// with that guard deleted.
func TestShiftedByteIndexGuards(t *testing.T) {
	guards := func(p *asm.Program) int {
		n := 0
		for _, it := range p.Items {
			if it.Inst.Op == isa.OpBndCLM {
				n++
			}
		}
		return n
	}
	near, err := mmdsfi.Instrument(byteIndexed(t, 3), mmdsfi.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if n := guards(near); n != 0 {
		t.Errorf("shli 3: %d guards, want 0", n)
	}
	far, err := mmdsfi.Instrument(byteIndexed(t, 13), mmdsfi.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if n := guards(far); n != 1 {
		t.Fatalf("shli 13: %d guards, want 1", n)
	}

	v := verifier.New(oelf.NewSigningKey("guards"))
	verify := func(p *asm.Program) error {
		img, err := asm.Link(p)
		if err != nil {
			t.Fatal(err)
		}
		return v.Verify(oelf.FromImage("far", img))
	}
	if err := verify(far); err != nil {
		t.Fatalf("guarded binary rejected: %v", err)
	}
	var stripped []asm.Item
	for _, it := range far.Items {
		if it.Inst.Op != isa.OpBndCLM && it.Inst.Op != isa.OpBndCUM {
			stripped = append(stripped, it)
		}
	}
	far.Items = stripped
	var verr *verifier.Error
	if err := verify(far); !errors.As(err, &verr) || verr.Stage != 4 {
		t.Fatalf("binary without its guard: %v, want a stage 4 rejection", err)
	}
}
