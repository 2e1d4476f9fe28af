package verifier

import (
	"repro/internal/oelf"
	"repro/internal/verifier/analysis"
)

// Stage4Analysis disassembles b as Stage 1 does and runs the range
// analysis over it as Stage 4 does. Node i of code is the instruction at
// code offset offs[i].
func Stage4Analysis(b *oelf.Binary) (offs []int, code *analysis.Code, res *analysis.Result, err error) {
	r, err := disassemble(b.Image.Code)
	if err != nil {
		return nil, nil, nil, err
	}
	code, err = buildCode(b, r)
	if err != nil {
		return nil, nil, nil, err
	}
	offs = make([]int, len(r))
	for i, ri := range r {
		offs[i] = ri.off
	}
	return offs, code, analysis.Analyze(code, nil), nil
}
