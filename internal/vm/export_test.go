package vm

// TraceShape is one superblock's shape as the external tests see it.
type TraceShape struct {
	Anchor uint64 // PC of the head block
	Slots  int    // dispatches a full run makes
	Insts  uint64 // instructions a full run retires
	Blocks int    // component blocks, unroll repeats included
}

// TraceShapes returns the shape of every superblock c holds now.
func (c *CPU) TraceShapes() []TraceShape {
	var out []TraceShape
	for _, b := range c.blocks {
		if t := b.trace; t != nil {
			out = append(out, TraceShape{t.anchor, len(t.ops), t.ninsts, t.nblocks})
		}
	}
	return out
}

// SetFusion switches the trace tier's fused slots on or off for traces
// built from now on and returns the previous setting.
func SetFusion(on bool) bool {
	old := fusionEnabled
	fusionEnabled = on
	return old
}
