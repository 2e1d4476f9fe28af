package isa

// ReadsFlags reports whether op reads the comparison flags: the
// flag-based conditional branches. OpLoop branches on a register and
// reads no flags. The vm builds its branch truth tables and its
// compare+branch fusion over exactly this set (pinned by
// TestFlagMetadata).
func (op Op) ReadsFlags() bool {
	switch op {
	case OpJe, OpJne, OpJl, OpJle, OpJg, OpJge, OpJb, OpJae:
		return true
	}
	return false
}
