//go:build !amd64

package fs

// No vector leaves off amd64: every pass runs the portable leaves.

func hasAVX2() bool { return false }

func vec4x2(bool, *nibBlock, []byte, []byte, []byte, []byte, []byte, []byte) {
	panic("fs: rs: no vector leaves on this architecture")
}

func vec4x1(bool, *nibBlock, []byte, []byte, []byte, []byte, []byte) {
	panic("fs: rs: no vector leaves on this architecture")
}
