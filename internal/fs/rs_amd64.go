package fs

// The vector leaves on amd64: AVX2 split-nibble multiplies in
// rs_amd64.s, chosen once at init by hasAVX2.

// hasAVX2 reports whether the CPU has AVX2 and the OS saves the YMM
// registers across context switches (CPUID.1:ECX.OSXSAVE and AVX,
// XCR0's SSE and AVX state bits, CPUID.7.0:EBX.AVX2).
func hasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx1&(osxsave|avx) != osxsave|avx || xgetbv()&0b110 != 0b110 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<5) != 0
}

func vec4x2(set bool, t *nibBlock, s0, s1, s2, s3, o0, o1 []byte) {
	if set {
		set4x2AVX2(t, s0, s1, s2, s3, o0, o1)
	} else {
		xor4x2AVX2(t, s0, s1, s2, s3, o0, o1)
	}
}

func vec4x1(set bool, t *nibBlock, s0, s1, s2, s3, o0 []byte) {
	if set {
		set4x1AVX2(t, s0, s1, s2, s3, o0)
	} else {
		xor4x1AVX2(t, s0, s1, s2, s3, o0)
	}
}

// The leaves take len(s0), a multiple of vecWidth, as their byte count.

//go:noescape
func set4x2AVX2(t *nibBlock, s0, s1, s2, s3, o0, o1 []byte)

//go:noescape
func xor4x2AVX2(t *nibBlock, s0, s1, s2, s3, o0, o1 []byte)

//go:noescape
func set4x1AVX2(t *nibBlock, s0, s1, s2, s3, o0 []byte)

//go:noescape
func xor4x1AVX2(t *nibBlock, s0, s1, s2, s3, o0 []byte)

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax uint32)
