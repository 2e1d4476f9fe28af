#include "textflag.h"

// The AVX2 leaves of the RS kernel (rs.go, rs_amd64.go): the four-column
// passes, 32 byte positions per step, by the split-nibble multiply. For
// a coefficient c, c·x = lo[x&15] ^ hi[x>>4], where lo and hi are c's
// 16-entry products of the low and the high nibbles (nibBlock), and
// VPSHUFB looks up 32 nibbles in a 16-byte table at once. Each leaf
// takes the length of s0, a multiple of 32, as its byte count; the
// others are at least as long.
//
// Registers: Y0/Y1 the low/high nibbles of the current input, Y2/Y3
// products, Y4–Y11 tables held across the loop, Y12/Y13 the output
// accumulators, Y15 the nibble mask. nibBlock puts column j's row-r
// table pair at 128j + 64r (lo, then hi 32 bytes on).

// NIBMASK broadcasts 0x0f to every byte of Y15.
#define NIBMASK \
	MOVQ         $0x0f0f0f0f0f0f0f0f, DX; \
	MOVQ         DX, X15; \
	VPBROADCASTQ X15, Y15

// SPLIT loads 32 input bytes at src+BX: low nibbles to Y0, high to Y1.
#define SPLIT(src) \
	VMOVDQU (src)(BX*1), Y0; \
	VPSRLQ  $4, Y0, Y1; \
	VPAND   Y15, Y0, Y0; \
	VPAND   Y15, Y1, Y1

// FIRST sets acc to the product of Y0/Y1 by the tables lo, hi.
#define FIRST(lo, hi, acc) \
	VPSHUFB Y0, lo, Y2; \
	VPSHUFB Y1, hi, Y3; \
	VPXOR   Y2, Y3, acc

// FOLD XORs the product of Y0/Y1 by the tables lo, hi into acc.
#define FOLD(lo, hi, acc) \
	VPSHUFB Y0, lo, Y2; \
	VPSHUFB Y1, hi, Y3; \
	VPXOR   Y2, acc, acc; \
	VPXOR   Y3, acc, acc

// FOLDMEM is FOLD with the tables read from the nibBlock at AX.
#define FOLDMEM(lo, hi, acc) \
	VMOVDQU lo(AX), Y2; \
	VPSHUFB Y0, Y2, Y2; \
	VMOVDQU hi(AX), Y3; \
	VPSHUFB Y1, Y3, Y3; \
	VPXOR   Y2, acc, acc; \
	VPXOR   Y3, acc, acc

// ARGS loads the nibBlock, the inputs, the first output and the count
// of 32-byte steps (CX), and jumps to done when there is none.
#define ARGS \
	MOVQ t+0(FP), AX; \
	MOVQ s0_base+8(FP), SI; \
	MOVQ s0_len+16(FP), CX; \
	MOVQ s1_base+32(FP), DI; \
	MOVQ s2_base+56(FP), R8; \
	MOVQ s3_base+80(FP), R9; \
	MOVQ o0_base+104(FP), R10; \
	SHRQ $5, CX; \
	JZ   done

// TABLES2 holds the row-pair tables of columns 0 and 1 in Y4–Y11.
#define TABLES2 \
	VMOVDQU 0(AX), Y4; \
	VMOVDQU 32(AX), Y5; \
	VMOVDQU 64(AX), Y6; \
	VMOVDQU 96(AX), Y7; \
	VMOVDQU 128(AX), Y8; \
	VMOVDQU 160(AX), Y9; \
	VMOVDQU 192(AX), Y10; \
	VMOVDQU 224(AX), Y11

// TABLES1 holds the row-0 tables of all four columns in Y4–Y11.
#define TABLES1 \
	VMOVDQU 0(AX), Y4; \
	VMOVDQU 32(AX), Y5; \
	VMOVDQU 128(AX), Y6; \
	VMOVDQU 160(AX), Y7; \
	VMOVDQU 256(AX), Y8; \
	VMOVDQU 288(AX), Y9; \
	VMOVDQU 384(AX), Y10; \
	VMOVDQU 416(AX), Y11

// FOLD2REST folds inputs 1–3 into both rows' accumulators; columns 2
// and 3 have no registers left and read their tables each step.
#define FOLD2REST \
	SPLIT(DI); \
	FOLD(Y8, Y9, Y12); \
	FOLD(Y10, Y11, Y13); \
	SPLIT(R8); \
	FOLDMEM(256, 288, Y12); \
	FOLDMEM(320, 352, Y13); \
	SPLIT(R9); \
	FOLDMEM(384, 416, Y12); \
	FOLDMEM(448, 480, Y13)

// FOLD1REST folds inputs 1–3 into the one row's accumulator.
#define FOLD1REST \
	SPLIT(DI); \
	FOLD(Y6, Y7, Y12); \
	SPLIT(R8); \
	FOLD(Y8, Y9, Y12); \
	SPLIT(R9); \
	FOLD(Y10, Y11, Y12)

// func set4x2AVX2(t *nibBlock, s0, s1, s2, s3, o0, o1 []byte)
TEXT ·set4x2AVX2(SB), NOSPLIT, $0-152
	ARGS
	MOVQ o1_base+128(FP), R11
	NIBMASK
	TABLES2
	XORQ BX, BX

loop:
	SPLIT(SI)
	FIRST(Y4, Y5, Y12)
	FIRST(Y6, Y7, Y13)
	FOLD2REST
	VMOVDQU Y12, (R10)(BX*1)
	VMOVDQU Y13, (R11)(BX*1)
	ADDQ    $32, BX
	DECQ    CX
	JNZ     loop
	VZEROUPPER

done:
	RET

// func xor4x2AVX2(t *nibBlock, s0, s1, s2, s3, o0, o1 []byte)
TEXT ·xor4x2AVX2(SB), NOSPLIT, $0-152
	ARGS
	MOVQ o1_base+128(FP), R11
	NIBMASK
	TABLES2
	XORQ BX, BX

loop:
	VMOVDQU (R10)(BX*1), Y12
	VMOVDQU (R11)(BX*1), Y13
	SPLIT(SI)
	FOLD(Y4, Y5, Y12)
	FOLD(Y6, Y7, Y13)
	FOLD2REST
	VMOVDQU Y12, (R10)(BX*1)
	VMOVDQU Y13, (R11)(BX*1)
	ADDQ    $32, BX
	DECQ    CX
	JNZ     loop
	VZEROUPPER

done:
	RET

// func set4x1AVX2(t *nibBlock, s0, s1, s2, s3, o0 []byte)
TEXT ·set4x1AVX2(SB), NOSPLIT, $0-128
	ARGS
	NIBMASK
	TABLES1
	XORQ BX, BX

loop:
	SPLIT(SI)
	FIRST(Y4, Y5, Y12)
	FOLD1REST
	VMOVDQU Y12, (R10)(BX*1)
	ADDQ    $32, BX
	DECQ    CX
	JNZ     loop
	VZEROUPPER

done:
	RET

// func xor4x1AVX2(t *nibBlock, s0, s1, s2, s3, o0 []byte)
TEXT ·xor4x1AVX2(SB), NOSPLIT, $0-128
	ARGS
	NIBMASK
	TABLES1
	XORQ BX, BX

loop:
	VMOVDQU (R10)(BX*1), Y12
	SPLIT(SI)
	FOLD(Y4, Y5, Y12)
	FOLD1REST
	VMOVDQU Y12, (R10)(BX*1)
	ADDQ    $32, BX
	DECQ    CX
	JNZ     loop
	VZEROUPPER

done:
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL   $0, CX
	XGETBV
	MOVL   AX, eax+0(FP)
	RET
