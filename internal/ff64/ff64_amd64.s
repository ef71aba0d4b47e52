//go:build !purego

#include "textflag.h"

// func vecMulAcc4(hi, lo []uint64, a0, a1, a2, a3 Elem, b0, b1, b2, b3 []Elem)
//
// For each k the accumulator pair is loaded once into R9:R8 (hi:lo), takes
// the four products a_i·b_i[k] as MULQ, ADDQ into the low word and ADCQ of
// the high product and the carry into the high word, and is stored once.
// a0..a2 live in R10..R12; there is no fourteenth free register for a3, so
// the last MULQ reads it from the argument frame. The bases point past the
// end of their slices and R15 runs from −n up to 0. BP is not touched.
TEXT ·vecMulAcc4(SB), NOSPLIT, $0-176
	MOVQ b0_len+88(FP), R15
	TESTQ R15, R15
	JZ   done
	MOVQ hi_base+0(FP), DI
	MOVQ lo_base+24(FP), SI
	MOVQ b0_base+80(FP), BX
	MOVQ b1_base+104(FP), CX
	MOVQ b2_base+128(FP), R13
	MOVQ b3_base+152(FP), R14
	MOVQ a0+48(FP), R10
	MOVQ a1+56(FP), R11
	MOVQ a2+64(FP), R12
	LEAQ (DI)(R15*8), DI
	LEAQ (SI)(R15*8), SI
	LEAQ (BX)(R15*8), BX
	LEAQ (CX)(R15*8), CX
	LEAQ (R13)(R15*8), R13
	LEAQ (R14)(R15*8), R14
	NEGQ R15

loop:
	MOVQ (SI)(R15*8), R8
	MOVQ (DI)(R15*8), R9

	MOVQ (BX)(R15*8), AX
	MULQ R10
	ADDQ AX, R8
	ADCQ DX, R9

	MOVQ (CX)(R15*8), AX
	MULQ R11
	ADDQ AX, R8
	ADCQ DX, R9

	MOVQ (R13)(R15*8), AX
	MULQ R12
	ADDQ AX, R8
	ADCQ DX, R9

	MOVQ (R14)(R15*8), AX
	MULQ a3+72(FP)
	ADDQ AX, R8
	ADCQ DX, R9

	MOVQ R8, (SI)(R15*8)
	MOVQ R9, (DI)(R15*8)
	INCQ R15
	JNZ  loop

done:
	RET
