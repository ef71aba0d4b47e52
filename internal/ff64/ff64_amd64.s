//go:build !purego

#include "textflag.h"

// func mulAcc4MULQ(hi, lo []uint64, a0, a1, a2, a3 Elem, b0, b1, b2, b3 []Elem)
//
// For each k the accumulator pair is loaded once into R9:R8 (hi:lo), takes
// the four products a_i·b_i[k] as MULQ, ADDQ into the low word and ADCQ of
// the high product and the carry into the high word, and is stored once.
// a0..a2 live in R10..R12; there is no fourteenth free register for a3, so
// the last MULQ reads it from the argument frame. The bases point past the
// end of their slices and R15 runs from −n up to 0. BP is not touched.
TEXT ·mulAcc4MULQ(SB), NOSPLIT, $0-176
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

// func cpuHasIFMA() bool
TEXT ·cpuHasIFMA(SB), NOSPLIT, $0-1
	MOVB  $0, ret+0(FP)
	XORL  AX, AX
	XORL  CX, CX
	CPUID
	CMPL  AX, $7
	JLT   noifma
	MOVL  $1, AX
	XORL  CX, CX
	CPUID
	BTL   $27, CX // OSXSAVE: XGETBV is there
	JCC   noifma
	MOVL  $7, AX
	XORL  CX, CX
	CPUID
	ANDL  $0x210000, BX
	CMPL  BX, $0x210000
	JNE   noifma
	XORL  CX, CX
	XGETBV
	ANDL  $0xe6, AX
	CMPL  AX, $0xe6
	JNE   noifma
	MOVB  $1, ret+0(FP)

noifma:
	RET

// TAILMASK sets K1 to the low CX bits (CX in 1..7), without BZHI or KMOVB.
#define TAILMASK \
	MOVL  $1, BX; \
	SHLL  CX, BX; \
	DECL  BX;     \
	KMOVW BX, K1

// SPLAT broadcasts the multiplier in AX as its low 52 bits (R12 holds the
// mask) into lo and its high 9 bits into hi.
#define SPLAT(lo, hi) \
	MOVQ         AX, BX;  \
	ANDQ         R12, AX; \
	SHRQ         $52, BX; \
	VPBROADCASTQ AX, lo;  \
	VPBROADCASTQ BX, hi

// MACC adds f·b to the limbs Z0, Z1, Z2 (weights 2⁰, 2⁵², 2¹⁰⁴) for eight
// elements: b = bv (IFMA reads only its low 52 bits, so it needs no mask),
// b >> 52 goes to bh, f = flo + 2⁵²·fhi. fhi·(b >> 52) < 2¹⁸ has no high
// half, so seven products of the eight cover f·b exactly.
#define MACC(bv, bh, flo, fhi) \
	VPSRLQ      $52, bv, bh; \
	VPMADD52LUQ bv, flo, Z0; \
	VPMADD52HUQ bv, flo, Z1; \
	VPMADD52LUQ bh, flo, Z1; \
	VPMADD52HUQ bh, flo, Z2; \
	VPMADD52LUQ bv, fhi, Z1; \
	VPMADD52HUQ bv, fhi, Z2; \
	VPMADD52LUQ bh, fhi, Z2

#define MACC4 \
	MACC(Z11, Z15, Z3, Z7); \
	MACC(Z12, Z16, Z4, Z8); \
	MACC(Z13, Z17, Z5, Z9); \
	MACC(Z14, Z18, Z6, Z10)

// func mulAcc4IFMA(l0, l1, l2 []uint64, a0, a1, a2, a3 Elem, b0, b1, b2, b3 []Elem)
//
// Eight elements per pass: the three limb vectors are loaded into Z0–Z2,
// take the four sources (28 VPMADD52 in all) and are stored once. The
// n mod 8 tail runs the same pass under a K1 mask, so nothing is read or
// written past a slice. AX indexes up from 0. BP is not touched.
TEXT ·mulAcc4IFMA(SB), NOSPLIT, $0-200
	MOVQ  b0_len+112(FP), CX
	TESTQ CX, CX
	JZ    macdone
	MOVQ  l0_base+0(FP), DI
	MOVQ  l1_base+24(FP), SI
	MOVQ  l2_base+48(FP), DX
	MOVQ  b0_base+104(FP), R8
	MOVQ  b1_base+128(FP), R9
	MOVQ  b2_base+152(FP), R10
	MOVQ  b3_base+176(FP), R11
	MOVQ  $0x000fffffffffffff, R12
	MOVQ  a0+72(FP), AX
	SPLAT(Z3, Z7)
	MOVQ  a1+80(FP), AX
	SPLAT(Z4, Z8)
	MOVQ  a2+88(FP), AX
	SPLAT(Z5, Z9)
	MOVQ  a3+96(FP), AX
	SPLAT(Z6, Z10)
	XORQ  AX, AX
	MOVQ  CX, R13
	ANDQ  $-8, R13
	JZ    mactail

macloop:
	VMOVDQU64 (DI)(AX*8), Z0
	VMOVDQU64 (SI)(AX*8), Z1
	VMOVDQU64 (DX)(AX*8), Z2
	VMOVDQU64 (R8)(AX*8), Z11
	VMOVDQU64 (R9)(AX*8), Z12
	VMOVDQU64 (R10)(AX*8), Z13
	VMOVDQU64 (R11)(AX*8), Z14
	MACC4
	VMOVDQU64 Z0, (DI)(AX*8)
	VMOVDQU64 Z1, (SI)(AX*8)
	VMOVDQU64 Z2, (DX)(AX*8)
	ADDQ      $8, AX
	CMPQ      AX, R13
	JNE       macloop

mactail:
	SUBQ        AX, CX
	JZ          macdone
	TAILMASK
	VMOVDQU64.Z (DI)(AX*8), K1, Z0
	VMOVDQU64.Z (SI)(AX*8), K1, Z1
	VMOVDQU64.Z (DX)(AX*8), K1, Z2
	VMOVDQU64.Z (R8)(AX*8), K1, Z11
	VMOVDQU64.Z (R9)(AX*8), K1, Z12
	VMOVDQU64.Z (R10)(AX*8), K1, Z13
	VMOVDQU64.Z (R11)(AX*8), K1, Z14
	MACC4
	VMOVDQU64   Z0, K1, (DI)(AX*8)
	VMOVDQU64   Z1, K1, (SI)(AX*8)
	VMOVDQU64   Z2, K1, (DX)(AX*8)

macdone:
	VZEROUPPER
	RET

// func loadIFMA(l0, l1, l2 []uint64, v []Elem)
TEXT ·loadIFMA(SB), NOSPLIT, $0-96
	MOVQ   v_len+80(FP), CX
	TESTQ  CX, CX
	JZ     lddone
	MOVQ   l0_base+0(FP), DI
	MOVQ   l1_base+24(FP), SI
	MOVQ   l2_base+48(FP), DX
	MOVQ   v_base+72(FP), R8
	VPXORQ Z1, Z1, Z1
	XORQ   AX, AX
	MOVQ   CX, R13
	ANDQ   $-8, R13
	JZ     ldtail

ldloop:
	VMOVDQU64 (R8)(AX*8), Z0
	VMOVDQU64 Z0, (DI)(AX*8)
	VMOVDQU64 Z1, (SI)(AX*8)
	VMOVDQU64 Z1, (DX)(AX*8)
	ADDQ      $8, AX
	CMPQ      AX, R13
	JNE       ldloop

ldtail:
	SUBQ        AX, CX
	JZ          lddone
	TAILMASK
	VMOVDQU64.Z (R8)(AX*8), K1, Z0
	VMOVDQU64   Z0, K1, (DI)(AX*8)
	VMOVDQU64   Z1, K1, (SI)(AX*8)
	VMOVDQU64   Z1, K1, (DX)(AX*8)

lddone:
	VZEROUPPER
	RET

// FOLD reduces the limbs Z0, Z1, Z2 of eight elements into canonical field
// elements in Z0, by the Mersenne folds 2⁶¹ ≡ 1, 2⁵²·x ≡ (x mod 2⁹)·2⁵² +
// (x >> 9) and 2¹⁰⁴·x ≡ (x mod 2¹⁸)·2⁴³ + (x >> 18). The six terms sum below
// 2⁶³; one more fold leaves at most q + 3, and min(s, s − q) takes q off when
// it fits. Z20 holds q, Z21 2⁹ − 1, Z22 2¹⁸ − 1; Z3 is scratch.
#define FOLD \
	VPANDQ  Z20, Z0, Z3; \
	VPSRLQ  $61, Z0, Z0; \
	VPADDQ  Z3, Z0, Z0;  \
	VPANDQ  Z21, Z1, Z3; \
	VPSLLQ  $52, Z3, Z3; \
	VPADDQ  Z3, Z0, Z0;  \
	VPSRLQ  $9, Z1, Z1;  \
	VPADDQ  Z1, Z0, Z0;  \
	VPANDQ  Z22, Z2, Z3; \
	VPSLLQ  $43, Z3, Z3; \
	VPADDQ  Z3, Z0, Z0;  \
	VPSRLQ  $18, Z2, Z2; \
	VPADDQ  Z2, Z0, Z0;  \
	VPANDQ  Z20, Z0, Z3; \
	VPSRLQ  $61, Z0, Z0; \
	VPADDQ  Z3, Z0, Z0;  \
	VPSUBQ  Z20, Z0, Z3; \
	VPMINUQ Z3, Z0, Z0

// func reduceIFMA(out []Elem, l0, l1, l2 []uint64)
TEXT ·reduceIFMA(SB), NOSPLIT, $0-96
	MOVQ         out_len+8(FP), CX
	TESTQ        CX, CX
	JZ           rddone
	MOVQ         out_base+0(FP), R8
	MOVQ         l0_base+24(FP), DI
	MOVQ         l1_base+48(FP), SI
	MOVQ         l2_base+72(FP), DX
	MOVQ         $0x1fffffffffffffff, AX
	VPBROADCASTQ AX, Z20
	MOVQ         $0x1ff, AX
	VPBROADCASTQ AX, Z21
	MOVQ         $0x3ffff, AX
	VPBROADCASTQ AX, Z22
	XORQ         AX, AX
	MOVQ         CX, R13
	ANDQ         $-8, R13
	JZ           rdtail

rdloop:
	VMOVDQU64 (DI)(AX*8), Z0
	VMOVDQU64 (SI)(AX*8), Z1
	VMOVDQU64 (DX)(AX*8), Z2
	FOLD
	VMOVDQU64 Z0, (R8)(AX*8)
	ADDQ      $8, AX
	CMPQ      AX, R13
	JNE       rdloop

rdtail:
	SUBQ        AX, CX
	JZ          rddone
	TAILMASK
	VMOVDQU64.Z (DI)(AX*8), K1, Z0
	VMOVDQU64.Z (SI)(AX*8), K1, Z1
	VMOVDQU64.Z (DX)(AX*8), K1, Z2
	FOLD
	VMOVDQU64   Z0, K1, (R8)(AX*8)

rddone:
	VZEROUPPER
	RET
