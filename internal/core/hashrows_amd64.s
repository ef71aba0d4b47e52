//go:build !purego

#include "textflag.h"

// SHA-256 round constants K[0..63] (0x000–0x0ff), then the initial hash value
// in the register order of the SHA extensions: (F,E,B,A) at 0x100 and
// (H,G,D,C) at 0x110. 288 bytes, so the linker aligns the symbol to 32 and
// every quad can be a legacy-SSE memory operand.
DATA shaConst<>+0x000(SB)/8, $0x71374491428a2f98
DATA shaConst<>+0x008(SB)/8, $0xe9b5dba5b5c0fbcf
DATA shaConst<>+0x010(SB)/8, $0x59f111f13956c25b
DATA shaConst<>+0x018(SB)/8, $0xab1c5ed5923f82a4
DATA shaConst<>+0x020(SB)/8, $0x12835b01d807aa98
DATA shaConst<>+0x028(SB)/8, $0x550c7dc3243185be
DATA shaConst<>+0x030(SB)/8, $0x80deb1fe72be5d74
DATA shaConst<>+0x038(SB)/8, $0xc19bf1749bdc06a7
DATA shaConst<>+0x040(SB)/8, $0xefbe4786e49b69c1
DATA shaConst<>+0x048(SB)/8, $0x240ca1cc0fc19dc6
DATA shaConst<>+0x050(SB)/8, $0x4a7484aa2de92c6f
DATA shaConst<>+0x058(SB)/8, $0x76f988da5cb0a9dc
DATA shaConst<>+0x060(SB)/8, $0xa831c66d983e5152
DATA shaConst<>+0x068(SB)/8, $0xbf597fc7b00327c8
DATA shaConst<>+0x070(SB)/8, $0xd5a79147c6e00bf3
DATA shaConst<>+0x078(SB)/8, $0x1429296706ca6351
DATA shaConst<>+0x080(SB)/8, $0x2e1b213827b70a85
DATA shaConst<>+0x088(SB)/8, $0x53380d134d2c6dfc
DATA shaConst<>+0x090(SB)/8, $0x766a0abb650a7354
DATA shaConst<>+0x098(SB)/8, $0x92722c8581c2c92e
DATA shaConst<>+0x0a0(SB)/8, $0xa81a664ba2bfe8a1
DATA shaConst<>+0x0a8(SB)/8, $0xc76c51a3c24b8b70
DATA shaConst<>+0x0b0(SB)/8, $0xd6990624d192e819
DATA shaConst<>+0x0b8(SB)/8, $0x106aa070f40e3585
DATA shaConst<>+0x0c0(SB)/8, $0x1e376c0819a4c116
DATA shaConst<>+0x0c8(SB)/8, $0x34b0bcb52748774c
DATA shaConst<>+0x0d0(SB)/8, $0x4ed8aa4a391c0cb3
DATA shaConst<>+0x0d8(SB)/8, $0x682e6ff35b9cca4f
DATA shaConst<>+0x0e0(SB)/8, $0x78a5636f748f82ee
DATA shaConst<>+0x0e8(SB)/8, $0x8cc7020884c87814
DATA shaConst<>+0x0f0(SB)/8, $0xa4506ceb90befffa
DATA shaConst<>+0x0f8(SB)/8, $0xc67178f2bef9a3f7
DATA shaConst<>+0x100(SB)/8, $0x510e527f9b05688c
DATA shaConst<>+0x108(SB)/8, $0x6a09e667bb67ae85
DATA shaConst<>+0x110(SB)/8, $0x1f83d9ab5be0cd19
DATA shaConst<>+0x118(SB)/8, $0x3c6ef372a54ff53a
GLOBL shaConst<>(SB), RODATA|NOPTR, $288

// func cpuHasSHANI() bool
// Reports SSSE3 and SSE4.1 (leaf 1, ECX bits 9 and 19) and the SHA
// extensions (leaf 7, EBX bit 29). The kernel uses only legacy-SSE encodings,
// so there is no OS state to check beyond what amd64 guarantees.
TEXT ·cpuHasSHANI(SB), NOSPLIT, $0-1
	MOVB  $0, ret+0(FP)
	XORL  AX, AX
	XORL  CX, CX
	CPUID
	CMPL  AX, $7
	JLT   no
	MOVL  $1, AX
	XORL  CX, CX
	CPUID
	ANDL  $0x80200, CX
	CMPL  CX, $0x80200
	JNE   no
	MOVL  $7, AX
	XORL  CX, CX
	CPUID
	BTL   $29, BX
	JCC   no
	MOVB  $1, ret+0(FP)
no:
	RET

// Four rounds on message quad cur. X0 is SHA256RNDS2's implicit W+K operand;
// s0 holds ABEF and s1 CDGH on entry and again on exit.
#define ROUNDS(k, cur, s0, s1) \
	MOVO        cur, X0;    \
	PADDD       k(AX), X0;  \
	SHA256RNDS2 X0, s0, s1; \
	PSHUFD      $0x0e, X0, X0; \
	SHA256RNDS2 X0, s1, s0

// The same four rounds on quad g, and the message schedule turns next into
// quad g+1: it holds quad g-3 with SHA256MSG1 already applied, takes the
// W[t-7] words (cur:prev shifted down one word) and SHA256MSG2 finishes it.
#define ROUNDSMSG(k, cur, prev, next, tmp, s0, s1) \
	MOVO        cur, X0;    \
	PADDD       k(AX), X0;  \
	SHA256RNDS2 X0, s0, s1; \
	MOVO        cur, tmp;   \
	PALIGNR     $4, prev, tmp; \
	PADDD       tmp, next;  \
	SHA256MSG2  cur, next;  \
	PSHUFD      $0x0e, X0, X0; \
	SHA256RNDS2 X0, s1, s0

// Lane A: state X1 X2, message quads X3–X6, scratch X7.
// Lane B: state X8 X9, message quads X10–X13, scratch X14.
#define A_ROUNDS(k, cur) ROUNDS(k, cur, X1, X2)
#define B_ROUNDS(k, cur) ROUNDS(k, cur, X8, X9)
#define A_ROUNDSMSG(k, cur, prev, next) ROUNDSMSG(k, cur, prev, next, X7, X1, X2)
#define B_ROUNDSMSG(k, cur, prev, next) ROUNDSMSG(k, cur, prev, next, X14, X8, X9)

// func hashRowsSHANI(dst *ff64.Elem, zs *[]byte, n int, blk *rowBlock)
//
// For j in [0,n): dst[j] = first 8 digest bytes of SHA-256 over the single
// padded block blk describes with the 16 bytes at zs[j] in its hole, as a
// big-endian integer (unreduced). Every zs[j] must be 16 bytes long; zs is
// walked as an array of slice headers. Two nonces are hashed per iteration,
// their round chains interleaved group by group: SHA256RNDS2 has a latency of
// several cycles and each lane's rounds depend on the previous ones, so a
// second independent lane fills the unit's idle slots. An odd tail hashes its
// last nonce in both lanes.
//
// The frame holds a 16-byte-aligned copy of *blk: PSHUFB and POR take it as
// memory operands, which without VEX must be aligned.
TEXT ·hashRowsSHANI(SB), $128-32
	MOVQ dst+0(FP), DI
	MOVQ zs+8(FP), SI
	MOVQ n+16(FP), CX
	MOVQ blk+24(FP), DX
	LEAQ shaConst<>(SB), AX

	LEAQ  15(SP), BX
	ANDQ  $~15, BX
	MOVOU 0x00(DX), X0
	MOVOU 0x10(DX), X1
	MOVOU 0x20(DX), X2
	MOVOU 0x30(DX), X3
	MOVOU 0x40(DX), X4
	MOVOU 0x50(DX), X5
	MOVOU 0x60(DX), X6
	MOVO  X0, 0x00(BX) // template quads 0–3
	MOVO  X1, 0x10(BX)
	MOVO  X2, 0x20(BX)
	MOVO  X3, 0x30(BX)
	MOVO  X4, 0x40(BX) // nonce shuffles for quads 0–2
	MOVO  X5, 0x50(BX)
	MOVO  X6, 0x60(BX)

loop:
	CMPQ CX, $0
	JLE  done
	MOVQ (SI), R8  // lane A nonce
	MOVQ R8, R9    // lane B: the same nonce and slot when only one is left
	MOVQ DI, R11
	CMPQ CX, $1
	JEQ  load
	MOVQ 24(SI), R9
	LEAQ 8(DI), R11

load:
	// Message quad q = template[q] | shuffle[q](nonce); quad 3 (end of
	// padding and the length) never holds nonce bytes.
	MOVOU  (R8), X5
	MOVOU  (R9), X12
	MOVO   X5, X3
	MOVO   X5, X4
	MOVO   X12, X10
	MOVO   X12, X11
	PSHUFB 0x40(BX), X3
	PSHUFB 0x50(BX), X4
	PSHUFB 0x60(BX), X5
	PSHUFB 0x40(BX), X10
	PSHUFB 0x50(BX), X11
	PSHUFB 0x60(BX), X12
	POR    0x00(BX), X3
	POR    0x10(BX), X4
	POR    0x20(BX), X5
	POR    0x00(BX), X10
	POR    0x10(BX), X11
	POR    0x20(BX), X12
	MOVO   0x30(BX), X6
	MOVO   0x30(BX), X13
	MOVO   0x100(AX), X1
	MOVO   0x110(AX), X2
	MOVO   X1, X8
	MOVO   X2, X9

	// Rounds 0–11: the block's own words.
	A_ROUNDS(0x00, X3)
	B_ROUNDS(0x00, X10)
	A_ROUNDS(0x10, X4)
	B_ROUNDS(0x10, X11)
	SHA256MSG1 X4, X3
	SHA256MSG1 X11, X10
	A_ROUNDS(0x20, X5)
	B_ROUNDS(0x20, X12)
	SHA256MSG1 X5, X4
	SHA256MSG1 X12, X11

	// Rounds 12–51: each group also completes the next quad, and its
	// SHA256MSG1 starts the one that replaces the previous quad.
	A_ROUNDSMSG(0x30, X6, X5, X3)
	B_ROUNDSMSG(0x30, X13, X12, X10)
	SHA256MSG1 X6, X5
	SHA256MSG1 X13, X12
	A_ROUNDSMSG(0x40, X3, X6, X4)
	B_ROUNDSMSG(0x40, X10, X13, X11)
	SHA256MSG1 X3, X6
	SHA256MSG1 X10, X13
	A_ROUNDSMSG(0x50, X4, X3, X5)
	B_ROUNDSMSG(0x50, X11, X10, X12)
	SHA256MSG1 X4, X3
	SHA256MSG1 X11, X10
	A_ROUNDSMSG(0x60, X5, X4, X6)
	B_ROUNDSMSG(0x60, X12, X11, X13)
	SHA256MSG1 X5, X4
	SHA256MSG1 X12, X11
	A_ROUNDSMSG(0x70, X6, X5, X3)
	B_ROUNDSMSG(0x70, X13, X12, X10)
	SHA256MSG1 X6, X5
	SHA256MSG1 X13, X12
	A_ROUNDSMSG(0x80, X3, X6, X4)
	B_ROUNDSMSG(0x80, X10, X13, X11)
	SHA256MSG1 X3, X6
	SHA256MSG1 X10, X13
	A_ROUNDSMSG(0x90, X4, X3, X5)
	B_ROUNDSMSG(0x90, X11, X10, X12)
	SHA256MSG1 X4, X3
	SHA256MSG1 X11, X10
	A_ROUNDSMSG(0xa0, X5, X4, X6)
	B_ROUNDSMSG(0xa0, X12, X11, X13)
	SHA256MSG1 X5, X4
	SHA256MSG1 X12, X11
	A_ROUNDSMSG(0xb0, X6, X5, X3)
	B_ROUNDSMSG(0xb0, X13, X12, X10)
	SHA256MSG1 X6, X5
	SHA256MSG1 X13, X12
	A_ROUNDSMSG(0xc0, X3, X6, X4)
	B_ROUNDSMSG(0xc0, X10, X13, X11)
	SHA256MSG1 X3, X6
	SHA256MSG1 X10, X13

	// Rounds 52–63: the schedule runs out.
	A_ROUNDSMSG(0xd0, X4, X3, X5)
	B_ROUNDSMSG(0xd0, X11, X10, X12)
	A_ROUNDSMSG(0xe0, X5, X4, X6)
	B_ROUNDSMSG(0xe0, X12, X11, X13)
	A_ROUNDS(0xf0, X6)
	B_ROUNDS(0xf0, X13)

	// Digest words H0‖H1 are A+A0 and B+B0: the high qword of ABEF. The
	// CDGH half of the digest is never read, so it is not finished.
	PADDD  0x100(AX), X1
	PADDD  0x100(AX), X8
	PEXTRQ $1, X8, (R11)
	PEXTRQ $1, X1, (DI)

	ADDQ $48, SI
	ADDQ $16, DI
	SUBQ $2, CX
	JMP  loop

done:
	RET
