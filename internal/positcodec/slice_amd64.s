// AVX2 loops of the posit32 batch codec (see slice_amd64.go for the
// contract). decode32AVX2 maps posits to doubles and encode32AVX2
// doubles to posits, 8 values per iteration as two independent groups
// of 4 (DEC4, ENC4), then one more group of 4 when n % 8 == 4. Each
// follows the scalar pieces of positcodec.go step for step, with two
// replacements for what AVX2 lacks:
//   - no VPLZCNTQ: the regime length m comes from the exponent of
//     VCVTDQ2PD applied to the 31-bit run word, which is exact;
//   - no VPSRAQ: encode's arithmetic shift of z is
//     ((z ^ t) >> sh) ^ t with t the sign mask of z.
// Go assembler operand order is Intel reversed: OP src2, src1, dst.
// VBLENDVPD selects src2 where the mask lane's bit 63 is set.

#include "textflag.h"

// VPERMD index that gathers the low dword of each quadword into the
// low 128 bits: 0, 2, 4, 6.
DATA packIdx<>+0(SB)/4, $0
DATA packIdx<>+4(SB)/4, $2
DATA packIdx<>+8(SB)/4, $4
DATA packIdx<>+12(SB)/4, $6
DATA packIdx<>+16(SB)/4, $0
DATA packIdx<>+20(SB)/4, $0
DATA packIdx<>+24(SB)/4, $0
DATA packIdx<>+28(SB)/4, $0
GLOBL packIdx<>(SB), RODATA|NOPTR, $32

// Quadword constants, 4 copies each, loaded into registers or read as
// memory operands.
#define QCONST(name, v) \
	DATA name<>+0(SB)/8, $v  \
	DATA name<>+8(SB)/8, $v  \
	DATA name<>+16(SB)/8, $v \
	DATA name<>+24(SB)/8, $v \
	GLOBL name<>(SB), RODATA|NOPTR, $32

QCONST(k1087, 1087)                // 32 + 1 + 1054
QCONST(k1054, 1054)
QCONST(bias52, 0x3ff0000000000000) // 1023 << 52
QCONST(nanBits, 0x7ff8000000000001)
QCONST(exp7ff, 0x000007ff00000000) // the exponent mask, in the high dword
QCONST(eMin, 0x0000038700000000)   // 903 = 1023 − 120
QCONST(eMax, 0x0000047700000000)   // 1143 = 1023 + 120
QCONST(eBias, 0x000003ff00000000)  // 1023
QCONST(sign, 0x8000000000000000)
QCONST(mant, 0x000fffffffffffff)
QCONST(k32, 32)
QCONST(one, 1)
QCONST(nar, 0x80000000)

// DEC4 decodes the 4 posits at soff(SI) into the 4 doubles at
// doff(DI), in temporaries A-G (each named by its X and Y halves where
// both are used); Y15 holds zero and Y14 k1087.
//
// Per 32-bit lane: s = p >>a 31, body = |p| << 1 (the two's complement
// magnitude without its sign bit, left-aligned), f = body >>a 31 (the
// first regime bit, spread) and y = body ^ f, whose highest set bit
// ends the run: m = 31 − floor(log2 y) = 1054 − E, with E the biased
// exponent of the double y. Per 64-bit lane: rest = body << (32 + m +
// 1) holds exponent and fraction left-aligned (VPSLLVQ gives 0 for
// counts ≥ 64), k = −m ^ f is m−1 for a run of ones and −m for zeros,
// and the double is s<<63 | ((4k + 1023) << 52 + rest >> 10).
// body == 0 (zero, NaR) decodes to s & nanBits: 0 and NaN.
#define DEC4(soff, doff, XA, YA, XB, YB, XC, YC, XD, YD, XE, YE, YF, YG) \
	VMOVDQU soff(SI), XA        \ // p
	VPSRAD $31, XA, XB          \ // s
	VPXOR XB, XA, XC            \
	VPSUBD XB, XC, XC           \ // |p| (NaR stays 0x80000000)
	VPADDD XC, XC, XC           \ // body
	VPSRAD $31, XC, XD          \ // f
	VPXOR XD, XC, XE            \ // y ≥ 1 unless body == 0
	VCVTDQ2PD XE, YE            \
	VPSRLQ $52, YE, YE          \ // E = floor(log2 y) + 1023
	VPSUBQ YE, Y14, YF          \ // 32 + m + 1
	VPMOVZXDQ XC, YG            \
	VPSLLVQ YF, YG, YG          \ // rest
	VPSRLQ $10, YG, YG          \ // exponent bits << 52 | fraction
	VPSUBQ k1054<>(SB), YE, YE  \ // −m
	VPMOVSXDQ XD, YD            \
	VPXOR YD, YE, YE            \ // k
	VPSLLQ $54, YE, YE          \ // 4k << 52
	VPADDQ bias52<>(SB), YE, YE \
	VPADDQ YG, YE, YE           \ // |value| bits
	VPMOVSXDQ XB, YB            \ // s, 64-bit
	VPSLLQ $63, YB, YA          \
	VPOR YA, YE, YE             \
	VPCMPEQD X15, XC, XC        \ // body == 0
	VPMOVSXDQ XC, YC            \
	VPAND nanBits<>(SB), YB, YB \
	VBLENDVPD YC, YB, YE, YE    \
	VMOVUPD YE, doff(DI)

// func decode32AVX2(dst *float64, src *uint32, n int)
TEXT ·decode32AVX2(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	VPXOR Y15, Y15, Y15
	VMOVDQU k1087<>(SB), Y14
	CMPQ CX, $8
	JB dec4

dec8loop:
	DEC4(0, 0, X0, Y0, X1, Y1, X2, Y2, X3, Y3, X4, Y4, Y5, Y6)
	DEC4(16, 32, X7, Y7, X8, Y8, X9, Y9, X10, Y10, X11, Y11, Y12, Y13)
	ADDQ $32, SI
	ADDQ $64, DI
	SUBQ $8, CX
	CMPQ CX, $8
	JAE dec8loop
	TESTQ CX, CX
	JZ decdone

dec4:
	DEC4(0, 0, X0, Y0, X1, Y1, X2, Y2, X3, Y3, X4, Y4, Y5, Y6)

decdone:
	VZEROUPPER
	RET

// ENC4 encodes the 4 doubles at soff(SI) into the 4 posits at
// doff(DI), in temporaries B and T1-T5 (X3 is T3's low half); Y15
// holds exp7ff, Y14 zero, Y13 packIdx and Y12 k32.
//
// The exponent work runs in the high dword of each quadword, where the
// double keeps its sign and biased exponent. Every constant is zero in
// the low dword, so low dwords stay zero and each high-dword result is
// already its value << 32. Per lane: E = biased exponent, clamped to
// [903, 1143] (e = E − 1023 within ±120, the whole saturation),
// k = e >>a 2, sh = k ^ (k >>a 31), and
// z = ("10" or "01") << 62 | (e & 3) << 60 | fraction << 8, as in
// regime. The body z >>a sh is ((z ^ t) >> sh) ^ t with t = (z < 0),
// the sticky bits are z << (32 − sh), and round, signed and specials
// follow positcodec.go; VPERMD packs the low dwords for the store.
#define ENC4(soff, doff, B, T1, T2, T3, X3, T4, T5) \
	VMOVDQU soff(SI), B             \ // b
	VPSRLD $20, B, T1               \
	VPAND Y15, T1, T1               \ // E
	VPCMPEQD Y15, T1, T2            \ // NaN, ±Inf
	VPMAXSD eMin<>(SB), T1, T1      \
	VPMINSD eMax<>(SB), T1, T1      \
	VPSUBD eBias<>(SB), T1, T1      \ // e, clamped
	VPSRAD $2, T1, T3               \ // k
	VPSRAD $31, T3, T4              \ // k < 0
	VPXOR T4, T3, T3                \
	VPSRLQ $32, T3, T3              \ // sh
	VPSLLD $30, T1, T1              \
	VPSRLD $2, T1, T1               \ // (e & 3) << 28
	VPSLLD $30, T4, T4              \
	VPXOR T4, T1, T1                \
	VPXOR sign<>(SB), T1, T1        \ // | ("10" or "01") << 30
	VPAND mant<>(SB), B, T4         \
	VPSLLQ $8, T4, T4               \
	VPOR T4, T1, T1                 \ // z
	VPCMPGTQ T1, Y14, T4            \ // t = z < 0, i.e. k ≥ 0
	VPXOR T4, T1, T5                \
	VPSRLVQ T3, T5, T5              \
	VPXOR T4, T5, T4                \ // body = z >>a sh
	VPSUBQ T3, Y12, T3              \
	VPSLLVQ T3, T1, T1              \
	VPCMPEQQ Y14, T1, T1            \ // no sticky bits
	VPSRLQ $33, T4, T3              \ // q
	VPSRLQ $32, T4, T4              \ // q << 1 | round bit
	VPANDN T1, T3, T1               \ // ^q & no sticky
	VPANDN T4, T1, T1               \ // round bit & (q | sticky), in bit 0
	VPAND one<>(SB), T1, T1         \
	VPADDQ T1, T3, T3               \ // magnitude pattern
	VPCMPGTQ B, Y14, T1             \ // s
	VPXOR T1, T3, T3                \
	VPSUBQ T1, T3, T3               \ // signed
	VPSLLQ $1, B, B                 \
	VPCMPEQQ Y14, B, B              \ // ±0
	VPANDN T3, B, T3                \
	VBLENDVPD T2, nar<>(SB), T3, T3 \
	VPERMD T3, Y13, T3              \
	VMOVDQU X3, doff(DI)

// func encode32AVX2(dst *uint32, src *float64, n int)
TEXT ·encode32AVX2(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	VMOVDQU exp7ff<>(SB), Y15
	VPXOR Y14, Y14, Y14
	VMOVDQU packIdx<>(SB), Y13
	VMOVDQU k32<>(SB), Y12
	CMPQ CX, $8
	JB enc4

enc8loop:
	ENC4(0, 0, Y0, Y1, Y2, Y3, X3, Y4, Y5)
	ENC4(32, 16, Y6, Y7, Y8, Y9, X9, Y10, Y11)
	ADDQ $64, SI
	ADDQ $32, DI
	SUBQ $8, CX
	CMPQ CX, $8
	JAE enc8loop
	TESTQ CX, CX
	JZ encdone

enc4:
	ENC4(0, 0, Y0, Y1, Y2, Y3, X3, Y4, Y5)

encdone:
	VZEROUPPER
	RET
