// AVX2 batch kernels for the exponential and log families (see
// simd_amd64.go for the contract). Each family has one lane body,
// EXP_LANE or LOG_LANE, that maps 4 doubles in Y0 to 4 doubles; the
// entry points wrap it in one of two load/store forms:
//   float32 (expAVX2Exact, logAVX2Exact): LOAD_F32 widens 4 floats
//     with VCVTPS2PD, STORE_F32 narrows with VCVTPD2PS, steps of 16;
//   float64 (expAVX2Exact64, logAVX2Exact64): LOAD_F64 / STORE_F64
//     move 4 doubles with VMOVUPD, steps of 32.
// Go assembler operand order is Intel reversed:
// OP src2, src1, dst. VBLENDVPD selects src2 where the mask lane's
// bit 63 is set, which lets r itself (register Y2) serve as the
// per-sign coefficient row selector — identical semantics to the
// scalar kernels' int(bits(r)>>63)<<3 row index.

#include "textflag.h"

// expAsmConsts field offsets (simd_amd64.go — append-only struct).
#define C_INVC   0
#define C_CHI    8
#define C_CLO    16
#define C_LO     24
#define C_SPANB  32
#define C_SIGN   40
#define C_ABS    48
#define C_7FF    56
#define C_1023   64
#define C_1022   72
#define C_1075   80
#define C_HALF   88
#define C_MANT   96
#define C_EXP    104
#define C_63     112
#define C_CPOS   120
#define C_CNEG   160
#define C_TTAB   200

// Shared prologue: load args, hoist loop-invariant broadcasts.
//   DI=dst SI=xs CX=n R9=consts R8=ttab
//   Y8=invC Y9=chi Y10=clo Y11=sign Y15=abs Y14=good(all ones)
#define EXP_PROLOGUE \
	MOVQ dst+0(FP), DI            \
	MOVQ xs+8(FP), SI             \
	MOVQ n+16(FP), CX             \
	MOVQ c+24(FP), R9             \
	MOVQ C_TTAB(R9), R8           \
	VBROADCASTSD C_INVC(R9), Y8   \
	VBROADCASTSD C_CHI(R9), Y9    \
	VBROADCASTSD C_CLO(R9), Y10   \
	VPBROADCASTQ C_SIGN(R9), Y11  \
	VPBROADCASTQ C_ABS(R9), Y15   \
	VPCMPEQQ Y14, Y14, Y14

// Loads of 4 inputs into Y0, and stores of 4 results from the named
// register that advance SI/DI and count CX down by 4 (flags from SUBQ
// feed the loop's JNZ). STORE_F32 takes the Y register and its X half.
#define LOAD_F32 \
	VMOVUPS (SI), X0              \
	VCVTPS2PD X0, Y0

#define STORE_F32(Y, X) \
	VCVTPD2PSY Y, X               \
	VMOVUPS X, (DI)               \
	ADDQ $16, SI                  \
	ADDQ $16, DI                  \
	SUBQ $4, CX

#define LOAD_F64 \
	VMOVUPD (SI), Y0

#define STORE_F64(Y) \
	VMOVUPD Y, (DI)               \
	ADDQ $32, SI                  \
	ADDQ $32, DI                  \
	SUBQ $4, CX

// Broadcast cPos[i]/cNeg[i] and blend on r's sign bit into dst.
#define COEFF(POS, NEG, TMP, dst) \
	VBROADCASTSD POS(R9), dst     \
	VBROADCASTSD NEG(R9), TMP     \
	VBLENDVPD Y2, TMP, dst, dst

// The exp lane, x in Y0 to out in Y7: conservative special guard into
// Y14, k = roundHalfAway(x·invC) (Y1), r = (x−k·chi)−k·clo (Y2),
// a = 2^(ki>>6)·ttab[ki&63] (Y3), the validated Horner sequence
// p = (((c4·r+c3)·r+c2)·r+c1)·r+c0 in plain VMULPD/VADDPD — per-lane
// bit-identical to piecewise.Dense5Exact — and out = a·p.
#define EXP_LANE \
	VPAND Y15, Y0, Y4             \
	VPBROADCASTQ C_LO(R9), Y5     \
	VPSUBQ Y5, Y4, Y4             \
	VPXOR Y11, Y4, Y4             \
	VPBROADCASTQ C_SPANB(R9), Y5  \
	VPCMPGTQ Y4, Y5, Y5           \
	VPAND Y5, Y14, Y14            \
	VMULPD Y8, Y0, Y1             \
	VPSRLQ $52, Y1, Y4            \
	VPBROADCASTQ C_7FF(R9), Y5    \
	VPAND Y5, Y4, Y4              \
	VPBROADCASTQ C_1023(R9), Y5   \
	VPCMPGTQ Y4, Y5, Y12          \
	VPBROADCASTQ C_1022(R9), Y6   \
	VPCMPEQQ Y6, Y4, Y13          \
	VPBROADCASTQ C_EXP(R9), Y6    \
	VPAND Y6, Y13, Y13            \
	VPAND Y11, Y1, Y6             \
	VPOR Y6, Y13, Y13             \
	VPSUBQ Y5, Y4, Y6             \
	VPBROADCASTQ C_HALF(R9), Y5   \
	VPSRLVQ Y6, Y5, Y7            \
	VPADDQ Y7, Y1, Y7             \
	VPBROADCASTQ C_MANT(R9), Y5   \
	VPSRLVQ Y6, Y5, Y6            \
	VPANDN Y7, Y6, Y7             \
	VPBROADCASTQ C_1075(R9), Y5   \
	VPCMPGTQ Y4, Y5, Y6           \
	VBLENDVPD Y6, Y7, Y1, Y1      \
	VBLENDVPD Y12, Y13, Y1, Y1    \
	VMULPD Y9, Y1, Y4             \
	VSUBPD Y4, Y0, Y2             \
	VMULPD Y10, Y1, Y4            \
	VSUBPD Y4, Y2, Y2             \
	VCVTTPD2DQY Y1, X4            \
	VPSRAD $6, X4, X5             \
	VPBROADCASTD C_63(R9), X6     \
	VPAND X6, X4, X4              \
	VPMOVSXDQ X5, Y5              \
	VPBROADCASTQ C_1023(R9), Y6   \
	VPADDQ Y6, Y5, Y5             \
	VPSLLQ $52, Y5, Y5            \
	VPMOVSXDQ X4, Y4              \
	VPCMPEQQ Y6, Y6, Y6           \
	VGATHERQPD Y6, (R8)(Y4*8), Y3 \
	VMULPD Y3, Y5, Y3             \
	COEFF(C_CPOS+32, C_CNEG+32, Y5, Y7) \
	VMULPD Y2, Y7, Y7             \
	COEFF(C_CPOS+24, C_CNEG+24, Y5, Y4) \
	VADDPD Y4, Y7, Y7             \
	VMULPD Y2, Y7, Y7             \
	COEFF(C_CPOS+16, C_CNEG+16, Y5, Y4) \
	VADDPD Y4, Y7, Y7             \
	VMULPD Y2, Y7, Y7             \
	COEFF(C_CPOS+8, C_CNEG+8, Y5, Y4) \
	VADDPD Y4, Y7, Y7             \
	VMULPD Y2, Y7, Y7             \
	COEFF(C_CPOS+0, C_CNEG+0, Y5, Y4) \
	VADDPD Y4, Y7, Y7             \
	VMULPD Y7, Y3, Y7

// Shared epilogue: bad = (good != all lanes).
#define EXP_EPILOGUE \
	VMOVMSKPD Y14, AX             \
	XORQ $0xf, AX                 \
	MOVQ AX, bad+32(FP)           \
	VZEROUPPER                    \
	RET

// func expAVX2Exact(dst, xs *float32, n int, c *expAsmConsts) (bad int)
TEXT ·expAVX2Exact(SB), NOSPLIT, $0-40
	EXP_PROLOGUE
exactloop:
	LOAD_F32
	EXP_LANE
	STORE_F32(Y7, X7)
	JNZ exactloop
	EXP_EPILOGUE

// func expAVX2Exact64(dst, xs *float64, n int, c *expAsmConsts) (bad int)
TEXT ·expAVX2Exact64(SB), NOSPLIT, $0-40
	EXP_PROLOGUE
exact64loop:
	LOAD_F64
	EXP_LANE
	STORE_F64(Y7)
	JNZ exact64loop
	EXP_EPILOGUE

// logAsmConsts field offsets (simd_amd64.go — append-only struct).
#define L_SCALE  0
#define L_INVSC  8
#define L_LB2    16
#define L_LO     24
#define L_SPANB  32
#define L_SIGN   40
#define L_MANT   48
#define L_EXP0   56
#define L_MAGIC  64
#define L_MSUB   72
#define L_ONE    80
#define L_JMASK  88
#define L_MINB   96
#define L_MAXB   104
#define L_SHIFT  112
#define L_RW     120
#define L_RMASK  128
#define L_FTAB   136
#define L_CO     144

// Shared prologue: DI=dst SI=xs CX=n R9=consts R11=ftab R10=co
//   Y8=scale Y9=invScale Y10=lb2 Y11=sign Y15=magicSub Y14=good
#define LOG_PROLOGUE \
	MOVQ dst+0(FP), DI            \
	MOVQ xs+8(FP), SI             \
	MOVQ n+16(FP), CX             \
	MOVQ c+24(FP), R9             \
	MOVQ L_FTAB(R9), R11          \
	MOVQ L_CO(R9), R10            \
	VBROADCASTSD L_SCALE(R9), Y8  \
	VBROADCASTSD L_INVSC(R9), Y9  \
	VBROADCASTSD L_LB2(R9), Y10   \
	VPBROADCASTQ L_SIGN(R9), Y11  \
	VBROADCASTSD L_MSUB(R9), Y15  \
	VPCMPEQQ Y14, Y14, Y14

// The log lane, x in Y0 to out in Y4: guard into Y14 (ordinary =
// positive normal double), Tang reduction:
// m̂ = (bits&mant)|2^0 exponent (Y1), exponent as a double via the
// 2^52 bias trick, j = int((m̂−1)·scale)&jmask, F = 1 + j·invScale,
// r = (m̂−F)/F (Y2), a = ep·lb2 + ftab[j] (Y3), coefficient row
// gathered into Y7/Y12/Y13 via the scalar kernel's clamp+shift index,
// q = (c2·r+c1)·r+c0 in plain VMULPD/VADDPD — per-lane bit-identical
// to piecewise.QuadExact — and the scalar kernel's a + q·r
// compensation.
#define LOG_LANE \
	VPBROADCASTQ L_LO(R9), Y5     \
	VPSUBQ Y5, Y0, Y4             \
	VPXOR Y11, Y4, Y4             \
	VPBROADCASTQ L_SPANB(R9), Y5  \
	VPCMPGTQ Y4, Y5, Y5           \
	VPAND Y5, Y14, Y14            \
	VPBROADCASTQ L_MANT(R9), Y5   \
	VPAND Y5, Y0, Y1              \
	VPBROADCASTQ L_EXP0(R9), Y5   \
	VPOR Y5, Y1, Y1               \
	VPSRLQ $52, Y0, Y4            \
	VPBROADCASTQ L_MAGIC(R9), Y5  \
	VPOR Y5, Y4, Y4               \
	VSUBPD Y15, Y4, Y4            \
	VPBROADCASTQ L_ONE(R9), Y5    \
	VSUBPD Y5, Y1, Y6             \
	VMULPD Y8, Y6, Y6             \
	VCVTTPD2DQY Y6, X6            \
	VPBROADCASTD L_JMASK(R9), X5  \
	VPAND X5, X6, X6              \
	VCVTDQ2PD X6, Y7              \
	VMULPD Y9, Y7, Y7             \
	VPBROADCASTQ L_ONE(R9), Y5    \
	VADDPD Y5, Y7, Y7             \
	VSUBPD Y7, Y1, Y2             \
	VDIVPD Y7, Y2, Y2             \
	VMULPD Y10, Y4, Y4            \
	VPMOVSXDQ X6, Y6              \
	VPCMPEQQ Y5, Y5, Y5           \
	VGATHERQPD Y5, (R11)(Y6*8), Y3 \
	VADDPD Y3, Y4, Y3             \
	VPBROADCASTQ L_MINB(R9), Y5   \
	VPCMPGTQ Y2, Y5, Y6           \
	VBLENDVPD Y6, Y5, Y2, Y6      \
	VPBROADCASTQ L_MAXB(R9), Y5   \
	VPCMPGTQ Y5, Y6, Y7           \
	VBLENDVPD Y7, Y5, Y6, Y6      \
	VMOVQ L_SHIFT(R9), X5         \
	VPSRLQ X5, Y6, Y6             \
	VPBROADCASTQ L_RMASK(R9), Y5  \
	VPAND Y5, Y6, Y6              \
	VMOVQ L_RW(R9), X5            \
	VPSLLQ X5, Y6, Y6             \
	VPCMPEQQ Y5, Y5, Y5           \
	VGATHERQPD Y5, (R10)(Y6*8), Y7 \
	VPCMPEQQ Y5, Y5, Y5           \
	VGATHERQPD Y5, 8(R10)(Y6*8), Y12 \
	VPCMPEQQ Y5, Y5, Y5           \
	VGATHERQPD Y5, 16(R10)(Y6*8), Y13 \
	VMULPD Y2, Y13, Y4            \
	VADDPD Y12, Y4, Y4            \
	VMULPD Y2, Y4, Y4             \
	VADDPD Y7, Y4, Y4             \
	VMULPD Y2, Y4, Y4             \
	VADDPD Y4, Y3, Y4

// func logAVX2Exact(dst, xs *float32, n int, c *logAsmConsts) (bad int)
TEXT ·logAVX2Exact(SB), NOSPLIT, $0-40
	LOG_PROLOGUE
lexactloop:
	LOAD_F32
	LOG_LANE
	STORE_F32(Y4, X4)
	JNZ lexactloop
	EXP_EPILOGUE

// func logAVX2Exact64(dst, xs *float64, n int, c *logAsmConsts) (bad int)
TEXT ·logAVX2Exact64(SB), NOSPLIT, $0-40
	LOG_PROLOGUE
lexact64loop:
	LOAD_F64
	LOG_LANE
	STORE_F64(Y4)
	JNZ lexact64loop
	EXP_EPILOGUE

// func cpuidex(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidex(SB), NOSPLIT, $0-24
	MOVL eaxIn+0(FP), AX
	MOVL ecxIn+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
