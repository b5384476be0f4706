package rangered

import (
	"math"

	"rlibm32/internal/bigfp"
)

// LogFamily covers ln, log2 and log10 via Tang-style table-driven
// reduction. With x = 2^e' · m̂, m̂ ∈ [1, 2):
//
//	m̂ = F + f,  F = 1 + j/128 (j from the top 7 fraction bits),
//	r = f / F ∈ [0, 2^-7),
//	log_b(x) = e'·log_b(2) + log_b(F) + log_b(1 + r),
//
// so the single reduced function is log_b(1+r). The subtraction m̂ − F
// is exact (both lie on the 2^-23-grid of the float32 significand, and
// on the finer posit grid), and every inexact double step is shared
// verbatim between generator and runtime. The output compensation
// A + v is monotonically increasing.
type LogFamily struct {
	FName string
	F     bigfp.Func // Log, Log2 or Log10
	Red   bigfp.Func // Log1p, Log21p or Log101p
	// Scale is log_b(2) rounded to double (exactly 1 for log2).
	Scale float64
	// TabBits is the table index width: j comes from the top TabBits
	// fraction bits, F = 1 + j/2^TabBits. The paper's float32 and
	// posit32 libraries use 7; the 16-bit variants use 4 (a 7-bit table
	// would swallow bfloat16's entire 7-bit fraction, leaving every
	// reduced input zero).
	TabBits int
	// FTab[j] = RN_double(log_b(1 + j/2^TabBits)), 2^TabBits entries.
	FTab []float64
	// ZeroResult is the embedded result for x == 0 (float32: −Inf;
	// posit32: NaN → NaR).
	ZeroResult float64
	// MaxInput is the largest finite target input (MaxFloat32 or
	// posit MaxPos as a double); inputs above are +Inf (float32 only).
	MaxInput float64
	// MinInput is the smallest positive target input.
	MinInput float64
	// PolyTerms is the monomial structure of the log_b(1+r) polynomial.
	PolyTerms []int
}

// Name implements Family.
func (f *LogFamily) Name() string { return f.FName }

// Fn implements Family.
func (f *LogFamily) Fn() bigfp.Func { return f.F }

// Funcs implements Family.
func (f *LogFamily) Funcs() []bigfp.Func { return []bigfp.Func{f.Red} }

// Terms implements Family.
func (f *LogFamily) Terms() [][]int { return [][]int{f.PolyTerms} }

// Special implements Family: NaN, negatives, zero and +Inf bypass the
// polynomial path.
func (f *LogFamily) Special(x float64) (float64, bool) {
	switch {
	case math.IsNaN(x):
		return math.NaN(), true
	case x == 0:
		return f.ZeroResult, true
	case x < 0:
		return math.NaN(), true
	case math.IsInf(x, 1):
		return math.Inf(1), true
	}
	return 0, false
}

// Reduce implements Family.
func (f *LogFamily) Reduce(x float64) (float64, Ctx) {
	// Frexp by bit extraction: positive normal doubles (every float32
	// or posit magnitude embeds as one) decompose exactly as
	// m̂ = 1.frac ∈ [1, 2), e' = biased − 1023. The math.Frexp call
	// remains only for double subnormals, which no 32-bit target input
	// produces.
	b := math.Float64bits(x)
	var mhat float64
	var ep int
	if be := int(b >> 52 & 0x7ff); be != 0 {
		mhat = math.Float64frombits(b&(1<<52-1) | 0x3ff<<52)
		ep = be - 1023
	} else {
		fr, e := math.Frexp(x)
		mhat = 2 * fr
		ep = e - 1
	}
	tb := uint(f.TabBits)
	scale := float64(int(1) << tb)
	invScale := math.Float64frombits(uint64(1023-tb) << 52) // exact 2^−TabBits
	j := int((mhat - 1) * scale)                            // exact: (m̂−1) by Sterbenz, ·2^k by scaling
	F := 1 + float64(float64(j)*invScale)                   // exact (j/2^k is dyadic; ·2^−k ≡ /2^k)
	r := (mhat - F) / F                                     // numerator exact; one rounding in the divide
	// A = e'·log_b2 + log_b(F): two double roundings, identical at
	// generation and runtime (float64(·) keeps a compiler from fusing
	// them into one).
	a := float64(float64(ep)*f.Scale) + f.FTab[j]
	return r, Ctx{A: a, S: 1}
}

// OC implements Family: log_b(x) = A + log_b(1+r).
func (f *LogFamily) OC(vals [2]float64, c Ctx) float64 {
	return c.A + vals[0]
}

// SampleDomains implements Family: all positive finite inputs.
func (f *LogFamily) SampleDomains() [][2]float64 {
	return [][2]float64{{f.MinInput, f.MaxInput}}
}
