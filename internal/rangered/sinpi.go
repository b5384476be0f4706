package rangered

import (
	"math"

	"rlibm32/internal/bigfp"
)

// piReduce performs the exact double-precision reduction shared by
// sinpi and cospi (paper §2.1/§5): y = |x| is reduced mod 2, mirrored
// about 1 and about 1/2, producing L ∈ [0, 0.5] with
//
//	sinpi(x) = sSign·sinpi(L),  cospi(x) = cSign·cospi(L).
//
// Every step (mod 2 of a double, 1−L by Sterbenz) is exact.
func piReduce(x float64) (L float64, sSign, cSign float64) {
	sSign, cSign = 1, 1
	y := x
	if y < 0 {
		y = -y
		sSign = -1 // sinpi odd; cospi even
	}
	// y mod 2 via the floor identity (exact: y·0.5 halving and the
	// subtraction are exact; several times faster than math.Mod).
	j := y - 2*math.Floor(y*0.5)
	if j >= 1 {
		j -= 1 // exact
		sSign = -sSign
		cSign = -cSign
	}
	if j > 0.5 {
		j = 1 - j // exact by Sterbenz
		cSign = -cSign
	}
	return j, sSign, cSign
}

// SinPiFamily implements sinpi(x) = sin(πx) (paper §2). After piReduce,
// L = N/512 + R with N ∈ {0..256} and R ∈ [0, 2^-9):
//
//	sinpi(L) = sinpi(N/512)·cospi(R) + cospi(N/512)·sinpi(R),
//
// so the reduced functions are sinpi(R) and cospi(R) and the output
// compensation S·(A·cospi(R) + B·sinpi(R)) has A = SinT[N] ≥ 0,
// B = CosT[N] ≥ 0: monotone.
type SinPiFamily struct {
	// SinT[N] = RN(sinpi(N/512)), CosT[N] = RN(cospi(N/512)), 257
	// entries each (the paper's "512 values in total" plus N = 256).
	SinT, CosT []float64
	// TinyHi: |x| <= TinyHi → RN(π_double · x) (paper's first special
	// case); found by oracle search.
	TinyHi float64
	// HugeLo: |x| >= HugeLo → 0 (all such floats are integers).
	HugeLo float64
	// PiDouble is π rounded to double, used by the tiny special case.
	PiDouble           float64
	SinTerms, CosTerms []int
}

// Name implements Family.
func (f *SinPiFamily) Name() string { return "sinpi" }

// Fn implements Family.
func (f *SinPiFamily) Fn() bigfp.Func { return bigfp.SinPi }

// Funcs implements Family.
func (f *SinPiFamily) Funcs() []bigfp.Func { return []bigfp.Func{bigfp.SinPi, bigfp.CosPi} }

// Terms implements Family.
func (f *SinPiFamily) Terms() [][]int { return [][]int{f.SinTerms, f.CosTerms} }

// Special implements Family.
func (f *SinPiFamily) Special(x float64) (float64, bool) {
	ax := math.Abs(x)
	switch {
	case math.IsNaN(x) || math.IsInf(x, 0):
		return math.NaN(), true
	case ax >= f.HugeLo:
		return 0, true
	case ax <= f.TinyHi:
		return f.PiDouble * x, true
	}
	return 0, false
}

// Reduce implements Family.
func (f *SinPiFamily) Reduce(x float64) (float64, Ctx) {
	L, s, _ := piReduce(x)
	n := int(L * 512) // exact scale; truncation picks N = floor(512L)
	if n > 255 {
		n = 255 // L = 0.5 exactly: N = 255, R = 1/512 (paper: N ∈ {0..255})
	}
	r := L - float64(float64(n)*0x1p-9) // exact: R ∈ [0, 2^-9]
	return r, Ctx{A: f.SinT[n], B: f.CosT[n], S: s}
}

// OC implements Family: vals = (sinpi(R), cospi(R)).
func (f *SinPiFamily) OC(vals [2]float64, c Ctx) float64 {
	return c.S * (float64(c.A*vals[1]) + float64(c.B*vals[0]))
}

// SampleDomains implements Family.
func (f *SinPiFamily) SampleDomains() [][2]float64 {
	return [][2]float64{
		{-f.HugeLo, -f.TinyHi},
		{f.TinyHi, f.HugeLo},
	}
}

// CosPiFamily implements cospi(x) = cos(πx) with the paper's §5
// cancellation-free output compensation. After piReduce, L = N/512 + Q:
//
//	N = 0:  cospi(L) = cospi(Q)                       (R = Q)
//	N > 0:  with N' = N+1 and R = 1/512 − Q (exact):
//	        cospi(L) = cospi(N'/512)·cospi(R) + sinpi(N'/512)·sinpi(R),
//
// which is monotone with non-negative coefficients — no cancellation.
type CosPiFamily struct {
	// SinT/CosT as in SinPiFamily but indexed by N' ∈ {0..257}
	// (the paper's "514 values in total").
	SinT, CosT []float64
	// TinyHi: |x| <= TinyHi → 1.0.
	TinyHi float64
	// HugeLo: |x| >= HugeLo → (−1)^(|x| mod 2).
	HugeLo             float64
	SinTerms, CosTerms []int
}

// Name implements Family.
func (f *CosPiFamily) Name() string { return "cospi" }

// Fn implements Family.
func (f *CosPiFamily) Fn() bigfp.Func { return bigfp.CosPi }

// Funcs implements Family.
func (f *CosPiFamily) Funcs() []bigfp.Func { return []bigfp.Func{bigfp.SinPi, bigfp.CosPi} }

// Terms implements Family.
func (f *CosPiFamily) Terms() [][]int { return [][]int{f.SinTerms, f.CosTerms} }

// Special implements Family.
func (f *CosPiFamily) Special(x float64) (float64, bool) {
	ax := math.Abs(x)
	switch {
	case math.IsNaN(x) || math.IsInf(x, 0):
		return math.NaN(), true
	case ax >= f.HugeLo:
		if math.Mod(ax, 2) != 0 {
			return -1.0, true
		}
		return 1.0, true
	case ax <= f.TinyHi:
		return 1.0, true
	}
	return 0, false
}

// Reduce implements Family.
func (f *CosPiFamily) Reduce(x float64) (float64, Ctx) {
	L, _, c := piReduce(x)
	n := int(L * 512)
	if n > 255 {
		n = 255 // L = 0.5: N = 255, Q = 1/512, so N' = 256 stays in [0, 0.5]
	}
	q := L - float64(float64(n)*0x1p-9)
	if n == 0 {
		// cospi(L) = cospi(Q): A multiplies cospi, B multiplies sinpi.
		return q, Ctx{A: f.CosT[0], B: f.SinT[0], S: c} // CosT[0]=1, SinT[0]=0
	}
	np := n + 1
	r := 0x1p-9 - q // exact: both on the same dyadic grid
	return r, Ctx{A: f.CosT[np], B: f.SinT[np], S: c}
}

// OC implements Family: vals = (sinpi(R), cospi(R)).
func (f *CosPiFamily) OC(vals [2]float64, c Ctx) float64 {
	return c.S * (float64(c.A*vals[1]) + float64(c.B*vals[0]))
}

// SampleDomains implements Family.
func (f *CosPiFamily) SampleDomains() [][2]float64 {
	return [][2]float64{
		{-f.HugeLo, -f.TinyHi},
		{f.TinyHi, f.HugeLo},
	}
}
