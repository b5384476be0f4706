package rangered

import (
	"math"

	"rlibm32/internal/bigfp"
)

// SinhCoshFamily covers sinh and cosh. With C = ln2/64 and y = |x|:
//
//	k = floor(y / C),  r = y − k·C ∈ [0, C),  k = 64·m + j,
//	a = m·ln2, t = j·C:
//	sinh(y) = P·cosh(r) + Q·sinh(r),
//	cosh(y) = P'·cosh(r) + Q'·sinh(r),
//
// where, with cha = (2^m + 2^-m)/2, sha = (2^m − 2^-m)/2 and the
// 64-entry tables ST[j] = RN(sinh(j·C)), CT[j] = RN(cosh(j·C)):
//
//	P  = sha·CT[j] + cha·ST[j]      Q  = sha·ST[j] + cha·CT[j]
//	P' = cha·CT[j] + sha·ST[j]      Q' = cha·ST[j] + sha·CT[j]
//
// All coefficients are non-negative, so OC = S·(A·cosh(r) + B·sinh(r))
// is monotone (S = ±1 restores sinh's oddness; cosh is even). This is
// the paper's "range reduction with multiple elementary functions":
// the two reduced functions sinh(r), cosh(r) on r ∈ [0, ln2/64) get a
// piecewise polynomial each, and Algorithm 2 deduces their joint
// freedom.
type SinhCoshFamily struct {
	FName  string
	IsSinh bool
	// InvC, CHi, CLo: Cody–Waite data for C = ln2/64.
	InvC, CHi, CLo float64
	// ST[j] = RN(sinh(j·ln2/64)), CT[j] = RN(cosh(j·ln2/64)).
	ST, CT []float64
	// OvfLo: |x| >= OvfLo → ±OvfResult (float32 ±Inf / posit ±MaxPos).
	OvfLo     float64
	OvfResult float64
	// TinyHi (cosh only): |x| <= TinyHi → 1.0. Zero disables the band.
	TinyHi float64
	// SinhTerms/CoshTerms: odd and even polynomial structures.
	SinhTerms, CoshTerms []int
}

// Name implements Family.
func (f *SinhCoshFamily) Name() string { return f.FName }

// Fn implements Family.
func (f *SinhCoshFamily) Fn() bigfp.Func {
	if f.IsSinh {
		return bigfp.Sinh
	}
	return bigfp.Cosh
}

// Funcs implements Family: sinh(r) then cosh(r).
func (f *SinhCoshFamily) Funcs() []bigfp.Func {
	return []bigfp.Func{bigfp.Sinh, bigfp.Cosh}
}

// Terms implements Family.
func (f *SinhCoshFamily) Terms() [][]int {
	return [][]int{f.SinhTerms, f.CoshTerms}
}

// Special implements Family.
func (f *SinhCoshFamily) Special(x float64) (float64, bool) {
	ax := math.Abs(x)
	switch {
	case math.IsNaN(x):
		return math.NaN(), true
	case ax >= f.OvfLo:
		if f.IsSinh {
			return math.Copysign(f.OvfResult, x), true
		}
		return f.OvfResult, true
	case !f.IsSinh && ax <= f.TinyHi:
		return 1.0, true
	case f.IsSinh && x == 0:
		return x, true // preserves ±0
	}
	return 0, false
}

// Reduce implements Family.
func (f *SinhCoshFamily) Reduce(x float64) (float64, Ctx) {
	s := 1.0
	y := x
	if y < 0 {
		y = -y
		if f.IsSinh {
			s = -1.0
		}
	}
	k := math.Floor(y * f.InvC)
	r := (y - float64(k*f.CHi)) - float64(k*f.CLo)
	ki := int(k)
	m := ki >> 6
	j := ki - (m << 6)
	e := Exp2i(m)   // 2^m, exact
	ei := Exp2i(-m) // 2^-m, exact (m ≤ ~8256/64 = 129, within range)
	cha := (e + ei) * 0.5
	sha := (e - ei) * 0.5
	var a, b float64
	if f.IsSinh {
		a = float64(sha*f.CT[j]) + float64(cha*f.ST[j]) // multiplies cosh(r)
		b = float64(sha*f.ST[j]) + float64(cha*f.CT[j]) // multiplies sinh(r)
	} else {
		a = float64(cha*f.CT[j]) + float64(sha*f.ST[j])
		b = float64(cha*f.ST[j]) + float64(sha*f.CT[j])
	}
	return r, Ctx{A: a, B: b, S: s}
}

// OC implements Family: S·(A·cosh(r) + B·sinh(r)); vals = (sinh, cosh).
func (f *SinhCoshFamily) OC(vals [2]float64, c Ctx) float64 {
	return c.S * (float64(c.A*vals[1]) + float64(c.B*vals[0]))
}

// SampleDomains implements Family.
func (f *SinhCoshFamily) SampleDomains() [][2]float64 {
	lo := 0.0
	if !f.IsSinh {
		lo = f.TinyHi
	}
	return [][2]float64{
		{-f.OvfLo, -lo},
		{lo, f.OvfLo},
	}
}
