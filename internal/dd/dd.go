// Package dd implements double-double arithmetic: an unevaluated sum of
// two float64 values hi + lo with |lo| <= ulp(hi)/2, providing roughly
// 106 bits of significand.
//
// It is the workhorse of the CRDouble baseline library (the repo's
// CR-LIBM stand-in) and of the oracle's fast path: a double-double
// evaluation with a known error bound lets Ziv's strategy decide most
// roundings without falling back to arbitrary precision.
//
// The error-free transforms follow the classical algorithms (Dekker,
// Knuth, Ogita–Rump–Oishi); TwoProd uses the hardware FMA via math.FMA.
package dd

import "math"

// DD is a double-double value hi + lo.
type DD struct {
	Hi, Lo float64
}

// FromFloat64 returns the DD exactly equal to x.
func FromFloat64(x float64) DD { return DD{x, 0} }

// Float64 returns the nearest float64 to the DD value (hi absorbs lo by
// construction, so this is just Hi when the invariant holds).
func (a DD) Float64() float64 { return a.Hi + a.Lo }

// TwoSum returns s, e with s = fl(a+b) and a+b = s+e exactly (Knuth).
func TwoSum(a, b float64) (s, e float64) {
	s = a + b
	bb := s - a
	e = (a - (s - bb)) + (b - bb)
	return
}

// FastTwoSum returns s, e with s = fl(a+b) and a+b = s+e exactly,
// requiring |a| >= |b| or a == 0 (Dekker).
func FastTwoSum(a, b float64) (s, e float64) {
	s = a + b
	e = b - (s - a)
	return
}

// TwoProd returns p, e with p = fl(a*b) and a*b = p+e exactly, using
// the fused multiply-add. p is written float64(a*b), a rounding the
// compiler may not fuse into the sum that follows a call (Go fuses
// x*y + z on arm64), which would take e against the unrounded product.
func TwoProd(a, b float64) (p, e float64) {
	p = float64(a * b)
	e = math.FMA(a, b, -p)
	return
}

// Add returns a+b with a relative error of at most 2^-104 (accurate
// double-double addition, Ogita–Rump–Oishi style renormalization).
func Add(a, b DD) DD {
	s1, s2 := TwoSum(a.Hi, b.Hi)
	t1, t2 := TwoSum(a.Lo, b.Lo)
	s2 += t1
	s1, s2 = FastTwoSum(s1, s2)
	s2 += t2
	s1, s2 = FastTwoSum(s1, s2)
	return DD{s1, s2}
}

// AddF returns a + b for a double-double a and a plain float64 b.
func AddF(a DD, b float64) DD {
	s1, s2 := TwoSum(a.Hi, b)
	s2 += a.Lo
	s1, s2 = FastTwoSum(s1, s2)
	return DD{s1, s2}
}

// Sub returns a-b.
func Sub(a, b DD) DD { return Add(a, Neg(b)) }

// Neg returns -a.
func Neg(a DD) DD { return DD{-a.Hi, -a.Lo} }

// Mul returns a*b with a relative error of at most about 2^-102.
func Mul(a, b DD) DD {
	p1, p2 := TwoProd(a.Hi, b.Hi)
	p2 += float64(a.Hi*b.Lo) + float64(a.Lo*b.Hi)
	p1, p2 = FastTwoSum(p1, p2)
	return DD{p1, p2}
}

// MulF returns a*b for a double-double a and a plain float64 b.
func MulF(a DD, b float64) DD {
	p1, p2 := TwoProd(a.Hi, b)
	p2 = math.FMA(a.Lo, b, p2)
	p1, p2 = FastTwoSum(p1, p2)
	return DD{p1, p2}
}

// MulFF returns the exact product of two float64 values as a DD.
func MulFF(a, b float64) DD {
	p, e := TwoProd(a, b)
	return DD{p, e}
}

// Div returns a/b with a relative error of at most about 2^-100
// (one Newton refinement of the double quotient).
func Div(a, b DD) DD {
	q1 := a.Hi / b.Hi
	// r = a - q1*b, computed accurately.
	r := Add(a, Neg(MulF(b, q1)))
	q2 := r.Hi / b.Hi
	r = Add(r, Neg(MulF(b, q2)))
	q3 := r.Hi / b.Hi
	s1, s2 := FastTwoSum(q1, q2)
	return Add(DD{s1, s2}, FromFloat64(q3))
}

// Scale returns a * 2^k exactly (barring overflow/underflow).
func Scale(a DD, k int) DD {
	s := math.Ldexp(1, k)
	return DD{a.Hi * s, a.Lo * s}
}

// Abs returns |a|.
func Abs(a DD) DD {
	if a.Hi < 0 || (a.Hi == 0 && a.Lo < 0) {
		return Neg(a)
	}
	return a
}

// Cmp compares a and b: -1 if a<b, 0 if equal, +1 if a>b.
func Cmp(a, b DD) int {
	switch {
	case a.Hi < b.Hi:
		return -1
	case a.Hi > b.Hi:
		return 1
	case a.Lo < b.Lo:
		return -1
	case a.Lo > b.Lo:
		return 1
	}
	return 0
}

// PolyEval evaluates the polynomial with coefficients coeffs (constant
// term first) at the double-double point x using Horner's method in
// double-double arithmetic. Coefficients are plain float64.
func PolyEval(coeffs []float64, x DD) DD {
	if len(coeffs) == 0 {
		return DD{}
	}
	acc := FromFloat64(coeffs[len(coeffs)-1])
	for i := len(coeffs) - 2; i >= 0; i-- {
		acc = AddF(Mul(acc, x), coeffs[i])
	}
	return acc
}
