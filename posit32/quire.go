package posit32

import (
	"math/big"
)

// Quire is the posit standard's exact accumulator: sums and
// sums-of-products accumulate without any rounding, and a single
// rounding happens when the result is read back as a posit. This is
// the mechanism posit hardware uses for exact dot products; here it is
// backed by an arbitrary-precision integer on a fixed 2^-quireScale
// grid, which every posit32 value and every product of two posit32
// values lands on exactly.
type Quire struct {
	acc big.Int
	nar bool
}

// quireScale is the exponent of the accumulator's unit in the last
// place: posit32 values have exponents in [-120, 120] with up to 27
// fraction bits, so products lie on the 2^-294 grid (2·(120+27) = 294).
const quireScale = 294

// Reset clears the accumulator to zero.
func (q *Quire) Reset() {
	q.acc.SetInt64(0)
	q.nar = false
}

// IsNaR reports whether the accumulator has absorbed a NaR.
func (q *Quire) IsNaR() bool { return q.nar }

// fixed returns p's value as an integer multiple of 2^-quireScale.
// The shift is at least quireScale − 147 > 0 (exp2 ≥ −120 − 27).
func fixed(p Posit) *big.Int {
	d := p.decomp()
	m := new(big.Int).SetUint64(d.m)
	m.Lsh(m, uint(quireScale+d.exp2))
	if d.neg {
		m.Neg(m)
	}
	return m
}

// Add accumulates p exactly.
func (q *Quire) Add(p Posit) *Quire {
	switch {
	case q.nar || p == NaR:
		q.nar = true
	case p == Zero:
	default:
		q.acc.Add(&q.acc, fixed(p))
	}
	return q
}

// Sub subtracts p exactly.
func (q *Quire) Sub(p Posit) *Quire { return q.Add(p.Neg()) }

// AddProduct accumulates a·b exactly (a fused multiply-accumulate with
// no intermediate rounding — the posit standard's qma operation).
func (q *Quire) AddProduct(a, b Posit) *Quire {
	switch {
	case q.nar || a == NaR || b == NaR:
		q.nar = true
		return q
	case a == Zero || b == Zero:
		return q
	}
	da, db := a.decomp(), b.decomp()
	m := new(big.Int).SetUint64(da.m)
	m.Mul(m, new(big.Int).SetUint64(db.m))
	shift := quireScale + da.exp2 + db.exp2
	if shift >= 0 {
		m.Lsh(m, uint(shift))
	} else {
		// Cannot happen for posit32 products (min exponent -294), but
		// keep the accumulator exact under any refactoring.
		panic("posit32: quire scale too small for product")
	}
	if da.neg != db.neg {
		m.Neg(m)
	}
	q.acc.Add(&q.acc, m)
	return q
}

// Posit rounds the accumulated value to the nearest posit (the single
// rounding of the whole computation).
func (q *Quire) Posit() Posit {
	if q.nar {
		return NaR
	}
	if q.acc.Sign() == 0 {
		return Zero
	}
	f := new(big.Float).SetPrec(uint(q.acc.BitLen()) + 8).SetInt(&q.acc)
	// value = acc · 2^-quireScale.
	f = scaleBig(f, -quireScale)
	return RoundBig(f)
}

func scaleBig(f *big.Float, k int) *big.Float {
	return new(big.Float).SetPrec(f.Prec()).SetMantExp(f, k)
}

// Dot computes the correctly rounded dot product of two equal-length
// posit vectors: all products and sums are exact, with one final
// rounding (the headline use of the quire).
func Dot(a, b []Posit) Posit {
	if len(a) != len(b) {
		return NaR
	}
	var q Quire
	for i := range a {
		q.AddProduct(a[i], b[i])
	}
	return q.Posit()
}

// Sum computes the correctly rounded sum of a posit vector via the
// quire.
func Sum(v []Posit) Posit {
	var q Quire
	for _, p := range v {
		q.Add(p)
	}
	return q.Posit()
}
