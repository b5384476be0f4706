// Package minifloat implements parameterized small IEEE-754 binary
// formats (used for bfloat16 and binary16). The original RLIBM work
// generated correctly rounded libraries for exactly these 16-bit types;
// this repository carries them alongside the paper's 32-bit targets
// because their input spaces are small enough to validate
// *exhaustively* — every one of the 65536 inputs — giving the same
// end-to-end guarantee the paper obtains for 32-bit types on its
// server-scale oracle runs.
//
// A Format describes a binary interchange format with a sign bit,
// ExpBits exponent bits and FracBits fraction bits (1 + ExpBits +
// FracBits <= 16). Values are carried as uint16 bit patterns; every
// value and every rounding boundary is exactly representable in
// float64.
package minifloat

import (
	"math"
	"math/big"
)

// Format describes a small IEEE binary format.
type Format struct {
	ExpBits  uint
	FracBits uint
}

// Standard formats.
var (
	// BFloat16 is the truncated-float32 brain float: 8 exponent bits,
	// 7 fraction bits.
	BFloat16 = Format{ExpBits: 8, FracBits: 7}
	// Binary16 is IEEE half precision: 5 exponent bits, 10 fraction
	// bits.
	Binary16 = Format{ExpBits: 5, FracBits: 10}
)

// bias returns the exponent bias.
func (f Format) bias() int { return 1<<(f.ExpBits-1) - 1 }

// expMax returns the all-ones exponent field value (Inf/NaN).
func (f Format) expMax() uint16 { return uint16(1<<f.ExpBits - 1) }

// totalBits returns the encoding width.
func (f Format) totalBits() uint { return 1 + f.ExpBits + f.FracBits }

// signMask returns the sign bit mask.
func (f Format) signMask() uint16 { return 1 << (f.ExpBits + f.FracBits) }

// Inf returns the bit pattern of ±infinity.
func (f Format) Inf(sign int) uint16 {
	b := f.expMax() << f.FracBits
	if sign < 0 {
		b |= f.signMask()
	}
	return b
}

// NaN returns a quiet NaN bit pattern.
func (f Format) NaN() uint16 {
	return f.expMax()<<f.FracBits | 1<<(f.FracBits-1)
}

// IsNaN reports whether b encodes a NaN.
func (f Format) IsNaN(b uint16) bool {
	return (b>>f.FracBits)&f.expMax() == f.expMax() && b&(1<<f.FracBits-1) != 0
}

// IsInf reports whether b encodes ±Inf.
func (f Format) IsInf(b uint16) bool {
	return (b>>f.FracBits)&f.expMax() == f.expMax() && b&(1<<f.FracBits-1) == 0
}

// MaxFinite returns the largest finite value's bit pattern.
func (f Format) MaxFinite() uint16 {
	return (f.expMax()-1)<<f.FracBits | (1<<f.FracBits - 1)
}

// ToFloat64 decodes a bit pattern exactly.
func (f Format) ToFloat64(b uint16) float64 {
	sign := 1.0
	if b&f.signMask() != 0 {
		sign = -1
	}
	exp := int(b>>f.FracBits) & int(f.expMax())
	frac := uint64(b & (1<<f.FracBits - 1))
	switch {
	case exp == int(f.expMax()):
		if frac != 0 {
			return math.NaN()
		}
		return sign * math.Inf(1)
	case exp == 0:
		// Subnormal: frac · 2^(1−bias−FracBits).
		return sign * math.Ldexp(float64(frac), 1-f.bias()-int(f.FracBits))
	}
	return sign * math.Ldexp(float64(frac|1<<f.FracBits), exp-f.bias()-int(f.FracBits))
}

// FromFloat64 rounds a float64 to the format with round-to-nearest-even
// in a single rounding (no intermediate narrowing).
func (f Format) FromFloat64(x float64) uint16 {
	if math.IsNaN(x) {
		return f.NaN()
	}
	var sign uint16
	if math.Signbit(x) {
		sign = f.signMask()
		x = -x
	}
	if math.IsInf(x, 1) {
		return sign | f.Inf(1)
	}
	if x == 0 {
		return sign
	}
	// Overflow: values at or above the midpoint between MaxFinite and
	// the next power step round to Inf.
	maxV := f.ToFloat64(f.MaxFinite())
	ulpTop := math.Ldexp(1, int(f.expMax())-2-f.bias()-int(f.FracBits)+1)
	if x >= maxV+float64(ulpTop/2) {
		return sign | f.Inf(1)
	}
	// Decompose x = m·2^e with m ∈ [1, 2).
	fr, e := math.Frexp(x)
	m := fr * 2
	e--
	minExp := 1 - f.bias() // smallest normal exponent
	if e < minExp {
		// Subnormal target: value = frac·2^(minExp−FracBits); round
		// x / 2^(minExp−FracBits) to integer (RNE).
		scaled := math.Ldexp(x, -(minExp - int(f.FracBits)))
		n := math.RoundToEven(scaled)
		// The scaling is exact (power of two), RoundToEven is exact.
		if n == 0 {
			return sign
		}
		if n >= math.Ldexp(1, int(f.FracBits)) {
			// Rounded up into the normal range.
			return sign | 1<<f.FracBits
		}
		return sign | uint16(n)
	}
	// Normal target: round m·2^FracBits (in [2^FracBits, 2^(FracBits+1)))
	// to integer with RNE; x's mantissa has at most 53 bits, the
	// scaling is exact.
	scaled := math.Ldexp(m, int(f.FracBits))
	n := uint64(math.RoundToEven(scaled))
	if n == 1<<(f.FracBits+1) {
		n >>= 1
		e++
		if e > int(f.expMax())-1-f.bias() {
			return sign | f.Inf(1)
		}
	}
	exp := uint16(e + f.bias())
	return sign | exp<<f.FracBits | uint16(n&(1<<f.FracBits-1))
}

// NextUp returns the bit pattern of the least value greater than b
// (saturating at +Inf); NaN maps to itself.
func (f Format) NextUp(b uint16) uint16 {
	if f.IsNaN(b) || b == f.Inf(1) {
		return b
	}
	if b&f.signMask() != 0 {
		// Negative: decrement magnitude; -0 steps to +smallest.
		if b == f.signMask() {
			return 1
		}
		return b - 1
	}
	return b + 1
}

// NextDown returns the greatest value less than b (saturating at -Inf).
func (f Format) NextDown(b uint16) uint16 {
	if f.IsNaN(b) || b == f.Inf(-1) {
		return b
	}
	if b&f.signMask() == 0 {
		if b == 0 {
			return f.signMask() | 1
		}
		return b - 1
	}
	return b + 1
}

// Ord maps a bit pattern to an order-preserving integer (NaN excluded).
func (f Format) Ord(b uint16) int32 {
	if b&f.signMask() != 0 {
		return -int32(b&^f.signMask()) - 1
	}
	return int32(b)
}

// FromOrd inverts Ord.
func (f Format) FromOrd(o int32) uint16 {
	if o < 0 {
		return uint16(-(o + 1)) | f.signMask()
	}
	return uint16(o)
}

// RoundBig rounds an arbitrary-precision value exactly (no double
// rounding): it converts through float64 and corrects against the
// format's exact rounding boundaries.
func (f Format) RoundBig(v *big.Float) uint16 {
	if v.IsInf() {
		return f.Inf(v.Sign())
	}
	d, _ := v.Float64() // RNE to double
	cand := f.FromFloat64(d)
	if f.IsNaN(cand) || f.IsInf(cand) {
		// Overflow decisions: the double rounding cannot cross the
		// (half-ulp-of-format) overflow boundary, so trust it, except
		// exactly at the boundary where ties matter; re-check exactly.
		return f.fixup(v, cand)
	}
	return f.fixup(v, cand)
}

// fixup adjusts cand by at most one step using exact comparisons
// against the rounding boundaries (which are exact doubles).
func (f Format) fixup(v *big.Float, cand uint16) uint16 {
	for i := 0; i < 4; i++ {
		lo, hi := f.boundaries(cand)
		cl := cmpBigFloat(v, lo)
		ch := cmpBigFloat(v, hi)
		if cl > 0 && ch < 0 {
			return cand
		}
		if cl == 0 {
			return f.FromFloat64(lo) // tie decided by RNE on the exact double
		}
		if ch == 0 {
			return f.FromFloat64(hi)
		}
		if cl < 0 {
			cand = f.NextDown(cand)
		} else {
			cand = f.NextUp(cand)
		}
	}
	panic("minifloat: RoundBig failed to converge")
}

// boundaries returns the open rounding boundaries around the value cand
// (the midpoints with its neighbours), as exact doubles; ±Inf for the
// extremes.
func (f Format) boundaries(cand uint16) (lo, hi float64) {
	v := f.ToFloat64(cand)
	if f.IsInf(cand) {
		m := f.ToFloat64(f.MaxFinite())
		ulpTop := math.Ldexp(1, int(f.expMax())-2-f.bias()-int(f.FracBits)+1)
		if cand == f.Inf(1) {
			return m + float64(ulpTop/2), math.Inf(1)
		}
		return math.Inf(-1), -(m + float64(ulpTop/2))
	}
	up := f.ToFloat64(f.NextUp(cand))
	dn := f.ToFloat64(f.NextDown(cand))
	if math.IsInf(up, 1) {
		m := f.ToFloat64(f.MaxFinite())
		ulpTop := math.Ldexp(1, int(f.expMax())-2-f.bias()-int(f.FracBits)+1)
		hi = m + float64(ulpTop/2)
	} else {
		hi = (v + up) / 2 // exact: short mantissas
	}
	if math.IsInf(dn, -1) {
		m := f.ToFloat64(f.MaxFinite())
		ulpTop := math.Ldexp(1, int(f.expMax())-2-f.bias()-int(f.FracBits)+1)
		lo = -(m + float64(ulpTop/2))
	} else {
		lo = (v + dn) / 2
	}
	return lo, hi
}

func cmpBigFloat(v *big.Float, d float64) int {
	if math.IsInf(d, 1) {
		if v.IsInf() && v.Sign() > 0 {
			return 0
		}
		return -1
	}
	if math.IsInf(d, -1) {
		if v.IsInf() && v.Sign() < 0 {
			return 0
		}
		return 1
	}
	return v.Cmp(new(big.Float).SetFloat64(d))
}

// Interval returns the closed float64 interval of values rounding to
// cand, mirroring interval.Rounding32's conventions (zeros share one
// interval; ok=false for NaN).
func (f Format) Interval(cand uint16) (lo, hi float64, ok bool) {
	if f.IsNaN(cand) {
		return 0, 0, false
	}
	if cand == 0 || cand == f.signMask() {
		// Both zeros: values below half the smallest subnormal.
		half := f.ToFloat64(1) / 2
		return -half, half, true
	}
	bl, bh := f.boundaries(cand)
	even := cand&1 == 0
	if math.IsInf(bh, 1) {
		hi = math.Inf(1)
	} else if even && f.FromFloat64(bh) == cand {
		hi = bh
	} else {
		hi = math.Nextafter(bh, math.Inf(-1))
	}
	if math.IsInf(bl, -1) {
		lo = math.Inf(-1)
	} else if even && f.FromFloat64(bl) == cand {
		lo = bl
	} else {
		lo = math.Nextafter(bl, math.Inf(1))
	}
	return lo, hi, true
}
