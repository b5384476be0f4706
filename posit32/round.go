package posit32

import (
	"math"
	"math/big"

	"rlibm32/internal/positcodec"
)

// This file provides the exact rounding geometry of posit32 needed by
// the RLIBM-32 pipeline: the real-valued boundary between adjacent
// posits, the float64 rounding interval of a posit, and correct
// rounding from an arbitrary-precision big.Float.
//
// Posit rounding is round-to-nearest-even applied to the encoding, so
// the boundary between a posit and its successor is the value whose
// encoding is the posit's 32-bit pattern extended by a single 1 bit —
// i.e. a "33-bit posit". Every such boundary has a significand of at
// most 29 bits and an exponent within ±122, so it is exactly
// representable in float64.

// upperBoundary returns the exact real boundary between the positive
// posit p and its successor, as a float64: reals strictly below it
// round to p (or lower), strictly above round to the successor (or
// higher), and the boundary itself rounds by ties-to-even on the
// encoding. For p == MaxPos it returns +Inf (nothing rounds above
// MaxPos).
func upperBoundary(p Posit) float64 {
	if p == MaxPos {
		return math.Inf(1)
	}
	if int32(p) <= 0 {
		panic("posit32: upperBoundary requires a positive posit")
	}
	return positcodec.Boundary(uint64(p), 32)
}

// RoundingIntervalF64 returns the smallest and largest float64 values
// that round to p under FromFloat64. The interval is closed on both
// sides. For p == Zero it returns (-0, +0) (only the two zeros round
// to zero); for p == NaR it panics.
func (p Posit) RoundingIntervalF64() (lo, hi float64) {
	if p == NaR {
		panic("posit32: NaR has no rounding interval")
	}
	if p == Zero {
		return math.Copysign(0, -1), 0
	}
	if int32(p) < 0 {
		l, h := p.Neg().RoundingIntervalF64()
		return -h, -l
	}
	// Boundary below p: between p's predecessor and p. For MinPos the
	// lower boundary is zero (every positive real rounds to >= MinPos).
	if p == MinPos {
		lo = math.Float64frombits(1) // smallest positive double
	} else {
		b := upperBoundary(Posit(uint32(p) - 1))
		if FromFloat64(b) == p {
			lo = b
		} else {
			lo = nextUp64(b)
		}
	}
	bu := upperBoundary(p)
	if math.IsInf(bu, 1) {
		hi = math.MaxFloat64
	} else if FromFloat64(bu) == p {
		hi = bu
	} else {
		hi = nextDown64(bu)
	}
	return lo, hi
}

func nextUp64(f float64) float64 {
	if f == 0 {
		return math.Float64frombits(1)
	}
	b := math.Float64bits(f)
	if b>>63 == 0 {
		b++
	} else {
		b--
	}
	return math.Float64frombits(b)
}

func nextDown64(f float64) float64 {
	if f == 0 {
		return math.Float64frombits(1 | 1<<63)
	}
	b := math.Float64bits(f)
	if b>>63 == 0 {
		b--
	} else {
		b++
	}
	return math.Float64frombits(b)
}

// RoundBig rounds an arbitrary-precision value to the nearest posit32
// with the same semantics as FromFloat64 (encoding ties-to-even,
// saturation). It is exact: no double rounding occurs even when f lies
// within half a float64 ulp of a posit rounding boundary. Infinite f
// returns NaR (matching NaN/Inf handling in FromFloat64).
func RoundBig(f *big.Float) Posit {
	if f.IsInf() {
		return NaR
	}
	if f.Sign() == 0 {
		return Zero
	}
	neg := f.Sign() < 0
	af := new(big.Float).SetPrec(f.Prec()).Abs(f)
	v, _ := af.Float64()
	var p Posit
	if math.IsInf(v, 1) {
		p = MaxPos
	} else if v == 0 {
		p = MinPos
	} else {
		p = FromFloat64(v)
	}
	// v is within half a double-ulp of af, and posit spacing is never
	// finer than double spacing here, so p is at most one step off.
	for i := 0; i < 4; i++ {
		var lower float64 // boundary below p
		if p == MinPos {
			lower = 0
		} else {
			lower = upperBoundary(Posit(uint32(p) - 1))
		}
		upper := upperBoundary(p)
		cl := af.Cmp(new(big.Float).SetFloat64(lower))
		if cl < 0 || (cl == 0 && p != MinPos) {
			if cl == 0 {
				// Exactly on the lower boundary: ties-to-even decides.
				return signedPosit(FromFloat64(lower), neg)
			}
			p = Posit(uint32(p) - 1)
			continue
		}
		if !math.IsInf(upper, 1) {
			cu := af.Cmp(new(big.Float).SetFloat64(upper))
			if cu > 0 {
				p = Posit(uint32(p) + 1)
				continue
			}
			if cu == 0 {
				return signedPosit(FromFloat64(upper), neg)
			}
		}
		return signedPosit(p, neg)
	}
	panic("posit32: RoundBig failed to converge")
}

func signedPosit(p Posit, neg bool) Posit {
	if neg {
		return p.Neg()
	}
	return p
}
