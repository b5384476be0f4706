// Package miniposit implements the 16-bit posit type (es = 2, per the
// 2022 posit standard's uniform exponent size). posit16 was a target of
// the original RLIBM work that this paper scales up; like the 16-bit
// IEEE formats in internal/minifloat, its 65536-value input space lets
// the generated library be validated exhaustively.
//
// The encoding shares the posit32 package's codec (internal/positcodec:
// the same regime/exponent/fraction scheme, round-to-nearest-even on
// the encoding, saturation) at width 16 instead of 32. Every posit16
// value is exactly representable in float64 (≤ 12-bit significands,
// exponents within ±56).
package miniposit

import (
	"math"
	"math/big"

	"rlibm32/internal/positcodec"
)

// Special 16-bit patterns.
const (
	Zero   uint16 = 0x0000
	NaR    uint16 = 0x8000
	One    uint16 = 0x4000
	MaxPos uint16 = 0x7FFF // 2^56
	MinPos uint16 = 0x0001 // 2^-56
)

// IsNaR reports whether b is the NaR pattern.
func IsNaR(b uint16) bool { return b == NaR }

// Neg negates (two's complement of the pattern).
func Neg(b uint16) uint16 { return uint16(-b) }

// ToFloat64 decodes exactly (NaR → NaN).
func ToFloat64(p uint16) float64 { return positcodec.Decode(uint64(p), 16) }

// FromFloat64 rounds to the nearest posit16 (NaN/±Inf → NaR).
func FromFloat64(x float64) uint16 { return uint16(positcodec.FromFloat64(x, 16)) }

// upperBoundary returns the rounding boundary between the positive
// posit p and its successor (+Inf above MaxPos).
func upperBoundary(p uint16) float64 {
	if p == MaxPos {
		return math.Inf(1)
	}
	return positcodec.Boundary(uint64(p), 16)
}

// Ord orders posit16 patterns by value (int16 interpretation).
func Ord(p uint16) int32 { return int32(int16(p)) }

// FromOrd inverts Ord.
func FromOrd(o int32) uint16 { return uint16(int16(o)) }

// RoundBig rounds an arbitrary-precision value exactly.
func RoundBig(f *big.Float) uint16 {
	if f.IsInf() {
		return NaR
	}
	if f.Sign() == 0 {
		return Zero
	}
	neg := f.Sign() < 0
	af := new(big.Float).SetPrec(f.Prec()).Abs(f)
	v, _ := af.Float64()
	var p uint16
	switch {
	case math.IsInf(v, 1):
		p = MaxPos
	case v == 0:
		p = MinPos
	default:
		p = FromFloat64(v)
		if p>>15 == 1 {
			p = uint16(-p)
		}
	}
	for i := 0; i < 4; i++ {
		var lower float64
		if p == MinPos {
			lower = 0
		} else {
			lower = upperBoundary(p - 1)
		}
		upper := upperBoundary(p)
		cl := af.Cmp(new(big.Float).SetFloat64(lower))
		if cl < 0 {
			p--
			continue
		}
		if cl == 0 {
			return signed(FromFloat64(lower), neg)
		}
		if !math.IsInf(upper, 1) {
			cu := af.Cmp(new(big.Float).SetFloat64(upper))
			if cu > 0 {
				p++
				continue
			}
			if cu == 0 {
				return signed(FromFloat64(upper), neg)
			}
		}
		return signed(p, neg)
	}
	panic("miniposit: RoundBig failed to converge")
}

func signed(p uint16, neg bool) uint16 {
	if neg {
		return uint16(-p)
	}
	return p
}

// Interval returns the closed float64 interval rounding to p
// (ok=false for NaR; zeros share {0}).
func Interval(p uint16) (lo, hi float64, ok bool) {
	if p == NaR {
		return 0, 0, false
	}
	if p == Zero {
		return math.Copysign(0, -1), 0, true
	}
	if p>>15 == 1 {
		l, h, ok := Interval(uint16(-p))
		return -h, -l, ok
	}
	if p == MinPos {
		lo = math.Float64frombits(1)
	} else {
		b := upperBoundary(p - 1)
		if FromFloat64(b) == p {
			lo = b
		} else {
			lo = math.Nextafter(b, math.Inf(1))
		}
	}
	bu := upperBoundary(p)
	if math.IsInf(bu, 1) {
		hi = math.MaxFloat64
	} else if FromFloat64(bu) == p {
		hi = bu
	} else {
		hi = math.Nextafter(bu, math.Inf(-1))
	}
	return lo, hi, true
}
