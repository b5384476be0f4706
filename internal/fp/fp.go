// Package fp provides bit-level utilities for IEEE-754 binary32 and
// binary64 values: ordered-integer mappings, neighbour (nextUp/nextDown)
// traversal, ulp-step arithmetic, and exact midpoints of adjacent
// float32 values in double precision.
//
// These primitives underpin the rounding-interval machinery
// (internal/interval) and the reduced-interval widening search
// (internal/redint): both need to walk the double-precision number line
// one representable value at a time, or jump by a counted number of
// steps, in a total order that matches the usual < on non-NaN values.
package fp

import "math"

// Float64 constants.
const (
	// MaxFloat32AsFloat64 is math.MaxFloat32 widened to float64.
	MaxFloat32AsFloat64 = float64(math.MaxFloat32)
	// SmallestSubnormal32 is the smallest positive (subnormal) float32,
	// 2^-149, as a float64.
	SmallestSubnormal32 = 0x1p-149
	// SmallestNormal32 is the smallest positive normal float32, 2^-126.
	SmallestNormal32 = 0x1p-126
)

// OrderedInt64 maps a float64 to an int64 such that the mapping is
// monotonically increasing on all non-NaN values, with -0 mapped to -1,
// one position below +0 (which maps to 0). Adjacent floats map to
// adjacent integers, so ulp distances become integer differences.
func OrderedInt64(f float64) int64 {
	b := math.Float64bits(f)
	if b>>63 == 1 {
		return -int64(b&0x7FFFFFFFFFFFFFFF) - 1
	}
	return int64(b)
}

// FromOrderedInt64 is the inverse of OrderedInt64.
func FromOrderedInt64(i int64) float64 {
	if i < 0 {
		return math.Float64frombits(uint64(-(i + 1)) | 0x8000000000000000)
	}
	return math.Float64frombits(uint64(i))
}

// NextUp64 returns the least float64 greater than f.
// NextUp64(+Inf) = +Inf; NextUp64(NaN) = NaN.
// NextUp64(-0) and NextUp64(+0) both return the smallest positive
// subnormal, matching IEEE-754 nextUp semantics.
func NextUp64(f float64) float64 {
	switch {
	case math.IsNaN(f) || (math.IsInf(f, 1)):
		return f
	case f == 0:
		return math.Float64frombits(1)
	}
	return FromOrderedInt64(OrderedInt64(f) + 1)
}

// NextDown64 returns the greatest float64 less than f.
// NextDown64(-Inf) = -Inf; NextDown64(NaN) = NaN.
func NextDown64(f float64) float64 {
	switch {
	case math.IsNaN(f) || (math.IsInf(f, -1)):
		return f
	case f == 0:
		return math.Float64frombits(1 | 0x8000000000000000)
	}
	return FromOrderedInt64(OrderedInt64(f) - 1)
}

// StepBy64 moves k representable-value steps from f along the ordered
// float64 line (positive k moves up), saturating at ±Inf. f must not be
// NaN. Crossing zero behaves as if -0 and +0 were a single step apart
// in the ordered-integer space (i.e. -0 and +0 are distinct positions).
func StepBy64(f float64, k int64) float64 {
	o := OrderedInt64(f)
	const (
		maxOrd = int64(0x7FF0000000000000)      // +Inf
		minOrd = -int64(0x7FF0000000000000) - 1 // -Inf (ordered)
	)
	// Saturating add.
	s := o + k
	if k > 0 && (s < o || s > maxOrd) {
		s = maxOrd
	}
	if k < 0 && (s > o || s < minOrd) {
		s = minOrd
	}
	return FromOrderedInt64(s)
}

// StepsBetween64 returns the number of representable-value steps from a
// to b (positive when b > a). Both must be non-NaN.
func StepsBetween64(a, b float64) int64 {
	return OrderedInt64(b) - OrderedInt64(a)
}

// OrderedInt32 maps a float32 to an int32 preserving the < order on
// non-NaN values, analogous to OrderedInt64.
func OrderedInt32(f float32) int32 {
	b := math.Float32bits(f)
	if b>>31 == 1 {
		return -int32(b&0x7FFFFFFF) - 1
	}
	return int32(b)
}

// FromOrderedInt32 is the inverse of OrderedInt32.
func FromOrderedInt32(i int32) float32 {
	if i < 0 {
		return math.Float32frombits(uint32(-(i + 1)) | 0x80000000)
	}
	return math.Float32frombits(uint32(i))
}

// Ord32 maps a float32 to its unsigned rank in the sweep order used by
// the exhaustive verifier: a bijection on all 2^32 bit patterns that is
// monotonically increasing on non-NaN values, with negative-sign NaN
// payloads ranked below -Inf and positive-sign NaN payloads above
// +Inf. -0 ranks one below +0 (rank 0x7FFFFFFF vs 0x80000000), so
// Ord32(f) == uint32(OrderedInt32(f)) + 1<<31 for every pattern.
// FromOrd32 is the exact inverse.
func Ord32(f float32) uint32 { return OrdBits32(math.Float32bits(f)) }

// OrdBits32 is Ord32 on a raw bit pattern (no float conversion), usable
// on NaN payloads without quieting.
func OrdBits32(b uint32) uint32 {
	if b>>31 == 1 {
		return ^b
	}
	return b + 0x80000000
}

// FromOrdBits32 is the inverse of OrdBits32.
func FromOrdBits32(o uint32) uint32 {
	if o >= 0x80000000 {
		return o - 0x80000000
	}
	return ^o
}

// NextUp32 returns the least float32 greater than f, with IEEE nextUp
// semantics at zero and infinity.
func NextUp32(f float32) float32 {
	switch {
	case f != f || f == float32(math.Inf(1)):
		return f
	case f == 0:
		return math.Float32frombits(1)
	}
	return FromOrderedInt32(OrderedInt32(f) + 1)
}

// NextDown32 returns the greatest float32 less than f.
func NextDown32(f float32) float32 {
	switch {
	case f != f || f == float32(math.Inf(-1)):
		return f
	case f == 0:
		return math.Float32frombits(1 | 0x80000000)
	}
	return FromOrderedInt32(OrderedInt32(f) - 1)
}

// IsNaN32 reports whether f is a NaN.
func IsNaN32(f float32) bool { return f != f }

// IsInf32 reports whether f is an infinity (either sign when sign==0,
// or the given sign).
func IsInf32(f float32, sign int) bool {
	return (sign >= 0 && f > math.MaxFloat32) || (sign <= 0 && f < -math.MaxFloat32)
}

// MantissaEven32 reports whether the trailing significand bit of f is
// zero. Under round-to-nearest-even, a value exactly midway between f
// and a neighbour rounds to f iff f's mantissa is even.
func MantissaEven32(f float32) bool {
	return math.Float32bits(f)&1 == 0
}

// Midpoint32 returns the exact midpoint of two adjacent (or equal)
// finite float32 values as a float64. The computation is exact: both
// operands have 24-bit significands and the double sum/halving cannot
// round.
func Midpoint32(a, b float32) float64 {
	return (float64(a) + float64(b)) / 2
}

// Exp32 returns the unbiased binary exponent of a finite nonzero
// float32, treating subnormals as having exponent -127+1-shift (i.e.
// the exponent of their leading bit).
func Exp32(f float32) int {
	b := math.Float32bits(f)
	e := int(b>>23) & 0xFF
	if e == 0 {
		// Subnormal: the exponent of the leading set fraction bit.
		// frac·2^-149 with leading bit at position lead has magnitude
		// in [2^(lead-149), 2^(lead-148)).
		frac := b & 0x7FFFFF
		lead := 22
		for lead >= 0 && frac&(1<<uint(lead)) == 0 {
			lead--
		}
		return lead - 149
	}
	return e - 127
}

// Ulp64 returns the distance from |f| to the next representable float64
// above it ("ulp of f"), for finite f. Ulp64(0) returns the smallest
// subnormal.
func Ulp64(f float64) float64 {
	f = math.Abs(f)
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return math.NaN()
	}
	return NextUp64(f) - f
}

// Ulp32 returns the float32 ulp of f as a float64.
func Ulp32(f float32) float64 {
	if IsNaN32(f) || IsInf32(f, 0) {
		return math.NaN()
	}
	a := f
	if a < 0 {
		a = -a
	}
	return float64(NextUp32(a)) - float64(a)
}

// SignBit32 reports whether f has its sign bit set.
func SignBit32(f float32) bool { return math.Float32bits(f)&0x80000000 != 0 }
