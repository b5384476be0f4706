package posit32

import (
	"math/bits"

	"rlibm32/internal/positcodec"
)

// Arithmetic on posit32 values, correctly rounded (round-to-nearest,
// ties-to-even on the encoding, with saturation). All operations are
// computed exactly in integer arithmetic and rounded once, so there is
// no double rounding.

// decomp is an exact unpacked magnitude: value = m ⋅ 2^exp2 with m > 0.
type decomp struct {
	neg  bool
	m    uint64 // integer significand
	exp2 int    // binary exponent of the least significant bit of m
}

// decomp unpacks a nonzero, non-NaR posit with its fraction's 27
// possible bits as the integer significand: m ∈ [2^27, 2^28).
func (p Posit) decomp() decomp {
	neg, e, frac := positcodec.Unpack(uint64(p), 32)
	return decomp{neg: neg, m: 1<<27 | frac>>37, exp2: e - 27}
}

// encodeDecomp rounds m ⋅ 2^exp2 (m > 0) to a posit; sticky marks
// discarded nonzero low-order information below m.
func encodeDecomp(neg bool, m uint64, exp2 int, sticky bool) Posit {
	t := bits.Len64(m) - 1 // m in [2^t, 2^(t+1))
	return Posit(positcodec.Encode(neg, exp2+t, m<<(64-t), sticky, 32))
}

// Add returns the correctly rounded sum p + q.
func (p Posit) Add(q Posit) Posit {
	if p == NaR || q == NaR {
		return NaR
	}
	if p == Zero {
		return q
	}
	if q == Zero {
		return p
	}
	a, b := p.decomp(), q.decomp()
	if a.exp2 < b.exp2 {
		a, b = b, a
	}
	shift := a.exp2 - b.exp2
	sa, sb := int64(1), int64(1)
	if a.neg {
		sa = -1
	}
	if b.neg {
		sb = -1
	}
	if shift <= 32 {
		// Exact path: a.m < 2^28, so a.m<<32 fits in int64.
		sum := sa*int64(a.m<<uint(shift)) + sb*int64(b.m)
		if sum == 0 {
			return Zero
		}
		neg := sum < 0
		m := uint64(sum)
		if neg {
			m = uint64(-sum)
		}
		return encodeDecomp(neg, m, b.exp2, false)
	}
	// b is far below a's rounding granularity: replace it by a sticky
	// contribution one guard-scale below (34 guard bits > 28-bit
	// significand + round bit, so the rounding decision is unchanged).
	const g = 34
	sum := sa*int64(a.m<<g) + sb
	neg := sum < 0
	m := uint64(sum)
	if neg {
		m = uint64(-sum)
	}
	return encodeDecomp(neg, m, a.exp2-g, true)
}

// Sub returns the correctly rounded difference p - q.
func (p Posit) Sub(q Posit) Posit { return p.Add(q.Neg()) }

// Mul returns the correctly rounded product p * q.
func (p Posit) Mul(q Posit) Posit {
	if p == NaR || q == NaR {
		return NaR
	}
	if p == Zero || q == Zero {
		return Zero
	}
	a, b := p.decomp(), q.decomp()
	// a.m, b.m <= 2^28: the product fits in uint64 exactly.
	return encodeDecomp(a.neg != b.neg, a.m*b.m, a.exp2+b.exp2, false)
}

// Div returns the correctly rounded quotient p / q. Division by zero
// and NaR operands yield NaR.
func (p Posit) Div(q Posit) Posit {
	if p == NaR || q == NaR || q == Zero {
		return NaR
	}
	if p == Zero {
		return Zero
	}
	a, b := p.decomp(), q.decomp()
	// 32 extra quotient bits keep the round and sticky information.
	num := a.m << 32
	quo := num / b.m
	rem := num % b.m
	return encodeDecomp(a.neg != b.neg, quo, a.exp2-b.exp2-32, rem != 0)
}
