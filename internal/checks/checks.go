// Package checks holds the deterministic, representation-proportional
// input samples behind the Table 1 and Table 2 reproductions (every
// exponent or regime plus dense windows at special-case boundaries),
// and the map from function names to their oracle identities.
//
// rlibmcheck and the tier-1 tests check these samples through
// internal/exhaust, the one correctness harness. rlibmgen and
// rlibmsweep constrain generation on them, and rlibmablate validates
// generated candidates on them.
package checks

import (
	"math"

	"rlibm32/internal/bigfp"
	"rlibm32/internal/fp"
	"rlibm32/posit32"
)

// OracleFunc maps a function name to its bigfp oracle identity.
var OracleFunc = map[string]bigfp.Func{
	"ln": bigfp.Log, "log2": bigfp.Log2, "log10": bigfp.Log10,
	"exp": bigfp.Exp, "exp2": bigfp.Exp2, "exp10": bigfp.Exp10,
	"sinh": bigfp.Sinh, "cosh": bigfp.Cosh,
	"sinpi": bigfp.SinPi, "cospi": bigfp.CosPi,
}

// SampleFloat32 yields n deterministic float32 inputs: ordinal-uniform
// over all finite values plus 2^win values around every power of two
// and around zero (where special-case cutoffs live).
func SampleFloat32(n int) []float32 {
	var xs []float32
	seen := make(map[int32]struct{}, n)
	add := func(o int32) {
		if _, dup := seen[o]; dup {
			return
		}
		v := fp.FromOrderedInt32(o)
		if v != v { // NaN block
			return
		}
		seen[o] = struct{}{}
		xs = append(xs, v)
	}
	lo, hi := fp.OrderedInt32(float32(math.Inf(-1)))+1, fp.OrderedInt32(float32(math.Inf(1)))-1
	span := int64(hi) - int64(lo)
	stride := span / int64(n)
	if stride < 1 {
		stride = 1
	}
	for o := int64(lo); o <= int64(hi); o += stride {
		add(int32(o))
	}
	// Boundary windows: around ±2^k for every exponent, and around 0.
	for e := -149; e <= 127; e++ {
		for _, s := range [2]float32{1, -1} {
			b := fp.OrderedInt32(s * float32(math.Ldexp(1, e)))
			for d := int32(-8); d <= 8; d++ {
				add(b + d)
			}
		}
	}
	for d := int32(-64); d <= 64; d++ {
		add(d)
	}
	return xs
}

// SamplePosit32 yields n deterministic posit inputs covering every
// regime.
func SamplePosit32(n int) []posit32.Posit {
	var ps []posit32.Posit
	stride := uint32((uint64(1) << 32) / uint64(n))
	if stride == 0 {
		stride = 1
	}
	for b := uint64(0); b < 1<<32; b += uint64(stride) {
		p := posit32.FromBits(uint32(b))
		if p.IsNaR() {
			continue
		}
		ps = append(ps, p)
	}
	// Regime boundaries: ±2^(4k).
	for k := -30; k <= 30; k++ {
		base := posit32.FromFloat64(math.Ldexp(1, 4*k))
		for d := -8; d <= 8; d++ {
			q := posit32.FromBits(uint32(int32(base.Bits()) + int32(d)))
			if !q.IsNaR() {
				ps = append(ps, q)
			}
		}
	}
	return ps
}
