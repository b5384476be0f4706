// Package oracle produces correctly rounded results RN_T(f(x)) for the
// 32-bit targets and for float64, replacing the paper's use of the MPFR
// library ("with up to 400 precision bits").
//
// It drives internal/bigfp through a Ziv-style loop: evaluate f(x) at a
// working precision, widen the value by bigfp's guaranteed error bound,
// and accept the rounding only if both ends of the widened interval
// round identically; otherwise retry at higher precision. The precision
// ladder ends at 400 bits — the paper's own cap, justified by worst-case
// rounding-distance results (Lefèvre-Muller) for double precision,
// which dominate the 32-bit targets used here.
//
// All entry points but Float32Ziv are memoized in a concurrent sharded
// cache keyed by (function, input bits) — see cache.go — so the
// generator's repeated validation of one sample pays for the Ziv loop
// once per (function, input). PrecomputeTarget bulk-fills the cache in
// parallel.
package oracle

import (
	"math"
	"math/big"
	"sync"

	"rlibm32/internal/bigfp"
	"rlibm32/internal/interval"
	"rlibm32/posit32"
)

// precisions is the Ziv ladder.
var precisions = []uint{96, 160, 256, 400}

// domainEdge handles inputs outside the open domain where bigfp
// evaluates (NaN, infinities, non-positive logarithm arguments),
// making the oracle total. ok=true means y is the exact real-extended
// result (possibly NaN/±Inf) and bigfp must not be called.
func domainEdge(f bigfp.Func, x float64) (y float64, ok bool) {
	if math.IsNaN(x) {
		return math.NaN(), true
	}
	switch f {
	case bigfp.Log, bigfp.Log2, bigfp.Log10:
		if x < 0 {
			return math.NaN(), true
		}
		if x == 0 {
			return math.Inf(-1), true
		}
		if math.IsInf(x, 1) {
			return math.Inf(1), true
		}
	case bigfp.Log1p, bigfp.Log21p, bigfp.Log101p:
		if x < -1 {
			return math.NaN(), true
		}
		if x == -1 {
			return math.Inf(-1), true
		}
		if math.IsInf(x, 1) {
			return math.Inf(1), true
		}
	case bigfp.Exp, bigfp.Exp2, bigfp.Exp10:
		if math.IsInf(x, 1) {
			return math.Inf(1), true
		}
		if math.IsInf(x, -1) {
			return 0, true
		}
	case bigfp.Sinh:
		if math.IsInf(x, 0) {
			return x, true
		}
	case bigfp.Cosh:
		if math.IsInf(x, 0) {
			return math.Inf(1), true
		}
	case bigfp.SinPi, bigfp.CosPi:
		if math.IsInf(x, 0) {
			return math.NaN(), true
		}
	}
	return 0, false
}

// zivScratch holds the big.Float temporaries of one Ziv ladder run, so
// a full oracle evaluation performs no top-level allocations (the
// remaining ones are internal to math/big arithmetic).
type zivScratch struct {
	w, e, lo, hi big.Float
}

var zivPool = sync.Pool{New: func() any { return new(zivScratch) }}

// band widens w by bigfp's relative error bound at precision p,
// leaving lo <= f(x) <= hi in the scratch fields.
func (s *zivScratch) band(w *big.Float, prec uint) (lo, hi *big.Float) {
	if w.Sign() == 0 {
		// bigfp returns exact zeros only when the result is exactly zero.
		return w, w
	}
	e := s.e.SetPrec(w.Prec()).Abs(w)
	e.SetMantExp(e, -int(prec)+bigfp.ErrLog2)
	lo = s.lo.SetPrec(w.Prec()+8).Sub(w, e)
	hi = s.hi.SetPrec(w.Prec()+8).Add(w, e)
	return lo, hi
}

// ziv runs the Ziv ladder for f(x) over pooled scratch: at each
// precision it rounds both ends of bigfp's error band with round and
// accepts their common rounding. If the 400-bit band still straddles a
// rounding boundary (in practice only an exact tie does), it accepts
// the rounding of the band's centre (the paper's oracle contract), or
// of its lower end when lower is set. Every target differs only in
// round.
func ziv[T comparable](f bigfp.Func, x float64, round func(*big.Float) T, lower bool) T {
	s := zivPool.Get().(*zivScratch)
	defer zivPool.Put(s)
	var lo, hi *big.Float
	for i, p := range precisions {
		w := bigfp.EvalTo(&s.w, f, x, p)
		lo, hi = s.band(w, p)
		if a := round(lo); a == round(hi) {
			noteZiv(i)
			return a
		}
	}
	noteZivFallback()
	if lower {
		return round(lo)
	}
	return round(&s.w)
}

func roundFloat32(v *big.Float) float32 { r, _ := v.Float32(); return r }
func roundFloat64(v *big.Float) float64 { r, _ := v.Float64(); return r }

// Float32 returns the correctly rounded float32 value of f(x).
// Out-of-domain and infinite inputs follow the IEEE conventions
// (log of a negative is NaN, exp(-Inf) is 0, ...). Results are
// memoized; see cache.go.
func Float32(f bigfp.Func, x float64) float32 {
	return cachedFloat32(f, x)
}

// float32Uncached runs the Ziv loop directly (cache misses land here).
func float32Uncached(f bigfp.Func, x float64) float32 {
	if y, ok := domainEdge(f, x); ok {
		return float32(y)
	}
	// Tier 0: a double-precision reference plus guard band decides the
	// float32 rounding for all but a ~2^-19 sliver of inputs at the cost
	// of one math-package call (see ref.go and guard.go). Restricted to
	// float32-origin inputs — the accuracy contract the exhaustive
	// sweeps validated — and undecided bands fall through to the ladder.
	if ref, ok := ref64[f]; ok && float64(float32(x)) == x {
		if v, decided := RoundDecided32(ref(x), DefaultGuardUlps); decided {
			noteTier0()
			return v
		}
	}
	return Float32Ziv(f, x)
}

// Float32Ziv returns the correctly rounded float32 value of f(x) from
// the Ziv ladder alone, without the cache or tier 0: the independent
// check of a rounding that tier 0's reference and guard band decided.
func Float32Ziv(f bigfp.Func, x float64) float32 {
	if y, ok := domainEdge(f, x); ok {
		return float32(y)
	}
	return ziv(f, x, roundFloat32, false)
}

// Float64 returns the correctly rounded float64 value of f(x), used
// both for the reduced-function oracle values of Algorithm 2 and for
// the CRDouble baseline library. Results are memoized.
func Float64(f bigfp.Func, x float64) float64 {
	return cachedFloat64(f, x)
}

func float64Uncached(f bigfp.Func, x float64) float64 {
	if y, ok := domainEdge(f, x); ok {
		return y
	}
	return ziv(f, x, roundFloat64, false)
}

// Posit32 returns the correctly rounded posit32 value of f(x).
// Results are memoized.
func Posit32(f bigfp.Func, x float64) posit32.Posit {
	return cachedPosit32(f, x)
}

func posit32Uncached(f bigfp.Func, x float64) posit32.Posit {
	if y, ok := domainEdge(f, x); ok {
		return posit32.FromFloat64(y) // NaN and ±Inf map to NaR
	}
	// posit32 still accepts the lower end. exp2(-118) = 2^-118 is an
	// exact tie between 0x00000001 and 0x00000002, whose correct
	// rounding (ties to even) is 0x00000002; the committed exp2 table
	// was generated against the lower end's 0x00000001, and the centre
	// moves its underflow cutoff and coefficients. Switch with the
	// posit32 regeneration (ROADMAP item 1).
	return ziv(f, x, posit32.RoundBig, true)
}

// Target returns RN_T(f(x)) as the exact double embedding for the given
// target, plus ok=false when the result is not a real (never happens
// for the supported functions on in-domain inputs). The two 32-bit
// targets dispatch to the memoized Float32/Posit32 oracles; other
// targets are memoized per target name.
func Target(t interval.Target, f bigfp.Func, x float64) (float64, bool) {
	switch t.(type) {
	case interval.Float32Target:
		v := Float32(f, x)
		return float64(v), !math.IsNaN(float64(v))
	case interval.Posit32Target:
		p := Posit32(f, x)
		if p.IsNaR() {
			return math.NaN(), false
		}
		return p.Float64(), true
	}
	return cachedTarget(t, f, x)
}

// rounded is one generic target's rounding of a real: its exact
// double embedding, and false when it has no real result.
type rounded struct {
	v  float64
	ok bool
}

// targetUncached is the generic fallback through RoundBig (exercised by
// the 16-bit targets and custom targets).
func targetUncached(t interval.Target, f bigfp.Func, x float64) (float64, bool) {
	if y, ok := domainEdge(f, x); ok {
		switch {
		case math.IsNaN(y):
			return math.NaN(), false
		case math.IsInf(y, 0):
			return t.RoundBig(new(big.Float).SetInf(y < 0))
		}
		return t.Round(y), true
	}
	r := ziv(f, x, func(v *big.Float) rounded {
		y, ok := t.RoundBig(v)
		return rounded{y, ok}
	}, false)
	return r.v, r.ok
}
