// Package rangered implements the range reductions and output
// compensations of RLIBM-32 for the ten float32 functions and eight
// posit32 functions (paper §2, §5 and the table-driven reductions of
// the accompanying technical report).
//
// A Family packages, for one elementary function f:
//
//   - the special cases handled outside the polynomial path;
//   - the range reduction RR_H: x ↦ (r, Ctx), computed in double;
//   - the list of reduced elementary functions f_i to approximate;
//   - the monotonic output compensation OC_H.
//
// The same Reduce and OC code runs in the generator (deducing reduced
// intervals via Algorithm 2) and in the shipped library, so every
// double-precision rounding error they commit is absorbed by the
// intervals — the paper's central soundness invariant.
//
// All family data (lookup tables, special-case cutoffs) lives in plain
// exported struct fields: the generator fills them from the oracle and
// cutoff searches (build.go), then emits them as Go literals; the
// runtime library reconstructs identical structs from those literals
// with no oracle dependency.
package rangered

import (
	"math"

	"rlibm32/internal/bigfp"
)

// Ctx carries the output-compensation context computed by Reduce: up to
// two table-derived factors and a sign.
type Ctx struct {
	A, B float64
	S    float64
}

// OCShape identifies the algebraic form of a family's output
// compensation. All shapes are monotonic in the reduced-function
// values, as Algorithm 2 requires.
type OCShape uint8

// Output compensation shapes.
const (
	// OCAdd: result = A + v (logarithms).
	OCAdd OCShape = iota
	// OCMul: result = A * v with A > 0 or A < 0 uniformly (exponentials).
	OCMul
	// OCPair: result = S * (A*v1 + B*v0) with A, B >= 0 and S = ±1
	// (sinh/cosh, sinpi/cospi; v0, v1 in Funcs order).
	OCPair
)

// Family is one elementary function's reduction pipeline.
type Family interface {
	// Name is the function's conventional name ("ln", "exp10", ...).
	Name() string
	// Fn is the function itself, for the result oracle.
	Fn() bigfp.Func
	// Funcs lists the reduced elementary functions approximated by
	// piecewise polynomials (length 1 or 2).
	Funcs() []bigfp.Func
	// Terms gives the monomial exponents of the polynomial for each
	// reduced function, mirroring the paper's per-function degrees.
	Terms() [][]int
	// Special returns (result, true) when x bypasses the polynomial
	// path. The result is the exact double embedding of the target
	// value (NaN encodes float32-NaN / posit-NaR).
	Special(x float64) (float64, bool)
	// Reduce performs range reduction on a non-special x.
	Reduce(x float64) (r float64, c Ctx)
	// OC applies output compensation to the reduced-function values
	// (vals[i] corresponds to Funcs()[i]).
	OC(vals [2]float64, c Ctx) float64
	// SampleDomains lists the closed input ranges (embedded target
	// values) that reach the polynomial path, for the generator's
	// representation-proportional sampler.
	SampleDomains() [][2]float64
}

// Exp2i returns 2^m exactly for -1022 <= m <= 1023 via direct bit
// construction (value-identical to math.Ldexp(1, m), several times
// faster; the generator and runtime share this helper, so there is no
// numerical divergence to absorb).
func Exp2i(m int) float64 {
	return math.Float64frombits(uint64(m+1023) << 52)
}
