// Guard-band escalation: the cheap front half of the exhaustive
// verifier's two-tier oracle.
//
// A double-precision approximation of f(x) that is accurate to within a
// known number of float64 ulps determines the correctly rounded float32
// result for the overwhelming majority of inputs: a float32 rounding
// boundary (the midpoint of two adjacent float32 values) is ~2^28
// float64 ulps away from a random double, so a guard band of a few
// hundred ulps around the approximation almost never straddles one.
// Only when it does — or when the caller has independent reason to
// distrust the approximation — must the full Ziv ladder run.
package oracle

import "math"

// DefaultGuardUlps is the guard-band half-width used by the exhaustive
// verifier, in float64 ulps of the reference value. The double
// references (Go's math package plus the compensated exp10/sinpi/cospi
// in ref.go) are accurate to a few ulps; 256 leaves two
// orders of magnitude of slack while keeping the expected escalation
// fraction near 2*256*2^-52 / 2^-24 ≈ 2^-19 of inputs.
const DefaultGuardUlps = 256

// RoundDecided32 rounds ref — a double-precision approximation of a
// true real value, accurate to within guardUlps float64 ulps — to
// float32, reporting whether the rounding is insensitive to the
// approximation error: ok means every value in the guard band rounds to
// the same float32, so the returned value IS the correct rounding of
// the true value (given the accuracy contract).
//
// Non-finite and zero references are decided by range reasoning rather
// than a band: a double that overflowed to ±Inf stands for a magnitude
// ≥ ~2^1023, far beyond the float32 overflow threshold 2^128; a double
// that is exactly zero stands for a magnitude ≤ guardUlps*2^-1074, far
// below the smallest float32 midpoint 2^-150. NaN references are never
// decided (the caller's domain knowledge, not a band, must rule there).
func RoundDecided32(ref float64, guardUlps float64) (float32, bool) {
	if math.IsNaN(ref) {
		return float32(math.NaN()), false
	}
	if math.IsInf(ref, 0) || ref == 0 {
		return float32(ref), true
	}
	lo, hi := GuardBand(ref, guardUlps)
	if float32(lo) == float32(hi) {
		return float32(ref), true
	}
	return float32(ref), false
}

// GuardBand returns the band [ref-eps, ref+eps] that holds the true
// value when ref is accurate to within guardUlps float64 ulps. eps =
// guardUlps * (2^-52|ref| + 2^-1074) bounds guardUlps ulps for every
// finite ref, normal or subnormal.
func GuardBand(ref, guardUlps float64) (lo, hi float64) {
	eps := float64(guardUlps * (float64(0x1p-52*math.Abs(ref)) + 0x1p-1074))
	return ref - eps, ref + eps
}
