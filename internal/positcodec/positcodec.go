// Package positcodec is the posit codec of the repository: exact
// decoding to float64 and correctly rounded encoding, bit-level and
// generic over the pattern width n. posit32 uses it at n = 32 and its
// rounding boundaries at n = 33; internal/miniposit (posit16) at n = 16
// and 17. Every width has es = 2, so useed = 16.
//
// An n-bit posit pattern is a sign bit, a regime (a run of identical
// bits closed by the opposite bit, or by the end of the pattern), up
// to two exponent bits and the fraction. A run of m ones encodes
// k = m−1, a run of m zeros k = −m, and the value is
// ±(1 + f)·2^(4k + exp). Negative values are the two's complement of
// their magnitude's pattern; 0 and NaR (only the sign bit set) are the
// two special patterns.
//
// Rounding is round-to-nearest, ties to the even pattern, applied to
// the encoding; nonzero magnitudes saturate into [MinPos, MaxPos] =
// [2^−4(n−2), 2^4(n−2)]. Every value and every rounding boundary of
// width n ≤ 33 is exactly representable in float64: a width-n pattern
// carries at most n−5 fraction bits (29 significant bits at n = 33,
// against float64's 53) and a scale within ±4(n−2), far inside
// float64's normal range.
//
// The scalar functions are too large for the inliner, so the pure-Go
// posit32 batch loops are built from the same small pieces, each of
// which inlines: a batch pays no call per value. On AVX2 hosts the
// batch entry points (DecodeSlice32, EncodeSlice32) run all but the
// last len % 4 values through the AVX2 loops of slice_amd64.s, which
// compute the same bits, and leave only that tail to the Go loops.
package positcodec

import (
	"math"
	"math/bits"
	"unsafe"

	"rlibm32/internal/cpuid"
)

// nanBits is the float64 NaN that NaR decodes to (math.NaN's pattern).
const nanBits = 0x7FF8000000000001

// unpack splits the left-aligned pattern x (an n-bit pattern shifted
// up by 64−n) into a sign mask s (0 or all ones), the scale e and the
// left-aligned fraction frac: |value| = (1 + frac/2^64)·2^e. For 0 and
// NaR (x<<1 == 0) the results are meaningless and callers override
// them.
//
// The regime is counted in one step: XOR-ing the body with its own top
// bit turns a run of ones into a run of zeros, so LeadingZeros64 gives
// the run length m either way. Bits past the end of the pattern read
// as zero, which is the posit rule for a truncated exponent.
func unpack(x uint64) (s uint64, e int, frac uint64) {
	s = uint64(int64(x) >> 63)
	body := ((x ^ s) - s) << 1 // |x| without its sign bit
	t := body >> 63
	m := bits.LeadingZeros64(body ^ -t)
	rest := body << uint(m+1)   // exponent and fraction, left-aligned
	k := (m - 1) ^ (int(t) - 1) // m−1 for a run of ones, −m for zeros
	return s, 4*k + int(rest>>62), rest << 2
}

// float64Of assembles the float64 bits of an unpacked pattern directly
// (no math.Ldexp): 0 decodes to 0 and NaR to NaN.
func float64Of(x, s uint64, e int, frac uint64) float64 {
	b := s<<63 | uint64(e+1023)<<52 | frac>>12
	if x<<1 == 0 {
		b = s & nanBits
	}
	return math.Float64frombits(b)
}

// regime clamps e to the saturation range ±4(n−2) and lays out
// regime-to-be, exponent and fraction for one arithmetic shift: z holds
// "10" (k ≥ 0) or "01" (k < 0), the two exponent bits and frac's top
// 60 bits, and shifting it right by sh = k, or −k−1, repeats its top
// bit into the k+1 ones, or −k zeros, in front of the terminator.
//
// The clamp is the whole saturation: at ±4(n−2) the regime fills all
// n−1 body bits (MaxPos, MinPos) and the first bit rounded away is a
// terminator or exponent bit of zero, so no fraction moves the result.
func regime(e int, frac uint64, n uint) (z uint64, sh uint) {
	maxE := 4 * (int(n) - 2)
	e = min(max(e, -maxE), maxE)
	k := e >> 2
	return (2-uint64(k)>>63)<<62 | uint64(e&3)<<60 | frac>>4, uint(k ^ (k >> 63))
}

// round shifts z into its n−1 body bits and rounds to nearest, ties to
// even, in integer arithmetic. sticky is nonzero when anything below z
// was dropped. The result is the magnitude's pattern, in [1, MaxPos].
func round(z uint64, sh uint, sticky uint64, n uint) uint64 {
	body := uint64(int64(z) >> sh)
	q := body >> (65 - n)
	st := z<<(n-sh) | sticky // every bit below the round bit
	st = (st | -st) >> 63
	return q + body>>(64-n)&(q|st)&1
}

// signed applies the sign mask s (0 or all ones) to the magnitude
// pattern q by two's complement, keeping n bits.
func signed(q, s uint64, n uint) uint64 {
	return ((q ^ s) - s) & (1<<n - 1)
}

// specials overrides the rounded pattern q of the float64 with bits b
// where b is not a finite nonzero: ±0 gives 0, NaN and ±Inf give NaR.
// (Subnormals need nothing: regime's clamp sends them to ±MinPos.)
func specials(b, q uint64, n uint) uint64 {
	if b<<1 == 0 {
		q = 0
	}
	if b>>52&0x7FF == 0x7FF {
		q = 1 << (n - 1)
	}
	return q
}

// Unpack splits the n-bit pattern u (bits above n ignored) into sign,
// scale and left-aligned fraction: |value| = (1 + frac/2^64)·2^e, with
// the n−5 or fewer fraction bits at the top of frac. u must be neither
// 0 nor NaR.
func Unpack(u uint64, n uint) (neg bool, e int, frac uint64) {
	s, e, frac := unpack(u << (64 - n))
	return s != 0, e, frac
}

// Decode returns the exact float64 value of the n-bit pattern u: 0 for
// zero, NaN for NaR.
func Decode(u uint64, n uint) float64 {
	x := u << (64 - n)
	s, e, frac := unpack(x)
	return float64Of(x, s, e, frac)
}

// Encode rounds ±(1 + frac/2^64 + δ)·2^e to the nearest n-bit posit,
// ties to the even pattern, saturating to [MinPos, MaxPos], and returns
// the pattern. frac is a left-aligned fraction; δ is an infinitesimal
// present when sticky is set (nonzero bits dropped below frac).
func Encode(neg bool, e int, frac uint64, sticky bool, n uint) uint64 {
	st := frac & 15 // the bits regime drops
	if sticky {
		st = 1
	}
	s := uint64(0)
	if neg {
		s = ^s
	}
	z, sh := regime(e, frac, n)
	return signed(round(z, sh, st, n), s, n)
}

// FromFloat64 rounds x to the nearest n-bit posit: NaN and ±Inf give
// NaR, ±0 gives 0, and subnormal doubles saturate to ±MinPos.
func FromFloat64(x float64, n uint) uint64 {
	b := math.Float64bits(x)
	z, sh := regime(int(b>>52&0x7FF)-1023, b<<12, n)
	return specials(b, signed(round(z, sh, 0, n), uint64(int64(b)>>63), n), n)
}

// Boundary returns the real boundary between the positive n-bit pattern
// p and its successor: the value of the (n+1)-bit pattern p extended by
// a 1 bit. Reals strictly below it round to p or lower, strictly above
// to the successor or higher, and the boundary itself rounds to the
// even one of the two. It is exact in float64 for n ≤ 32.
func Boundary(p uint64, n uint) float64 {
	return Decode(p<<1|1, n+1)
}

// DecodeSlice32 decodes posit32 patterns: dst[i] = Decode(src[i], 32)
// for every element of src. len(dst) must be at least len(src). On
// AVX2 hosts the AVX2 loop decodes the first len(src) &^ 3 values and
// the Go loop the rest.
func DecodeSlice32[P ~uint32](dst []float64, src []P) {
	dst = dst[:len(src)]
	n := 0
	if cpuid.AVX2 && len(src) >= 4 {
		n = len(src) &^ 3
		decode32AVX2(&dst[0], (*uint32)(unsafe.Pointer(&src[0])), n)
	}
	decodeSlice32(dst[n:], src[n:])
}

// EncodeSlice32 rounds to posit32: dst[i] = FromFloat64(src[i], 32)
// for every element of src. len(dst) must be at least len(src). On
// AVX2 hosts the AVX2 loop encodes the first len(src) &^ 3 values and
// the Go loop the rest.
func EncodeSlice32[P ~uint32](dst []P, src []float64) {
	dst = dst[:len(src)]
	n := 0
	if cpuid.AVX2 && len(src) >= 4 {
		n = len(src) &^ 3
		encode32AVX2((*uint32)(unsafe.Pointer(&dst[0])), &src[0], n)
	}
	encodeSlice32(dst[n:], src[n:])
}

// decodeSlice32 is DecodeSlice32's pure-Go loop: the tail after the
// AVX2 loop, the whole batch elsewhere, and the loop the AVX2 one is
// tested against.
func decodeSlice32[P ~uint32](dst []float64, src []P) {
	dst = dst[:len(src)]
	for i, p := range src {
		x := uint64(p) << 32
		s, e, frac := unpack(x)
		dst[i] = float64Of(x, s, e, frac)
	}
}

// encodeSlice32 is EncodeSlice32's pure-Go loop, in the same roles.
func encodeSlice32[P ~uint32](dst []P, src []float64) {
	dst = dst[:len(src)]
	for i, x := range src {
		b := math.Float64bits(x)
		z, sh := regime(int(b>>52&0x7FF)-1023, b<<12, 32)
		dst[i] = P(specials(b, signed(round(z, sh, 0, 32), uint64(int64(b)>>63), 32), 32))
	}
}
