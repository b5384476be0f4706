package posit32

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"testing"
)

// The bit-by-bit posit32 codec this package used before it moved to
// internal/positcodec, kept as the reference the codec is proved
// against: parts, leadingOnes and leadingZeros31 decoded the regime one
// bit at a time, encodeMag rounded through branches on the regime, and
// decodeExt decoded the 33-bit rounding boundaries. Nothing outside
// this file calls them.

// es is the posit exponent field width; useed = 2^(2^es) = 16.
const es = 2

// parts decomposes a nonzero, non-NaR posit into
// neg, e, frac, fbits such that |p| = (1 + frac/2^fbits) ⋅ 2^e,
// with 0 <= frac < 2^fbits and 0 <= fbits <= 27. When the fraction
// field is empty, fbits = 0 and frac = 0.
func (p Posit) parts() (neg bool, e int, frac uint32, fbits int) {
	u := uint32(p)
	if u>>31 == 1 {
		neg = true
		u = -u // two's complement gives |p|'s encoding
	}
	body := u << 1 // drop sign; 31 significant bits at the top
	// Decode regime: run of identical leading bits.
	var k, used int
	if body>>31 == 1 {
		n := leadingOnes(body)
		k = n - 1
		used = n + 1 // run + terminator (terminator may be virtual at n=31)
	} else {
		n := leadingZeros31(body)
		k = -n
		used = n + 1
	}
	if used > 31 {
		used = 31
	}
	rest := body << uint(used) // remaining bits, left-aligned
	restBits := 31 - used
	// Exponent: up to 2 bits.
	eb := 0
	ebTaken := restBits
	if ebTaken > es {
		ebTaken = es
	}
	if ebTaken > 0 {
		eb = int(rest >> uint(32-ebTaken))
		eb <<= uint(es - ebTaken) // missing low exponent bits are zero
		rest <<= uint(ebTaken)
		restBits -= ebTaken
	}
	e = 4*k + eb
	fbits = restBits
	if fbits > 0 {
		frac = rest >> uint(32-fbits)
	}
	return neg, e, frac, fbits
}

func leadingOnes(x uint32) int {
	n := 0
	for x>>31 == 1 {
		n++
		x <<= 1
		if n == 32 {
			break
		}
	}
	return n
}

func leadingZeros31(x uint32) int {
	n := 0
	for n < 31 && x>>31 == 0 {
		n++
		x <<= 1
	}
	return n
}

// encodeMag builds the posit encoding of the positive magnitude
// (1 + frac/2^fbits) ⋅ 2^e with round-to-nearest (ties-to-even on the
// encoding) and saturation to [MinPos, MaxPos]. frac must be < 2^fbits
// and fbits <= 60.
func encodeMag(e int, frac uint64, fbits int) uint32 {
	if e > 120 {
		return uint32(MaxPos)
	}
	if e < -120 {
		return uint32(MinPos)
	}
	k := e >> 2 // floor division (arithmetic shift)
	ebits := uint64(e - 4*k)
	// Regime bit string as an integer with rl significant positions.
	var regime uint64
	var rl int
	if k >= 0 {
		rl = k + 2
		regime = ((1 << uint(k+1)) - 1) << 1
	} else {
		rl = 1 - k
		regime = 1
	}
	// head = regime ++ exponent bits.
	head := regime<<es | ebits
	hbits := rl + es
	var q uint64
	var round, sticky bool
	if hbits >= 32 {
		cut := hbits - 31
		q = head >> uint(cut)
		round = (head>>uint(cut-1))&1 == 1
		sticky = head&((1<<uint(cut-1))-1) != 0 || frac != 0
	} else {
		need := 31 - hbits
		if fbits <= need {
			q = head<<uint(need) | frac<<uint(need-fbits)
		} else {
			shift := fbits - need
			q = head<<uint(need) | frac>>uint(shift)
			round = (frac>>uint(shift-1))&1 == 1
			sticky = frac&((1<<uint(shift-1))-1) != 0
		}
	}
	if round && (sticky || q&1 == 1) {
		q++
	}
	// Saturate: rounding must not produce zero or wrap past MaxPos.
	if q == 0 {
		q = 1
	}
	if q > uint64(MaxPos) {
		q = uint64(MaxPos)
	}
	return uint32(q)
}

// decodeExt decodes a posit-like encoding of the given width (33 for
// boundary values) into its exact float64 value. u must be positive
// (sign bit clear) and nonzero.
func decodeExt(u uint64, width uint) float64 {
	body := u << (65 - width) // body bits left-aligned in 64 bits
	var k, used int
	if body>>63 == 1 {
		n := 0
		for n < int(width-1) && (body<<uint(n))>>63 == 1 {
			n++
		}
		k = n - 1
		used = n + 1
	} else {
		n := 0
		for n < int(width-1) && (body<<uint(n))>>63 == 0 {
			n++
		}
		k = -n
		used = n + 1
	}
	if used > int(width-1) {
		used = int(width - 1)
	}
	rest := body << uint(used)
	restBits := int(width-1) - used
	eb := 0
	ebTaken := restBits
	if ebTaken > es {
		ebTaken = es
	}
	if ebTaken > 0 {
		eb = int(rest >> (64 - uint(ebTaken)))
		eb <<= uint(es - ebTaken)
		rest <<= uint(ebTaken)
		restBits -= ebTaken
	}
	e := 4*k + eb
	fbits := restBits
	var frac uint64
	if fbits > 0 {
		frac = rest >> (64 - uint(fbits))
	}
	return math.Ldexp(float64(uint64(1)<<uint(fbits)+frac), e-fbits)
}

// refFloat64 is Float64 as it was: parts, then math.Ldexp.
func refFloat64(p Posit) float64 {
	if p == Zero {
		return 0
	}
	if p == NaR {
		return math.NaN()
	}
	neg, e, frac, fbits := p.parts()
	v := math.Ldexp(float64((uint32(1)<<uint(fbits))+frac), e-fbits)
	if neg {
		v = -v
	}
	return v
}

// refFromFloat64 is FromFloat64 as it was, over encodeMag.
func refFromFloat64(x float64) Posit {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return NaR
	}
	if x == 0 {
		return Zero
	}
	neg := math.Signbit(x)
	b := math.Float64bits(math.Abs(x))
	exp := int(b>>52) & 0x7FF
	if exp == 0 {
		return signedPosit(MinPos, neg)
	}
	return signedPosit(Posit(encodeMag(exp-1023, b&(1<<52-1), 52)), neg)
}

// checkPattern compares the codec with the reference on the pattern p:
// decode (bit for bit), decode then encode (the identity), and, for
// p in [0, MaxPos), encode at the upper rounding boundary of p and one
// float64 ulp either side of it, for both signs. It returns the first
// disagreement, or "".
func checkPattern(p Posit) string {
	got, want := p.Float64(), refFloat64(p)
	if math.Float64bits(got) != math.Float64bits(want) {
		return fmt.Sprintf("Float64(%#08x) = %v, reference %v", uint32(p), got, want)
	}
	if p != NaR {
		if q := FromFloat64(got); q != p {
			return fmt.Sprintf("FromFloat64(Float64(%#08x)) = %#08x", uint32(p), uint32(q))
		}
	}
	if int32(p) < 0 || p == MaxPos {
		return ""
	}
	b := decodeExt(uint64(p)<<1|1, 33) // for p = 0: 2^-124, inside (0, MinPos)
	if p != Zero {
		if got := upperBoundary(p); got != b {
			return fmt.Sprintf("upperBoundary(%#08x) = %v, reference %v", uint32(p), got, b)
		}
	}
	for _, x := range [...]float64{b, nextDown64(b), nextUp64(b)} {
		for _, v := range [...]float64{x, -x} {
			if got, want := FromFloat64(v), refFromFloat64(v); got != want {
				return fmt.Sprintf("FromFloat64(%v) = %#08x, reference %#08x (boundary of %#08x)",
					v, uint32(got), uint32(want), uint32(p))
			}
		}
	}
	return ""
}

// sweep runs check on every pattern lo, lo+stride, ... below hi, split
// across GOMAXPROCS goroutines, and fails t with the first few
// disagreements.
func sweep(t *testing.T, lo, hi, stride uint64, check func(Posit) string) {
	t.Helper()
	workers := uint64(runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	var mu sync.Mutex
	var fails []string
	for w := uint64(0); w < workers; w++ {
		wg.Add(1)
		go func(w uint64) {
			defer wg.Done()
			for b := lo + w*stride; b < hi; b += workers * stride {
				if msg := check(Posit(b)); msg != "" {
					mu.Lock()
					fails = append(fails, msg)
					mu.Unlock()
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, msg := range fails {
		t.Error(msg)
	}
}

// TestCodecMatchesReference checks the codec against the reference on
// a stride of patterns and on patterns of every regime length (with
// zero, full and mixed exponent and fraction tails).
// RLIBM_PARITY_FULL=1 sweeps all 2^32 patterns, which covers all
// 2^31−1 upper boundaries of [0, MaxPos).
func TestCodecMatchesReference(t *testing.T) {
	if os.Getenv("RLIBM_PARITY_FULL") == "1" {
		sweep(t, 0, 1<<32, 1, checkPattern)
		return
	}
	sweep(t, 0, 1<<32, 4093, checkPattern)
	for m := 1; m <= 30; m++ {
		rest := uint32(1)<<(30-m) - 1 // the bits after the terminator
		for _, tail := range [...]uint32{0, ^uint32(0), 0x55555555, 0x0F0F0F0F, 1} {
			for _, body := range [...]uint32{
				1<<31 - uint32(1)<<(31-m) | tail&rest, // m ones (k = m−1), then 0
				uint32(1)<<(30-m) | tail&rest,         // m zeros (k = −m), then 1
			} {
				for _, p := range [...]Posit{Posit(body), Posit(body).Neg()} {
					if msg := checkPattern(p); msg != "" {
						t.Fatal(msg)
					}
				}
			}
		}
	}
	for _, p := range [...]Posit{MaxPos, MaxPos.Neg(), Zero, NaR} { // 31 ones; no regime
		if msg := checkPattern(p); msg != "" {
			t.Fatal(msg)
		}
	}
	// Doubles off the boundaries: any bit pattern, and every scale
	// across the posit range and past both ends.
	rng := rand.New(rand.NewSource(16))
	for i := 0; i < 1<<20; i++ {
		x := math.Float64frombits(rng.Uint64())
		if i&1 == 1 {
			x = math.Ldexp(1+rng.Float64(), rng.Intn(260)-130)
		}
		if got, want := FromFloat64(x), refFromFloat64(x); got != want {
			t.Fatalf("FromFloat64(%v) = %#08x, reference %#08x", x, uint32(got), uint32(want))
		}
	}
}

// TestCodecSpecials pins the encoder's special cases and both
// saturation ends, and checks each against the reference.
func TestCodecSpecials(t *testing.T) {
	minSub := math.Float64frombits(1)
	maxSub := math.Float64frombits(1<<52 - 1)
	cases := []struct {
		x    float64
		want Posit
	}{
		{0, Zero},
		{math.Copysign(0, -1), Zero},
		{math.NaN(), NaR},
		{math.Inf(1), NaR},
		{math.Inf(-1), NaR},
		{minSub, MinPos},
		{maxSub, MinPos},
		{-minSub, MinPos.Neg()},
		{-maxSub, MinPos.Neg()},
		{math.SmallestNonzeroFloat64 * 3, MinPos},
		{0x1p-1022, MinPos},
		{0x1p-121, MinPos},
		{0x1p-120, MinPos},
		{-0x1p-120, MinPos.Neg()},
		{0x1p120, MaxPos},
		{-0x1p120, MaxPos.Neg()},
		{nextUp64(0x1p120), MaxPos},
		{0x1p121, MaxPos},
		{0x1.fffffffffffffp123, MaxPos},
		{0x1p124, MaxPos},
		{0x1p1023, MaxPos},
		{math.MaxFloat64, MaxPos},
		{-math.MaxFloat64, MaxPos.Neg()},
	}
	for _, c := range cases {
		if got := FromFloat64(c.x); got != c.want {
			t.Errorf("FromFloat64(%v) = %#08x, want %#08x", c.x, uint32(got), uint32(c.want))
		}
		if ref := refFromFloat64(c.x); ref != c.want {
			t.Errorf("reference FromFloat64(%v) = %#08x, want %#08x", c.x, uint32(ref), uint32(c.want))
		}
	}
	for _, p := range [...]Posit{Zero, NaR, MinPos, MinPos + 1, MaxPos - 1, MaxPos} {
		for _, q := range [...]Posit{p, p.Neg()} {
			if msg := checkPattern(q); msg != "" {
				t.Error(msg)
			}
		}
	}
}
