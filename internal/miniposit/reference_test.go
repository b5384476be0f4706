package miniposit

import (
	"math"
	"testing"
)

// The bit-by-bit posit16 codec this package used before it moved to
// internal/positcodec, kept as the reference the codec is proved
// against: parts decoded the regime one bit at a time, encodeMag
// rounded through branches on the regime, and decodeExt decoded the
// 17-bit rounding boundaries. Nothing outside this file calls them.

const es = 2

// parts decomposes a nonzero, non-NaR posit16:
// |p| = (1 + frac/2^fbits)·2^e with fbits <= 11.
func parts(p uint16) (neg bool, e int, frac uint32, fbits int) {
	u := p
	if u>>15 == 1 {
		neg = true
		u = uint16(-u)
	}
	body := uint32(u) << 17 // drop sign; 15 significant bits at the top of 32
	var k, used int
	if body>>31 == 1 {
		n := 0
		for n < 15 && (body<<uint(n))>>31 == 1 {
			n++
		}
		k = n - 1
		used = n + 1
	} else {
		n := 0
		for n < 15 && (body<<uint(n))>>31 == 0 {
			n++
		}
		k = -n
		used = n + 1
	}
	if used > 15 {
		used = 15
	}
	rest := body << uint(used)
	restBits := 15 - used
	eb := 0
	ebTaken := restBits
	if ebTaken > es {
		ebTaken = es
	}
	if ebTaken > 0 {
		eb = int(rest >> uint(32-ebTaken))
		eb <<= uint(es - ebTaken)
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

// encodeMag encodes (1 + frac/2^fbits)·2^e with RNE-on-encoding and
// saturation to [MinPos, MaxPos]. fbits <= 60.
func encodeMag(e int, frac uint64, fbits int) uint16 {
	if e > 56 {
		return MaxPos
	}
	if e < -56 {
		return MinPos
	}
	k := e >> 2
	ebits := uint64(e - 4*k)
	var regime uint64
	var rl int
	if k >= 0 {
		rl = k + 2
		regime = ((1 << uint(k+1)) - 1) << 1
	} else {
		rl = 1 - k
		regime = 1
	}
	head := regime<<es | ebits
	hbits := rl + es
	var q uint64
	var round, sticky bool
	if hbits >= 16 {
		cut := hbits - 15
		q = head >> uint(cut)
		round = (head>>uint(cut-1))&1 == 1
		sticky = head&((1<<uint(cut-1))-1) != 0 || frac != 0
	} else {
		need := 15 - hbits
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
	if q == 0 {
		q = 1
	}
	if q > uint64(MaxPos) {
		q = uint64(MaxPos)
	}
	return uint16(q)
}

// decodeExt decodes a 17-bit extended encoding (the rounding boundary
// between a posit and its successor).
func decodeExt(u uint32) float64 {
	body := uint64(u) << 48 // 16 body bits after the sign, left-aligned in 64
	var k, used int
	if body>>63 == 1 {
		n := 0
		for n < 16 && (body<<uint(n))>>63 == 1 {
			n++
		}
		k = n - 1
		used = n + 1
	} else {
		n := 0
		for n < 16 && (body<<uint(n))>>63 == 0 {
			n++
		}
		k = -n
		used = n + 1
	}
	if used > 16 {
		used = 16
	}
	rest := body << uint(used)
	restBits := 16 - used
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

// refToFloat64 is ToFloat64 as it was: parts, then math.Ldexp.
func refToFloat64(p uint16) float64 {
	if p == Zero {
		return 0
	}
	if p == NaR {
		return math.NaN()
	}
	neg, e, frac, fbits := parts(p)
	v := math.Ldexp(float64((uint32(1)<<uint(fbits))+frac), e-fbits)
	if neg {
		return -v
	}
	return v
}

// refFromFloat64 is FromFloat64 as it was, over encodeMag.
func refFromFloat64(x float64) uint16 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return NaR
	}
	if x == 0 {
		return Zero
	}
	neg := math.Signbit(x)
	b := math.Float64bits(math.Abs(x))
	exp := int(b>>52) & 0x7FF
	var q uint16
	if exp == 0 {
		q = MinPos
	} else {
		q = encodeMag(exp-1023, b&(1<<52-1), 52)
	}
	if neg {
		return uint16(-q)
	}
	return q
}

// TestCodecMatchesReference checks the codec against the reference on
// all 2^16 patterns: decode bit for bit, decode then encode as the
// identity, and encode at every upper rounding boundary and one
// float64 ulp either side of it, for both signs.
func TestCodecMatchesReference(t *testing.T) {
	for b := 0; b < 1<<16; b++ {
		p := uint16(b)
		got, want := ToFloat64(p), refToFloat64(p)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("ToFloat64(%#04x) = %v, reference %v", p, got, want)
		}
		if p != NaR {
			if q := FromFloat64(got); q != p {
				t.Fatalf("FromFloat64(ToFloat64(%#04x)) = %#04x", p, q)
			}
		}
		if p>>15 == 1 || p == MaxPos {
			continue
		}
		bd := decodeExt(uint32(p)<<1 | 1) // for p = 0: 2^-60, inside (0, MinPos)
		if p != Zero {
			if got := upperBoundary(p); got != bd {
				t.Fatalf("upperBoundary(%#04x) = %v, reference %v", p, got, bd)
			}
		}
		for _, x := range [...]float64{bd, math.Nextafter(bd, 0), math.Nextafter(bd, math.Inf(1))} {
			for _, v := range [...]float64{x, -x} {
				if got, want := FromFloat64(v), refFromFloat64(v); got != want {
					t.Fatalf("FromFloat64(%v) = %#04x, reference %#04x (boundary of %#04x)", v, got, want, p)
				}
			}
		}
	}
}
