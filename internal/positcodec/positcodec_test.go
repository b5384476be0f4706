package positcodec

import (
	"math"
	"testing"
)

// TestEncodeBreaksTiesWithLowBits checks the inputs FromFloat64 never
// sets: at the exact tie between each positive pattern p and p+1,
// Encode rounds to the even pattern, while a sticky flag or a set bit
// anywhere in frac below the tie, down to its last bit, rounds up.
func TestEncodeBreaksTiesWithLowBits(t *testing.T) {
	for _, w := range []struct {
		n      uint
		stride uint64
	}{{16, 1}, {32, 4093}} {
		maxPos := uint64(1)<<(w.n-1) - 1
		for p := uint64(1); p < maxPos; p += w.stride {
			b := math.Float64bits(Boundary(p, w.n))
			e, frac := int(b>>52)-1023, b<<12
			even := p + p&1
			if got := Encode(false, e, frac, false, w.n); got != even {
				t.Fatalf("n=%d: tie above %#x rounds to %#x, want %#x", w.n, p, got, even)
			}
			if got := Encode(true, e, frac, false, w.n); got != -even&(1<<w.n-1) {
				t.Fatalf("n=%d: tie below -%#x rounds to %#x", w.n, p, got)
			}
			for _, c := range []struct {
				frac   uint64
				sticky bool
			}{{frac, true}, {frac | 1, false}, {frac | 1<<8, false}} {
				if got := Encode(false, e, c.frac, c.sticky, w.n); got != p+1 {
					t.Fatalf("n=%d: tie above %#x with frac %#x sticky %v rounds to %#x, want %#x",
						w.n, p, c.frac, c.sticky, got, p+1)
				}
			}
		}
	}
}
