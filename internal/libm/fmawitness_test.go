package libm

import (
	"math"
	"testing"
)

// fmaWitness records the exp and exp10 inputs where an FMA-contracted
// polynomial core once rounded differently from the validated Horner
// sequence (found by the full 2^32 parity sweep). They sit unusually
// close to float32 rounding boundaries, which makes them the likeliest
// place for any change in the served arithmetic to show up first.
var fmaWitness = map[string]uint32{
	"exp":   0xc16912cd,
	"exp10": 0x417d7f60,
}

// TestFMAContractionWitness checks that at each recorded witness the
// kernels the library serves agree bit-for-bit with the scalar
// evaluator: the generic Go kernel, and the float32 kernel (the vector
// one on AVX2 hosts) through both its 4-wide body and its scalar tail.
func TestFMAContractionWitness(t *testing.T) {
	for name, bits := range fmaWitness {
		var f *impl
		for _, fi := range float32Impls {
			if fi.name == name {
				f = fi
			}
		}
		if f == nil {
			t.Fatalf("%s: no float32 impl", name)
		}
		sc := compile(f)
		x := math.Float32frombits(bits)
		want := math.Float32bits(float32(sc(float64(x))))

		kernels := map[string]func(dst, xs []float32){
			"generic": fusedSlice[float32](f),
			"served":  fusedSlice32(f),
		}
		for kname, k := range kernels {
			for _, n := range []int{4, 5} { // 4: vector body only; 5: plus a one-element tail
				xs := make([]float32, n)
				for i := range xs {
					xs[i] = x
				}
				dst := make([]float32, n)
				k(dst, xs)
				for i, y := range dst {
					if got := math.Float32bits(y); got != want {
						t.Errorf("%s %s n=%d [%d]: got %#08x want %#08x at %#08x", name, kname, n, i, got, want, bits)
					}
				}
			}
		}
	}
}
