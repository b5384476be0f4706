package libm

import (
	"math"
	"testing"
)

// fmaWitness records the exp and exp10 inputs where an FMA-contracted
// polynomial core once rounded differently from the validated Horner
// sequence (found by the full 2^32 parity sweep), with their correctly
// rounded float32 results. Each unrounded double result lies one double
// ulp above a float32 rounding midpoint, so skipping any product's
// rounding can land on the midpoint and round the other way: the
// likeliest place for a change in the served arithmetic to show first.
var fmaWitness = map[string]struct{ in, out uint32 }{
	"exp":   {0xc16912cd, 0x34fd331b},
	"exp10": {0x417d7f60, 0x59c64406},
}

// TestFMAContractionWitness checks that at each recorded witness the
// scalar evaluator and the kernels the library serves return the
// pinned correctly rounded result: the generic Go kernel, and the
// float32 kernel (the vector one on AVX2 hosts) through both its
// 4-wide body and its scalar tail. The constants, not agreement among
// the paths, are the reference: a compiler that fused every path the
// same way would make them agree on a wrong result.
func TestFMAContractionWitness(t *testing.T) {
	for name, w := range fmaWitness {
		var f *impl
		for _, fi := range float32Impls {
			if fi.name == name {
				f = fi
			}
		}
		if f == nil {
			t.Fatalf("%s: no float32 impl", name)
		}
		x := math.Float32frombits(w.in)
		if got := math.Float32bits(float32(compile(f)(float64(x)))); got != w.out {
			t.Errorf("%s scalar: got %#08x want %#08x at %#08x", name, got, w.out, w.in)
		}

		kernels := map[string]func(dst, xs []float32){
			"generic": fusedSlice[float32](f),
			"served":  servedSlice[float32](f),
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
					if got := math.Float32bits(y); got != w.out {
						t.Errorf("%s %s n=%d [%d]: got %#08x want %#08x at %#08x", name, kname, n, i, got, w.out, w.in)
					}
				}
			}
		}
	}
}
