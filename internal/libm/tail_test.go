package libm_test

import (
	"math"
	"testing"

	"rlibm32/internal/libm"
	"rlibm32/posit32"
)

// tailFuncs are the families with vector lanes: their served kernels
// split a batch into a 4-wide body and a pure-Go tail.
var tailFuncs = []string{"ln", "log2", "log10", "exp", "exp2", "exp10"}

// tailCase places special inputs at body and tail positions of one
// batch of length n and returns the inputs. ord(i) is the i-th
// ordinary input; specials cycle through sp starting at k.
func tailCase(n, k int, withSpecials bool, ord func(int) float64, sp []float64) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = ord(i)
	}
	if !withSpecials {
		return xs
	}
	n4 := n &^ 3
	if n4 > 0 {
		xs[n4/2] = sp[k%len(sp)] // inside the vector body
		xs[n4-1] = sp[(k+1)%len(sp)]
	}
	if n > n4 {
		xs[n-1] = sp[(k+2)%len(sp)] // inside the tail
	}
	return xs
}

// ordinaryInput returns the i-th ordinary input of a family: moderate
// exponents for exp, positive values spanning several binades for log.
func ordinaryInput(name string) func(int) float64 {
	if name[0] == 'e' {
		return func(i int) float64 { return -3.1 + 0.37*float64(i) }
	}
	return func(i int) float64 { return 0.11 + 1.7*float64(i*i) }
}

// TestServedKernelTails drives the served exp and log kernels of
// float32 and posit32 through every batch length 0-35 at start offsets
// 0-3 into a larger slice, with and without special inputs inside the
// 4-wide body and inside the tail, and compares every element with
// the scalar evaluator. Elements of dst outside the batch must stay
// untouched.
func TestServedKernelTails(t *testing.T) {
	const maxN, maxOff = 35, 3
	const sentinel = 12345.0
	inf := math.Inf(1)
	spec32 := []float64{math.NaN(), inf, -inf, 0, math.Copysign(0, -1), 1e-12, -1e-12, 1e3, -1e3, -1,
		float64(math.SmallestNonzeroFloat32), float64(math.MaxFloat32)}
	maxpos, minpos := posit32.FromBits(0x7fffffff).Float64(), posit32.FromBits(1).Float64()
	specP32 := []float64{math.NaN(), 0, maxpos, -maxpos, minpos, -minpos, -1,
		posit32.FromFloat64(1e-12).Float64(), posit32.FromFloat64(-200).Float64()}

	f32 := libm.Float32SliceImpls()
	p32 := libm.Posit32SliceImpls()
	for _, name := range tailFuncs {
		sc32, ok1 := libm.Lookup(libm.VariantFloat32, name)
		scP, ok2 := libm.Lookup(libm.VariantPosit32, name)
		k32, ok3 := f32[name]
		kP, ok4 := p32[name]
		if !ok1 || !ok2 || !ok3 || !ok4 {
			t.Fatalf("%s: missing float32 or posit32 kernel or scalar evaluator", name)
		}
		ord := ordinaryInput(name)
		bad := 0
		for n := 0; n <= maxN && bad < 5; n++ {
			for off := 0; off <= maxOff; off++ {
				for _, withSpecials := range []bool{false, true} {
					k := n*(maxOff+1) + off

					xs := tailCase(n, k, withSpecials, ord, spec32)
					in32 := make([]float32, maxN+2*maxOff)
					dst32 := make([]float32, len(in32))
					for i := range dst32 {
						dst32[i] = sentinel
					}
					for i, x := range xs {
						in32[off+i] = float32(x)
					}
					k32(dst32[off:off+n], in32[off:off+n])
					for i, y := range dst32 {
						want := math.Float32bits(sentinel)
						if i >= off && i < off+n {
							want = math.Float32bits(float32(sc32(float64(in32[i]))))
						}
						if got := math.Float32bits(y); got != want && bad < 5 {
							t.Errorf("float32 %s n=%d off=%d [%d] x=%#08x: got %#08x want %#08x",
								name, n, off, i, math.Float32bits(in32[i]), got, want)
							bad++
						}
					}

					xs = tailCase(n, k, withSpecials, func(i int) float64 {
						return posit32.FromFloat64(ord(i)).Float64()
					}, specP32)
					in64 := make([]float64, maxN+2*maxOff)
					dst64 := make([]float64, len(in64))
					for i := range dst64 {
						dst64[i] = sentinel
					}
					copy(in64[off:], xs)
					kP(dst64[off:off+n], in64[off:off+n])
					for i, y := range dst64 {
						want := math.Float64bits(sentinel)
						if i >= off && i < off+n {
							want = math.Float64bits(scP(in64[i]))
						}
						if got := math.Float64bits(y); got != want && bad < 5 {
							t.Errorf("posit32 %s n=%d off=%d [%d] x=%v: got %#016x want %#016x",
								name, n, off, i, in64[i], got, want)
							bad++
						}
					}
				}
			}
		}
	}
}
