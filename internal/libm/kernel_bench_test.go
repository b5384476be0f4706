package libm

import (
	"testing"

	"rlibm32/internal/cpuid"
)

// benchInputs mirrors the ordinary-domain input mix the public
// benchmarks use for exp: uniformly spread over the non-special band.
func benchInputs(n int) []float32 {
	xs := make([]float32, n)
	for i := range xs {
		u := uint32(i*2654435761) >> 8
		xs[i] = -80 + float32(u)*(160.0/float32(1<<24))
	}
	return xs
}

// findImpl returns the variant's generated function name, or fails b.
func findImpl(b *testing.B, variant, name string) *impl {
	for _, f := range implsFor(variant) {
		if f.name == name {
			return f
		}
	}
	b.Fatalf("no %s %s impl", variant, name)
	return nil
}

// benchKernel times k over xs as one sub-benchmark reporting ns/value.
func benchKernel[T fpv](b *testing.B, name string, k func(dst, xs []T), xs []T) {
	dst := make([]T, len(xs))
	b.Run(name, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			k(dst, xs)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(xs)), "ns/value")
	})
}

// BenchmarkKernelExp pits the pure-Go fused exp kernel against the
// AVX2 one it is upgraded to where the CPU allows, same process, same
// inputs, at both element widths: float32 (the float32 library) and
// float64 (posit32's exp over the same values, as positmath serves it).
func BenchmarkKernelExp(b *testing.B) {
	xs := benchInputs(1024)
	xs64 := make([]float64, len(xs))
	for i, x := range xs {
		xs64[i] = float64(x)
	}
	f32 := findImpl(b, VariantFloat32, "exp")
	p32 := findImpl(b, VariantPosit32, "exp")
	benchKernel(b, "float32/go", fusedSlice[float32](f32), xs)
	benchKernel(b, "float64/go", fusedSlice[float64](p32), xs64)
	if cpuid.AVX2 {
		benchKernel(b, "float32/simd", servedSlice[float32](f32), xs)
		benchKernel(b, "float64/simd", servedSlice[float64](p32), xs64)
	}
}
