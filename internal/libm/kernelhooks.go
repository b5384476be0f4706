package libm

import (
	"rlibm32/internal/cpuid"
	"rlibm32/internal/rangered"
)

// Exported kernel introspection for the parity tests, the roofline
// harness and telemetry. Everything here is cheap plumbing over
// kernel.go; the hot paths never go through it.

// KernelKind32 reports which batch kernel the float32 slice entry
// points serve for name: "simd" for the AVX2 vector kernels, "go" for
// the pure-Go fused kernels, "" for an unknown name or a table no
// kernel covers. It builds no kernel: the answer follows from the
// table shape (KernelShape) and the CPU check that servedSlice makes.
// Telemetry labels batches with it and the roofline harness prints it.
func KernelKind32(name string) string {
	for _, f := range float32Impls {
		if f.name != name {
			continue
		}
		if KernelShape(f.fam, f.pieces) != nil {
			return ""
		}
		switch f.fam.(type) {
		case *rangered.ExpFamily, *rangered.LogFamily:
			if cpuid.AVX2 {
				return "simd"
			}
		}
		return "go"
	}
	return ""
}

// Kernel64 builds the served batch kernel of any variant's function
// over exact float64 embeddings: the kernel Posit32SliceImpls serves
// for posit32, and the one a 16-bit batch entry point would serve. Its
// exp and log families run on the float64 AVX2 lanes where the CPU
// has them (servedSlice), so the parity sweeps drive those lanes
// against the scalar evaluator: sampled for posit32, over all 2^16
// inputs for bfloat16, float16 and posit16.
func Kernel64(variant, name string) (func(dst, xs []float64), bool) {
	for _, f := range implsFor(variant) {
		if f.name == name {
			return servedSlice[float64](f), true
		}
	}
	return nil, false
}

// ScalarFunc64 returns the compiled scalar double-precision evaluator
// for any variant's function: the parity reference.
func ScalarFunc64(variant, name string) (func(float64) float64, bool) {
	return Lookup(variant, name)
}
