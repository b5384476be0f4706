//go:build !amd64

package libm

import (
	"rlibm32/internal/piecewise"
	"rlibm32/internal/rangered"
)

// The AVX2 lanes of simd_amd64.go exist only on amd64. Elsewhere
// servedSlice finds no vector kernel, and every element type and
// family is served by the pure-Go kernels of kernel.go, which compute
// the same bits.

// simdExpSlice has no implementation on this architecture; the caller
// keeps the pure-Go kernel.
func simdExpSlice[T fpv](*rangered.ExpFamily, []float64, func(float64) float64, func(dst, xs []T)) func(dst, xs []T) {
	return nil
}

// simdLogSlice has no implementation on this architecture; the caller
// keeps the pure-Go kernel.
func simdLogSlice[T fpv](*rangered.LogFamily, *piecewise.Prepared, func(float64) float64, func(dst, xs []T)) func(dst, xs []T) {
	return nil
}
