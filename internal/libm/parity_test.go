// Kernel parity sweep: the served fused batch kernels against the
// scalar evaluator, for all five representations. The kernels run the
// identical operation sequence, so they must agree with the scalar
// path to the last bit (float32 after its rounding, the float64
// embeddings to the raw double bit) — any discrepancy is a kernel bug.
//
// Default mode sweeps a deterministic quasi-random sample of the full
// input space per function (multiplicative-stride permutation prefix,
// so every exponent region is hit) plus every special-case boundary;
// -short shrinks the sample; RLIBM_PARITY_FULL=1 sweeps all 2^32
// inputs (hours of CPU — the manual exhaustive mode). The 16-bit
// variants are always swept exhaustively (2^16 is trivial).
package libm_test

import (
	"math"
	"os"
	"testing"

	"rlibm32/bfloat16"
	"rlibm32/float16"
	"rlibm32/internal/libm"
	"rlibm32/posit16"
	"rlibm32/posit32"
)

const parityBatch = 4096

// sweepSize picks the number of 32-bit patterns swept per function.
func sweepSize(t *testing.T) uint64 {
	if os.Getenv("RLIBM_PARITY_FULL") == "1" {
		return 1 << 32
	}
	if testing.Short() {
		return 1 << 14
	}
	return 1 << 19
}

// pattern32 returns the i-th pattern of a deterministic permutation of
// the 32-bit space (odd multiplier ⇒ full period): a stratified sweep
// whose prefix of any length covers all exponent regions. In full mode
// (n == 2^32) it degenerates to... still a permutation — every input
// exactly once.
func pattern32(i uint64) uint32 { return uint32(i * 2654435761) }

// neighbourhoods returns every pattern within ±32 of each base pattern
// (wrapping), the dense boundary coverage both 32-bit sweeps use.
func neighbourhoods(base []uint32) []uint32 {
	out := make([]uint32, 0, len(base)*65)
	for _, b := range base {
		out = append(out, b)
		for d := uint32(1); d <= 32; d++ {
			out = append(out, b+d, b-d)
		}
	}
	return out
}

// boundary32 lists float32 bit patterns every function must be checked
// on: zeros, infinities, NaNs, and dense neighborhoods of 1, the
// subnormal border and the extremes, where every family's special-case
// cutoffs live.
func boundary32() []uint32 {
	return neighbourhoods([]uint32{
		0x00000000, 0x80000000, // ±0
		0x7f800000, 0xff800000, // ±Inf
		0x7fc00000, 0xffc00000, // quiet NaNs
		0x7f800001, 0x7fffffff, // signaling/max NaNs
		0x3f800000, 0xbf800000, // ±1
		0x00800000, 0x80800000, // ±min normal
		0x007fffff, 0x807fffff, // ±max subnormal
		0x00000001, 0x80000001, // ±min subnormal
		0x7f7fffff, 0xff7fffff, // ±max finite
		// exp and exp10 inputs where a since-removed FMA-contracted
		// polynomial core rounded differently from the validated Horner
		// sequence (found by the full 2^32 sweep). They sit unusually
		// close to float32 rounding boundaries, so they stay in the
		// sampled sweep: any change to the served arithmetic that moves
		// a double rounding is likeliest to show here first.
		0xc16912cd, 0x417d7f60,
	})
}

// boundaryPosit32 is boundary32 for posit32: NaR, zero, ±1, ±minpos and
// ±maxpos, plus the exp (0x30713580, 0xe4745670) and exp10 (0x051459a0,
// 0x3114a5e0) inputs where the removed FMA core returned a wrong posit
// — they pin the served kernel to the scalar library where contraction
// once failed.
func boundaryPosit32() []uint32 {
	return neighbourhoods([]uint32{
		0x80000000,             // NaR
		0x00000000,             // 0
		0x40000000, 0xc0000000, // ±1
		0x00000001, 0xffffffff, // ±minpos
		0x7fffffff, 0x80000001, // ±maxpos
		0x30713580, 0xe4745670, 0x051459a0, 0x3114a5e0,
	})
}

// checkKernel32 sweeps the float32 kernel EvalSlice serves for one
// function (the AVX2 lanes where the CPU has them).
func checkKernel32(t *testing.T, name string, n uint64) {
	kern, ok := libm.Float32SliceImpls()[name]
	if !ok {
		t.Fatalf("%s: no batch kernel", name)
	}
	sc, ok := libm.ScalarFunc64(libm.VariantFloat32, name)
	if !ok {
		t.Fatalf("%s: no scalar evaluator", name)
	}
	xs := make([]float32, parityBatch)
	dst := make([]float32, parityBatch)
	bad := 0
	flush := func(m int) {
		kern(dst[:m], xs[:m])
		for k := 0; k < m && bad < 5; k++ {
			want := math.Float32bits(float32(sc(float64(xs[k]))))
			if got := math.Float32bits(dst[k]); got != want {
				t.Errorf("%s: x=%x got=%x want=%x", name, math.Float32bits(xs[k]), got, want)
				bad++
			}
		}
	}
	m := 0
	for _, u := range boundary32() {
		xs[m] = math.Float32frombits(u)
		if m++; m == parityBatch {
			flush(m)
			m = 0
		}
	}
	for i := uint64(0); i < n && bad < 5; i++ {
		xs[m] = math.Float32frombits(pattern32(i))
		if m++; m == parityBatch {
			flush(m)
			m = 0
		}
	}
	flush(m)
}

func TestKernelParityFloat32(t *testing.T) {
	n := sweepSize(t)
	for _, name := range libm.Names(libm.VariantFloat32) {
		name := name
		t.Run(name, func(t *testing.T) { checkKernel32(t, name, n) })
	}
}

// checkKernel64 sweeps one float64-embedding variant function's kernel
// over the decoded inputs yields, to the raw double bit.
func checkKernel64(t *testing.T, variant, name string, inputs func(yield func(float64))) {
	kern, ok := libm.Kernel64(variant, name)
	if !ok {
		t.Fatalf("%s/%s: no batch kernel", variant, name)
	}
	sc, ok := libm.ScalarFunc64(variant, name)
	if !ok {
		t.Fatalf("%s/%s: no scalar evaluator", variant, name)
	}
	xs := make([]float64, parityBatch)
	dst := make([]float64, parityBatch)
	bad := 0
	flush := func(m int) {
		kern(dst[:m], xs[:m])
		for k := 0; k < m && bad < 5; k++ {
			if got, want := math.Float64bits(dst[k]), math.Float64bits(sc(xs[k])); got != want {
				t.Errorf("%s/%s: x=%v got=%x want=%x", variant, name, xs[k], got, want)
				bad++
			}
		}
	}
	m := 0
	inputs(func(x float64) {
		if bad >= 5 {
			return
		}
		xs[m] = x
		if m++; m == parityBatch {
			flush(m)
			m = 0
		}
	})
	flush(m)
}

func TestKernelParityPosit32(t *testing.T) {
	n := sweepSize(t)
	inputs := func(yield func(float64)) {
		for _, u := range boundaryPosit32() {
			yield(posit32.FromBits(u).Float64())
		}
		for i := uint64(0); i < n; i++ {
			yield(posit32.FromBits(pattern32(i)).Float64())
		}
	}
	for _, name := range libm.Names(libm.VariantPosit32) {
		name := name
		t.Run(name, func(t *testing.T) { checkKernel64(t, libm.VariantPosit32, name, inputs) })
	}
}

// sixteenBit sweeps an entire 16-bit variant exhaustively.
func sixteenBit(t *testing.T, variant string, dec func(uint16) float64) {
	inputs := func(yield func(float64)) {
		for u := 0; u < 1<<16; u++ {
			yield(dec(uint16(u)))
		}
	}
	for _, name := range libm.Names(variant) {
		name := name
		t.Run(name, func(t *testing.T) { checkKernel64(t, variant, name, inputs) })
	}
}

func TestKernelParityBfloat16(t *testing.T) {
	sixteenBit(t, libm.VariantBfloat16, func(u uint16) float64 { return bfloat16.FromBits(u).Float64() })
}

func TestKernelParityFloat16(t *testing.T) {
	sixteenBit(t, libm.VariantFloat16, func(u uint16) float64 { return float16.FromBits(u).Float64() })
}

func TestKernelParityPosit16(t *testing.T) {
	sixteenBit(t, libm.VariantPosit16, func(u uint16) float64 { return posit16.FromBits(u).Float64() })
}
