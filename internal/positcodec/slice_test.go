package positcodec

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"testing"

	"rlibm32/internal/cpuid"
)

// The batch loops under test: the entry points (the AVX2 loops plus the
// Go tail on AVX2 hosts) and the pure-Go loops on their own, so that
// the fallback stays tested on hosts that never run it.
var (
	decoders = []struct {
		name string
		f    func([]float64, []uint32)
	}{{"DecodeSlice32", DecodeSlice32[uint32]}, {"go", decodeSlice32[uint32]}}
	encoders = []struct {
		name string
		f    func([]uint32, []float64)
	}{{"EncodeSlice32", EncodeSlice32[uint32]}, {"go", encodeSlice32[uint32]}}
)

const (
	maxPos32    = 1<<31 - 1
	nar32       = 1 << 31
	negMinPos32 = 1<<32 - 1
	negMaxPos32 = 1<<31 + 1
)

// decodeMismatch decodes src with every decoder and describes the
// first result whose bits differ from Decode's, and unless it is NaR,
// the first value that does not encode back to its pattern; "" if
// there is none.
func decodeMismatch(src []uint32, dst []float64) string {
	dst = dst[:len(src)]
	for _, d := range decoders {
		d.f(dst, src)
		for i, p := range src {
			if got, want := math.Float64bits(dst[i]), math.Float64bits(Decode(uint64(p), 32)); got != want {
				return fmt.Sprintf("%s: %#08x decodes to %#016x, Decode gives %#016x", d.name, p, got, want)
			}
		}
	}
	back := make([]uint32, len(src))
	for _, e := range encoders {
		e.f(back, dst)
		for i, p := range src {
			if p != nar32 && back[i] != p {
				return fmt.Sprintf("%s: %#08x decodes to %v, which encodes to %#08x", e.name, p, dst[i], back[i])
			}
		}
	}
	return ""
}

// encodeMismatch encodes src with every encoder and describes the first
// pattern that differs from FromFloat64's; "" if there is none.
func encodeMismatch(src []float64, dst []uint32) string {
	dst = dst[:len(src)]
	for _, e := range encoders {
		e.f(dst, src)
		for i, x := range src {
			if want := uint32(FromFloat64(x, 32)); dst[i] != want {
				return fmt.Sprintf("%s: %v (%#016x) encodes to %#08x, FromFloat64 gives %#08x",
					e.name, x, math.Float64bits(x), dst[i], want)
			}
		}
	}
	return ""
}

// boundaryDoubles appends, for each positive pattern p, the rounding
// boundary between p and p+1 and its neighbouring doubles one ulp
// either side, each with both signs.
func boundaryDoubles(xs []float64, ps ...uint64) []float64 {
	for _, p := range ps {
		b := Boundary(p, 32)
		for _, x := range [...]float64{b, math.Nextafter(b, 0), math.Nextafter(b, math.Inf(1))} {
			xs = append(xs, x, -x)
		}
	}
	return xs
}

// regimePatterns returns, for every regime length m = 1..30 of ones
// and of zeros, patterns with several tails after the terminator, and
// their negations.
func regimePatterns() []uint32 {
	var ps []uint32
	for m := 1; m <= 30; m++ {
		rest := uint32(1)<<(30-m) - 1
		for _, tail := range [...]uint32{0, ^uint32(0), 0x55555555, 0x0F0F0F0F, 1} {
			for _, body := range [...]uint32{
				1<<31 - uint32(1)<<(31-m) | tail&rest, // m ones (k = m−1), then 0
				uint32(1)<<(30-m) | tail&rest,         // m zeros (k = −m), then 1
			} {
				ps = append(ps, body, -body)
			}
		}
	}
	return append(ps, 0, nar32, 1, negMinPos32, maxPos32, negMaxPos32)
}

// TestSliceTails runs every batch length 0-35 at offsets 0-3 into
// larger slices, with the specials placed both in the part the AVX2
// loops take (the first n &^ 3 values) and in the tail, and checks
// every value against the scalar codec and that nothing outside
// dst[:n] is written.
func TestSliceTails(t *testing.T) {
	specialP := []uint32{0, nar32, 1, negMinPos32, maxPos32, negMaxPos32}
	minPos, maxPos := Decode(1, 32), Decode(maxPos32, 32)
	specialF := []float64{
		0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
		minPos, -minPos, maxPos, -maxPos, 0x1p-1074, -0x1p-1060, 0x1p-1022,
		0x1p200, -0x1p125, math.MaxFloat64, Boundary(maxPos32-1, 32),
	}
	rng := rand.New(rand.NewSource(1))
	const pad = 4
	var next [2][2]int // [body, tail][patterns, doubles]: specials placed so far
	for n := 0; n <= 35; n++ {
		for off := 0; off <= 3; off++ {
			ps := make([]uint32, off+n+pad)
			xs := make([]float64, off+n+pad)
			for i := range ps {
				ps[i] = rng.Uint32()
				xs[i] = math.Ldexp(1+rng.Float64(), rng.Intn(260)-130)
				if rng.Intn(2) == 0 {
					xs[i] = -xs[i]
				}
			}
			for i := (n + off) % 2; i < n; i += 2 { // every other value a special
				tail := 0
				if i >= n&^3 {
					tail = 1
				}
				ps[off+i] = specialP[next[tail][0]%len(specialP)]
				xs[off+i] = specialF[next[tail][1]%len(specialF)]
				next[tail][0]++
				next[tail][1]++
			}
			for _, d := range decoders {
				dst := make([]float64, len(ps))
				for i := range dst {
					dst[i] = -1
				}
				d.f(dst[off:], ps[off:off+n])
				for i, y := range dst {
					want := math.Float64bits(-1)
					if i >= off && i < off+n {
						want = math.Float64bits(Decode(uint64(ps[i]), 32))
					}
					if math.Float64bits(y) != want {
						t.Fatalf("%s: n=%d off=%d: dst[%d] = %#016x, want %#016x",
							d.name, n, off, i, math.Float64bits(y), want)
					}
				}
			}
			for _, e := range encoders {
				dst := make([]uint32, len(xs))
				for i := range dst {
					dst[i] = 0xDEADBEEF
				}
				e.f(dst[off:], xs[off:off+n])
				for i, q := range dst {
					want := uint32(0xDEADBEEF)
					if i >= off && i < off+n {
						want = uint32(FromFloat64(xs[i], 32))
					}
					if q != want {
						t.Fatalf("%s: n=%d off=%d: dst[%d] = %#08x (src %v), want %#08x",
							e.name, n, off, i, q, xs[i], want)
					}
				}
			}
		}
	}
	for tail, where := range [...]string{"vector body", "tail"} {
		if next[tail][0] < len(specialP) || next[tail][1] < len(specialF) {
			t.Fatalf("not every special was placed in the %s", where)
		}
	}
}

// TestSliceMatchesScalar is the tier-1 sweep of the batch loops against
// the scalar codec: decode (and decode → encode identity) at a stride
// of 4093 over all 2^32 patterns and at every regime length; encode at
// every 4093rd rounding boundary and its neighbours one ulp either
// side, both signs, at the boundaries of every regime length, and on
// 2^20 random doubles. RLIBM_PARITY_FULL=1 decodes all 2^32 patterns
// and encodes at every boundary instead of the strided ones.
func TestSliceMatchesScalar(t *testing.T) {
	stride := uint64(4093)
	if os.Getenv("RLIBM_PARITY_FULL") == "1" {
		stride = 1
	}
	if msg := decodeMismatch(regimePatterns(), make([]float64, 1024)); msg != "" {
		t.Fatal(msg)
	}
	var xs []float64
	for _, p := range regimePatterns() {
		if p != 0 && p>>31 == 0 && p != maxPos32 {
			xs = boundaryDoubles(xs, uint64(p))
		}
	}
	rng := rand.New(rand.NewSource(16))
	for i := 0; i < 1<<20; i++ {
		x := math.Float64frombits(rng.Uint64())
		if i&1 == 1 {
			x = math.Ldexp(1+rng.Float64(), rng.Intn(260)-130)
		}
		xs = append(xs, x)
	}
	if msg := encodeMismatch(xs, make([]uint32, len(xs))); msg != "" {
		t.Fatal(msg)
	}

	// Both sweeps in chunks of 1024 patterns (the posit32 batch size),
	// spread over GOMAXPROCS workers.
	const chunk = 1024
	sweep(t, 1<<32, stride*chunk, func(lo uint64) string {
		ps := make([]uint32, 0, chunk)
		for p := lo; p < 1<<32 && len(ps) < chunk; p += stride {
			ps = append(ps, uint32(p))
		}
		return decodeMismatch(ps, make([]float64, chunk))
	})
	sweep(t, maxPos32, stride*chunk, func(lo uint64) string {
		xs := make([]float64, 0, 6*chunk)
		for p := max(lo, 1); p < maxPos32 && len(xs) < 6*chunk; p += stride {
			xs = boundaryDoubles(xs, p)
		}
		return encodeMismatch(xs, make([]uint32, 6*chunk))
	})
}

// sweep calls check at lo = 0, step, 2·step, … below hi, spread over
// GOMAXPROCS goroutines, and fails t with the first mismatch reported.
func sweep(t *testing.T, hi, step uint64, check func(lo uint64) string) {
	workers := uint64(runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	var mu sync.Mutex
	var fail string
	for w := uint64(0); w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for lo := w * step; lo < hi; lo += workers * step {
				msg := check(lo)
				mu.Lock()
				if fail == "" {
					fail = msg
				}
				stop := fail != ""
				mu.Unlock()
				if stop {
					return
				}
			}
		}()
	}
	wg.Wait()
	if fail != "" {
		t.Fatal(fail)
	}
}

// benchPatterns returns n posit32 patterns of the values a posit32
// batch typically carries: magnitudes log-uniform in [2^-20, 2^20],
// either sign, so regime lengths vary from value to value.
func benchPatterns(n int) []uint32 {
	rng := rand.New(rand.NewSource(7))
	ps := make([]uint32, n)
	for i := range ps {
		x := math.Exp2(40*rng.Float64() - 20)
		if rng.Intn(2) == 0 {
			x = -x
		}
		ps[i] = uint32(FromFloat64(x, 32))
	}
	return ps
}

// reportPerValue reports ns per value of a benchmark over batches of
// width values.
func reportPerValue(b *testing.B, width int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*width), "ns/value")
}

// BenchmarkDecodeSlice32 times the pure-Go loop (go) and, on AVX2
// hosts, the entry point that runs the AVX2 loop (simd) over the same
// 1024 patterns in one process.
func BenchmarkDecodeSlice32(b *testing.B) {
	ps := benchPatterns(1024)
	xs := make([]float64, len(ps))
	run := func(name string, f func([]float64, []uint32)) {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				f(xs, ps)
			}
			reportPerValue(b, len(ps))
		})
	}
	run("go", decodeSlice32[uint32])
	if cpuid.AVX2 {
		run("simd", DecodeSlice32[uint32])
	}
}

// BenchmarkEncodeSlice32 is BenchmarkDecodeSlice32 for encoding, over
// the decoded values.
func BenchmarkEncodeSlice32(b *testing.B) {
	ps := benchPatterns(1024)
	xs := make([]float64, len(ps))
	decodeSlice32(xs, ps)
	run := func(name string, f func([]uint32, []float64)) {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				f(ps, xs)
			}
			reportPerValue(b, len(ps))
		})
	}
	run("go", encodeSlice32[uint32])
	if cpuid.AVX2 {
		run("simd", EncodeSlice32[uint32])
	}
}
