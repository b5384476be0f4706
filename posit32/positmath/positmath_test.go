package positmath_test

import (
	"context"
	"math"
	"testing"

	"rlibm32/internal/checks"
	"rlibm32/internal/exhaust"
	"rlibm32/internal/perf"
	"rlibm32/posit32"
	"rlibm32/posit32/positmath"
)

// TestTable2RlibmColumn is Table 2's rlibm column at test scale: zero
// wrong results on the scalar and batch paths over a sample covering
// every regime.
func TestTable2RlibmColumn(t *testing.T) {
	ps := checks.SamplePosit32(20000)
	inputs := make([]uint32, len(ps))
	for i, p := range ps {
		inputs[i] = p.Bits()
	}
	for _, name := range positmath.Names() {
		rep, err := exhaust.Run(context.Background(), exhaust.Config{Func: "posit32." + name, Inputs: inputs})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Mismatched != 0 {
			t.Errorf("%s: %d/%d wrong results on paths %v %v, first %+v",
				name, rep.Mismatched, rep.Inputs, rep.Paths, rep.PathMismatched, rep.Mismatches[0])
		}
	}
}

func TestSpecials(t *testing.T) {
	if positmath.Exp(posit32.Zero) != posit32.One {
		t.Error("Exp(0) != 1")
	}
	if positmath.Log(posit32.One) != posit32.Zero {
		t.Error("Log(1) != 0")
	}
	if positmath.Log(posit32.Zero) != posit32.NaR {
		t.Error("Log(0) should be NaR")
	}
	if positmath.Log(posit32.One.Neg()) != posit32.NaR {
		t.Error("Log(-1) should be NaR")
	}
	for _, name := range positmath.Names() {
		f, _ := positmath.Func(name)
		if f(posit32.NaR) != posit32.NaR {
			t.Errorf("%s(NaR) should be NaR", name)
		}
	}
	// Saturation (the posit difference the paper highlights: no
	// overflow to infinity, no underflow to zero).
	big := posit32.FromFloat64(100)
	if positmath.Exp(big) != posit32.MaxPos {
		t.Error("Exp(100) should saturate to MaxPos")
	}
	if positmath.Exp(big.Neg()) != posit32.MinPos {
		t.Error("Exp(-100) should saturate to MinPos, not zero")
	}
	if positmath.Cosh(big) != posit32.MaxPos {
		t.Error("Cosh(100) should saturate to MaxPos")
	}
	if positmath.Sinh(big.Neg()) != posit32.MaxPos.Neg() {
		t.Error("Sinh(-100) should saturate to -MaxPos")
	}
}

func TestExactPoints(t *testing.T) {
	// log2 of exact powers of two within posit range.
	for e := -120; e <= 120; e += 4 {
		x := posit32.FromFloat64(math.Ldexp(1, e))
		want := posit32.FromFloat64(float64(e))
		if got := positmath.Log2(x); got != want {
			t.Errorf("Log2(2^%d) = %#x, want %#x", e, got, want)
		}
	}
	for k := -20; k <= 20; k++ {
		want := posit32.FromFloat64(math.Ldexp(1, k))
		if got := positmath.Exp2(posit32.FromInt(int64(k))); got != want {
			t.Errorf("Exp2(%d) wrong", k)
		}
	}
}

func TestSymmetry(t *testing.T) {
	for i := uint32(1); i < 1<<31; i += 9999991 {
		p := posit32.FromBits(i)
		if positmath.Sinh(p.Neg()) != positmath.Sinh(p).Neg() {
			t.Fatalf("sinh not odd at %#x", i)
		}
		if positmath.Cosh(p.Neg()) != positmath.Cosh(p) {
			t.Fatalf("cosh not even at %#x", i)
		}
	}
}

func TestExpLogRoundTrip(t *testing.T) {
	// exp(log(x)) drifts by at most a few ulps of x: log's half-ulp
	// rounding error is amplified by exp with factor |log(x)| relative
	// to x's own ulp scale (posit ulps of the log value are coarse at
	// large magnitudes). A loose bound still catches real breakage.
	for i := uint32(1); i < 1<<31; i += 7777777 {
		p := posit32.FromBits(i)
		q := positmath.Exp(positmath.Log(p))
		drift := int64(int32(q.Bits())) - int64(int32(p.Bits()))
		if drift < -64 || drift > 64 {
			t.Fatalf("exp(log(%#x)) = %#x drifted %d steps", p, q, drift)
		}
	}
}

// TestSliceAgreesWithScalar mirrors the float32 batch contract for the
// posit library: slice results are bit-identical to the scalar wrappers,
// including NaR propagation and saturation endpoints.
func TestSliceAgreesWithScalar(t *testing.T) {
	specials := []posit32.Posit{
		posit32.NaR, posit32.Zero, posit32.One, posit32.One.Neg(),
		posit32.MaxPos, posit32.MinPos, posit32.MaxPos.Neg(), posit32.MinPos.Neg(),
		posit32.FromFloat64(100), posit32.FromFloat64(-100),
	}
	for _, name := range positmath.Names() {
		sf, _ := positmath.Func(name)
		bf, ok := positmath.FuncSlice(name)
		if !ok {
			t.Fatalf("FuncSlice(%q) missing", name)
		}
		// Span more than one sliceChunk so the chunk loop is exercised.
		ps := append(perf.PositInputs(name, 1000), specials...)
		dst := make([]posit32.Posit, len(ps))
		bf(dst, ps)
		for i, p := range ps {
			if want := sf(p); dst[i] != want {
				t.Fatalf("%s slice(%#x) = %#x, scalar = %#x", name, p.Bits(), dst[i].Bits(), want.Bits())
			}
		}
		dst2 := make([]posit32.Posit, len(ps))
		if err := positmath.EvalSlice(name, dst2, ps); err != nil {
			t.Fatalf("EvalSlice(%q): %v", name, err)
		}
		for i := range dst2 {
			if dst2[i] != dst[i] {
				t.Fatalf("%s EvalSlice diverges at index %d", name, i)
			}
		}
	}
}

func TestEvalSliceErrors(t *testing.T) {
	ps := []posit32.Posit{posit32.One, posit32.Zero}
	if err := positmath.EvalSlice("nope", make([]posit32.Posit, 2), ps); err != positmath.ErrUnknownFunc {
		t.Errorf("unknown name: err = %v", err)
	}
	if err := positmath.EvalSlice("exp", make([]posit32.Posit, 1), ps); err != positmath.ErrShortDst {
		t.Errorf("short dst: err = %v", err)
	}
}

// TestSliceLengthContract pins the documented dst/ps contract of the
// posit batch entry points, mirroring the float32 test: len-0 no-op,
// up-front panic (no partial writes) on short dst.
func TestSliceLengthContract(t *testing.T) {
	positmath.ExpSlice(nil, nil)
	if err := positmath.EvalSlice("exp", nil, nil); err != nil {
		t.Errorf("EvalSlice len-0: err = %v", err)
	}
	dst := []posit32.Posit{7, 7}
	if err := positmath.EvalSlice("exp", dst, []posit32.Posit{posit32.One, posit32.One, posit32.One}); err != positmath.ErrShortDst {
		t.Fatalf("short dst: err = %v", err)
	}
	if dst[0] != 7 || dst[1] != 7 {
		t.Errorf("EvalSlice wrote into dst before erroring: %v", dst)
	}
	for _, name := range positmath.Names() {
		f, _ := positmath.FuncSlice(name)
		dst := []posit32.Posit{7, 7}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: short dst did not panic", name)
				}
			}()
			f(dst, []posit32.Posit{posit32.One, posit32.One, posit32.One})
		}()
		if dst[0] != 7 || dst[1] != 7 {
			t.Errorf("%s: partial write before panic: %v", name, dst)
		}
	}
}

// TestEvalSliceNoAllocs pins the zero-allocation contract of the posit
// batch path: every function, 1024-value batches.
func TestEvalSliceNoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race by design")
	}
	for _, name := range positmath.Names() {
		ps := perf.PositInputs(name, 1024)
		dst := make([]posit32.Posit, len(ps))
		if n := testing.AllocsPerRun(100, func() { positmath.EvalSlice(name, dst, ps) }); n != 0 {
			t.Errorf("%s: %v allocs per EvalSlice batch, want 0", name, n)
		}
	}
}

// BenchmarkEvalSliceFuncs1024 is the posit32 mirror of the float32
// per-function batch benchmark: every function through EvalSlice at
// 1024 values, reporting ns/value and values/s.
func BenchmarkEvalSliceFuncs1024(b *testing.B) {
	for _, name := range positmath.Names() {
		ps := perf.PositInputs(name, 1024)
		dst := make([]posit32.Posit, len(ps))
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := positmath.EvalSlice(name, dst, ps); err != nil {
					b.Fatal(err)
				}
			}
			perValue := float64(b.Elapsed().Nanoseconds()) / float64(b.N*len(ps))
			b.ReportMetric(perValue, "ns/value")
			b.ReportMetric(1e9/perValue, "values/s")
		})
	}
}
