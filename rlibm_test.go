package rlibm32_test

import (
	"context"
	"math"
	"math/rand"
	"testing"

	rlibm "rlibm32"
	"rlibm32/internal/checks"
	"rlibm32/internal/exhaust"
	"rlibm32/internal/oracle"
	"rlibm32/internal/perf"
)

// TestAllFunctionsCorrectlyRounded is the library's headline claim
// (the rlibm column of Table 1) at test scale: zero wrong results on
// the scalar and batch paths over a stratified sample.
func TestAllFunctionsCorrectlyRounded(t *testing.T) {
	xs := checks.SampleFloat32(30000)
	inputs := make([]uint32, len(xs))
	for i, x := range xs {
		inputs[i] = math.Float32bits(x)
	}
	for _, name := range rlibm.Names() {
		rep, err := exhaust.Run(context.Background(), exhaust.Config{Func: name, Inputs: inputs})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Mismatched != 0 {
			t.Errorf("%s: %d/%d wrong results on paths %v %v, first %+v",
				name, rep.Mismatched, rep.Inputs, rep.Paths, rep.PathMismatched, rep.Mismatches[0])
		}
	}
}

func TestSpecialValues(t *testing.T) {
	inf := float32(math.Inf(1))
	nan := float32(math.NaN())
	cases := []struct {
		name string
		f    func(float32) float32
		in   float32
		want float32
	}{
		{"Exp(0)", rlibm.Exp, 0, 1},
		{"Exp(+Inf)", rlibm.Exp, inf, inf},
		{"Exp(-Inf)", rlibm.Exp, -inf, 0},
		{"Exp(200)", rlibm.Exp, 200, inf},
		{"Exp(-200)", rlibm.Exp, -200, 0},
		{"Exp2(10)", rlibm.Exp2, 10, 1024},
		{"Exp2(-1)", rlibm.Exp2, -1, 0.5},
		{"Exp10(2)", rlibm.Exp10, 2, 100},
		{"Log(1)", rlibm.Log, 1, 0},
		{"Log(0)", rlibm.Log, 0, -inf},
		{"Log(+Inf)", rlibm.Log, inf, inf},
		{"Log2(8)", rlibm.Log2, 8, 3},
		{"Log2(0x1p-149)", rlibm.Log2, 0x1p-149, -149},
		{"Log10(1000)", rlibm.Log10, 1000, 3},
		{"Sinh(0)", rlibm.Sinh, 0, 0},
		{"Sinh(+Inf)", rlibm.Sinh, inf, inf},
		{"Sinh(-Inf)", rlibm.Sinh, -inf, -inf},
		{"Cosh(0)", rlibm.Cosh, 0, 1},
		{"Cosh(-Inf)", rlibm.Cosh, -inf, inf},
		{"Sinpi(1)", rlibm.Sinpi, 1, 0},
		{"Sinpi(0.5)", rlibm.Sinpi, 0.5, 1},
		{"Sinpi(-0.5)", rlibm.Sinpi, -0.5, -1},
		{"Sinpi(2.5)", rlibm.Sinpi, 2.5, 1},
		{"Sinpi(2^24)", rlibm.Sinpi, 0x1p24, 0},
		{"Cospi(0)", rlibm.Cospi, 0, 1},
		{"Cospi(1)", rlibm.Cospi, 1, -1},
		{"Cospi(0.5)", rlibm.Cospi, 0.5, 0},
		{"Cospi(2^23+1)", rlibm.Cospi, 0x1p23 + 1, -1},
		{"Cospi(2^23+2)", rlibm.Cospi, 0x1p23 + 2, 1},
	}
	for _, c := range cases {
		got := c.f(c.in)
		if got != c.want && !(got != got && c.want != c.want) {
			t.Errorf("%s = %v, want %v", c.name, got, c.want)
		}
	}
	// NaN propagation.
	for _, name := range rlibm.Names() {
		f, _ := rlibm.Func(name)
		if v := f(nan); v == v {
			t.Errorf("%s(NaN) = %v, want NaN", name, v)
		}
	}
	// Domain errors.
	if v := rlibm.Log(-1); v == v {
		t.Error("Log(-1) should be NaN")
	}
	if v := rlibm.Sinpi(inf); v == v {
		t.Error("Sinpi(+Inf) should be NaN")
	}
}

// TestMonotoneSpotChecks guards against piecewise-boundary glitches:
// correctly rounded implementations of monotone functions must be
// monotone (non-strictly) on consecutive float32 values.
func TestMonotoneSpotChecks(t *testing.T) {
	mono := []struct {
		name string
		f    func(float32) float32
		lo   float32
		n    int
	}{
		{"exp", rlibm.Exp, -10, 200000},
		{"exp", rlibm.Exp, 10, 200000},
		{"ln", rlibm.Log, 0.9, 200000},
		{"ln", rlibm.Log, 1e10, 200000},
		{"sinh", rlibm.Sinh, 3, 200000},
		{"log10", rlibm.Log10, 0x1p-140, 200000},
	}
	for _, m := range mono {
		x := m.lo
		prev := m.f(x)
		for i := 0; i < m.n; i++ {
			x = math.Nextafter32(x, float32(math.Inf(1)))
			v := m.f(x)
			if v < prev {
				t.Fatalf("%s not monotone at x=%v (%v -> %v)", m.name, x, prev, v)
			}
			prev = v
		}
	}
}

// TestSymmetries checks algebraic symmetries that correct rounding
// preserves exactly.
func TestSymmetries(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 20000; i++ {
		x := float32(rng.NormFloat64() * 20)
		if rlibm.Sinh(-x) != -rlibm.Sinh(x) {
			t.Fatalf("sinh not odd at %v", x)
		}
		if rlibm.Cosh(-x) != rlibm.Cosh(x) {
			t.Fatalf("cosh not even at %v", x)
		}
		y := float32(rng.NormFloat64() * 300)
		if rlibm.Sinpi(-y) != -rlibm.Sinpi(y) {
			t.Fatalf("sinpi not odd at %v", y)
		}
		if rlibm.Cospi(-y) != rlibm.Cospi(y) {
			t.Fatalf("cospi not even at %v", y)
		}
	}
}

// TestExactnessRelations verifies identities that hold exactly for
// correctly rounded functions on exactly-representable points.
func TestExactnessRelations(t *testing.T) {
	// log2 of powers of two is exact.
	for e := -149; e <= 127; e++ {
		x := float32(math.Ldexp(1, e))
		if got := rlibm.Log2(x); got != float32(e) {
			t.Errorf("Log2(2^%d) = %v", e, got)
		}
	}
	// exp2 of small integers is exact.
	for k := -126; k <= 127; k++ {
		if got := rlibm.Exp2(float32(k)); got != float32(math.Ldexp(1, k)) {
			t.Errorf("Exp2(%d) = %v", k, got)
		}
	}
	// exp10 of integer decades.
	for k := -10; k <= 10; k++ {
		want := float32(math.Pow(10, float64(k)))
		if got := rlibm.Exp10(float32(k)); got != want {
			t.Errorf("Exp10(%d) = %v, want %v", k, got, want)
		}
	}
	// sinpi at half-integers, cospi at integers.
	for k := -100; k <= 100; k++ {
		if got := rlibm.Sinpi(float32(k)); got != 0 {
			t.Errorf("Sinpi(%d) = %v", k, got)
		}
		want := float32(1)
		if k&1 != 0 {
			want = -1
		}
		if got := rlibm.Cospi(float32(k)); got != want {
			t.Errorf("Cospi(%d) = %v, want %v", k, got, want)
		}
	}
}

// TestSubnormalOutputs exercises exp's gradual-underflow band, a region
// mainstream float libms get wrong (Table 1).
func TestSubnormalOutputs(t *testing.T) {
	if testing.Short() {
		t.Skip("oracle-heavy")
	}
	for x := float32(-87.4); x > -103.9; x -= 0.037 {
		got := rlibm.Exp(x)
		want := oracle.Float32(checks.OracleFunc["exp"], float64(x))
		if got != want {
			t.Fatalf("Exp(%v) = %b, want %b", x, got, want)
		}
	}
}

func TestFuncLookup(t *testing.T) {
	if _, ok := rlibm.Func("exp"); !ok {
		t.Error("Func(exp) missing")
	}
	if _, ok := rlibm.Func("nope"); ok {
		t.Error("Func(nope) should be absent")
	}
	if len(rlibm.Names()) != 10 {
		t.Errorf("Names() = %v", rlibm.Names())
	}
}

// TestSliceAgreesWithScalar is the batch-kernel contract: every XxxSlice
// and EvalSlice result is bit-identical to the scalar function, across
// domain-spanning samples plus the special values (±0, ±Inf, NaN,
// subnormals, overflow edges) where the devirtualized path shortcuts.
func TestSliceAgreesWithScalar(t *testing.T) {
	specials := []float32{
		0, float32(math.Copysign(0, -1)),
		float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
		1, -1, 0.5, -0.5,
		0x1p-149, -0x1p-149, 0x1p-126, 0x1p-127,
		math.MaxFloat32, -math.MaxFloat32,
		88.8, -88.8, 128.5, -150, 0x1p23 + 1, 0x1p24,
	}
	for _, name := range rlibm.Names() {
		sf, _ := rlibm.Func(name)
		bf, ok := rlibm.FuncSlice(name)
		if !ok {
			t.Fatalf("FuncSlice(%q) missing", name)
		}
		xs := append(perf.Float32Inputs(name, 4096), specials...)
		dst := make([]float32, len(xs))
		bf(dst, xs)
		for i, x := range xs {
			want := sf(x)
			if math.Float32bits(dst[i]) != math.Float32bits(want) {
				t.Fatalf("%s slice(%v) = %b, scalar = %b", name, x, dst[i], want)
			}
		}
		// EvalSlice takes the same devirtualized path.
		dst2 := make([]float32, len(xs))
		if err := rlibm.EvalSlice(name, dst2, xs); err != nil {
			t.Fatalf("EvalSlice(%q): %v", name, err)
		}
		for i := range dst2 {
			if math.Float32bits(dst2[i]) != math.Float32bits(dst[i]) {
				t.Fatalf("%s EvalSlice diverges at %v", name, xs[i])
			}
		}
	}
}

// TestSliceInPlace checks the documented aliasing guarantee: dst and xs
// may be the same slice.
func TestSliceInPlace(t *testing.T) {
	xs := perf.Float32Inputs("exp", 512)
	want := make([]float32, len(xs))
	rlibm.ExpSlice(want, xs)
	buf := append([]float32(nil), xs...)
	rlibm.ExpSlice(buf, buf)
	for i := range buf {
		if math.Float32bits(buf[i]) != math.Float32bits(want[i]) {
			t.Fatalf("in-place ExpSlice diverges at index %d", i)
		}
	}
}

func TestEvalSliceErrors(t *testing.T) {
	xs := []float32{1, 2, 3}
	if err := rlibm.EvalSlice("nope", make([]float32, 3), xs); err != rlibm.ErrUnknownFunc {
		t.Errorf("unknown name: err = %v", err)
	}
	if err := rlibm.EvalSlice("exp", make([]float32, 2), xs); err != rlibm.ErrShortDst {
		t.Errorf("short dst: err = %v", err)
	}
	if _, ok := rlibm.FuncSlice("nope"); ok {
		t.Error("FuncSlice(nope) should be absent")
	}
}

// TestSliceLengthContract pins the documented dst/xs contract of the
// batch entry points: a zero-length batch is a no-op (including with a
// nil dst), and a dst shorter than xs panics up front — before any
// element of dst has been written — rather than mid-batch.
func TestSliceLengthContract(t *testing.T) {
	// len-0 no-op, nil dst allowed.
	rlibm.ExpSlice(nil, nil)
	if err := rlibm.EvalSlice("exp", nil, nil); err != nil {
		t.Errorf("EvalSlice len-0: err = %v", err)
	}
	// EvalSlice len-0 still validates the name.
	if err := rlibm.EvalSlice("nope", nil, nil); err != rlibm.ErrUnknownFunc {
		t.Errorf("EvalSlice len-0 unknown name: err = %v", err)
	}
	// Short dst: EvalSlice errors without touching dst.
	dst := []float32{7, 7}
	if err := rlibm.EvalSlice("exp", dst, []float32{1, 2, 3}); err != rlibm.ErrShortDst {
		t.Fatalf("short dst: err = %v", err)
	}
	if dst[0] != 7 || dst[1] != 7 {
		t.Errorf("EvalSlice wrote into dst before erroring: %v", dst)
	}
	// Short dst: direct slice call panics before writing anything.
	for _, name := range rlibm.Names() {
		f, _ := rlibm.FuncSlice(name)
		dst := []float32{7, 7}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: short dst did not panic", name)
				}
			}()
			f(dst, []float32{1, 2, 3})
		}()
		if dst[0] != 7 || dst[1] != 7 {
			t.Errorf("%s: partial write before panic: %v", name, dst)
		}
	}
}
