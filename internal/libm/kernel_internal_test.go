package libm

import (
	"math"
	"strings"
	"testing"

	"rlibm32/internal/cpuid"
	"rlibm32/internal/polygen"
	"rlibm32/internal/rangered"
)

// TestRoundHalfAwayMatchesMathRound pins the kernel-local math.Round
// copy bit-for-bit: the exp kernels' bit-identity to the scalar path
// rests on it. Edge cases cover both rounding-branch boundaries, the
// largest-double-below-0.5 trap (Trunc(x+0.5) gets it wrong; Round
// must not), signed zeros, subnormals, infinities and NaN payloads.
func TestRoundHalfAwayMatchesMathRound(t *testing.T) {
	cases := []float64{
		0, math.Copysign(0, -1), 0.25, 0.5, 0.75, 1, 1.5, 2.5, -0.5, -1.5, -2.5,
		0.49999999999999994, -0.49999999999999994, // largest |x| < 0.5
		0.5000000000000001, 1e15, 1e15 + 0.5, -1e15 - 0.5,
		1 << 52, -(1 << 52), (1 << 52) - 0.5,
		math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64,
		math.Inf(1), math.Inf(-1), math.NaN(),
		math.Float64frombits(0x7ff8000000000001), // NaN payload preserved
	}
	for _, x := range cases {
		if got, want := math.Float64bits(roundHalfAway(x)), math.Float64bits(math.Round(x)); got != want {
			t.Errorf("roundHalfAway(%v) = %x, want %x", x, got, want)
		}
	}
	// Dense deterministic sweep across exponents, both signs.
	for e := -60; e <= 60; e++ {
		base := math.Ldexp(1, e)
		for i := 0; i < 200; i++ {
			x := base * (1 + float64(i)*0x1.3p-7)
			for _, v := range [...]float64{x, -x} {
				if got, want := math.Float64bits(roundHalfAway(v)), math.Float64bits(math.Round(v)); got != want {
					t.Fatalf("roundHalfAway(%v) = %x, want %x", v, got, want)
				}
			}
		}
	}
}

// TestFusedKernelCoverage asserts every shipped function in every
// variant passes the same shape check rlibmgen runs before it emits
// tables — if a regenerated table ever changes shape, this fails here
// as well as at generation time and at package init.
func TestFusedKernelCoverage(t *testing.T) {
	for _, e := range Registry() {
		for _, f := range implsFor(e.Variant) {
			if f.name != e.Name {
				continue
			}
			if err := KernelShape(f.fam, f.pieces); err != nil {
				t.Errorf("%s/%s: %v", e.Variant, e.Name, err)
			}
		}
	}
}

// TestKernelShapeRejectsUncovered feeds the shape check tables no
// kernel covers, built from the shipped float32 ln, and asserts the
// error names the function and the shape it found.
func TestKernelShapeRejectsUncovered(t *testing.T) {
	var ln *impl
	for _, f := range float32Impls {
		if f.name == "ln" {
			ln = f
		}
	}
	if ln == nil {
		t.Fatal("no float32 ln")
	}
	tab := *ln.pieces[0].Pos
	tab.N = 5
	quartic := tab
	quartic.Terms = []int{1, 2, 3, 4}
	cases := []struct {
		name   string
		pieces []*polygen.Piecewise
		shape  string
	}{
		{"4 terms", []*polygen.Piecewise{{Pos: &quartic}}, "[NoConst-4×32]"},
		{"per-sign", []*polygen.Piecewise{{Pos: &tab, Neg: &tab}}, "[±NoConst-3×32]"},
	}
	for _, c := range cases {
		err := KernelShape(ln.fam, c.pieces)
		if err == nil {
			t.Errorf("%s: shape check accepted a table no kernel covers", c.name)
			continue
		}
		if msg := err.Error(); !strings.Contains(msg, " ln ") || !strings.Contains(msg, c.shape) {
			t.Errorf("%s: error %q does not name ln and %s", c.name, msg, c.shape)
		}
	}
	if err := KernelShape(ln.fam, ln.pieces); err != nil {
		t.Errorf("shipped ln rejected: %v", err)
	}
}

// TestKernelKind32 checks the telemetry label: "simd" or "go" for
// every float32 function, "simd" only for the exp and log families
// and only on AVX2 hosts, "" for an unknown name.
func TestKernelKind32(t *testing.T) {
	for _, f := range float32Impls {
		want := "go"
		switch f.fam.(type) {
		case *rangered.ExpFamily, *rangered.LogFamily:
			if cpuid.AVX2 {
				want = "simd"
			}
		}
		if got := KernelKind32(f.name); got != want {
			t.Errorf("KernelKind32(%q) = %q, want %q", f.name, got, want)
		}
	}
	if got := KernelKind32("nope"); got != "" {
		t.Errorf("KernelKind32(unknown) = %q, want \"\"", got)
	}
}
