package float16_test

import (
	"context"
	"math"
	"testing"

	"rlibm32/float16"
	"rlibm32/internal/exhaust"
)

// TestExhaustivelyCorrect verifies every one of the 65536 binary16
// inputs of every function against the oracle.
func TestExhaustivelyCorrect(t *testing.T) {
	for _, name := range float16.Names() {
		rep, err := exhaust.Run(context.Background(), exhaust.Config{Func: "float16." + name})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !rep.Complete || rep.Inputs != 1<<16 {
			t.Fatalf("%s: swept %d inputs, want all 65536", name, rep.Inputs)
		}
		if rep.Mismatched != 0 {
			t.Errorf("%s: %d/%d wrong results (e.g. %+v)", name, rep.Mismatched, rep.Inputs, rep.Mismatches[0])
		}
	}
}

func TestConversions(t *testing.T) {
	cases := []struct {
		v    float64
		bits uint16
	}{
		{1, 0x3C00},
		{-2, 0xC000},
		{0.5, 0x3800},
		{65504, 0x7BFF}, // MaxFinite
		{0, 0x0000},
		{5.960464477539063e-08, 0x0001}, // smallest subnormal
	}
	for _, c := range cases {
		if got := float16.FromFloat64(c.v); got.Bits() != c.bits {
			t.Errorf("FromFloat64(%v) = %#x, want %#x", c.v, got.Bits(), c.bits)
		}
		if c.v != 0 && float16.FromBits(c.bits).Float64() != c.v {
			t.Errorf("Float64(%#x) = %v, want %v", c.bits, float16.FromBits(c.bits).Float64(), c.v)
		}
	}
	// Overflow saturates to Inf (66000 > max finite midpoint).
	if !float16.FromFloat64(66000).IsInf() {
		t.Error("66000 should round to +Inf")
	}
	// Subnormal double rounding.
	if float16.FromFloat64(1e-10).Float64() != 0 {
		t.Error("1e-10 should round to 0 in binary16")
	}
}

func TestSpecials(t *testing.T) {
	if v := float16.Exp2(float16.FromFloat64(10)); v.Float64() != 1024 {
		t.Errorf("Exp2(10) = %v", v.Float64())
	}
	if v := float16.Exp(float16.FromFloat64(12)); !v.IsInf() {
		t.Errorf("Exp(12) should overflow binary16 (e^12 > 65504), got %v", v.Float64())
	}
	if v := float16.Cosh(float16.FromFloat64(-12)); !v.IsInf() {
		t.Errorf("Cosh(-12) should overflow, got %v", v.Float64())
	}
	if v := float16.Log10(float16.FromFloat64(100)); v.Float64() != 2 {
		t.Errorf("Log10(100) = %v", v.Float64())
	}
	if v := float16.Cospi(float16.FromFloat64(0.5)); v.Float64() != 0 {
		t.Errorf("Cospi(0.5) = %v", v.Float64())
	}
	for _, name := range float16.Names() {
		f, _ := float16.Func(name)
		if !f(float16.NaN()).IsNaN() {
			t.Errorf("%s(NaN) not NaN", name)
		}
	}
	_ = math.Pi
}

func TestSymmetry(t *testing.T) {
	for b := 0; b < 1<<15; b += 13 {
		x := float16.FromBits(uint16(b))
		if x.IsNaN() {
			continue
		}
		nx := float16.FromFloat64(-x.Float64())
		if float16.Sinh(nx).Float64() != -float16.Sinh(x).Float64() {
			t.Fatalf("sinh not odd at %v", x.Float64())
		}
		if float16.Cospi(nx) != float16.Cospi(x) {
			t.Fatalf("cospi not even at %v", x.Float64())
		}
	}
}
