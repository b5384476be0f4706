package bfloat16_test

import (
	"context"
	"math"
	"testing"

	"rlibm32/bfloat16"
	"rlibm32/internal/exhaust"
)

// TestExhaustivelyCorrect is the 16-bit payoff: every one of the 65536
// inputs of every function is verified against the oracle — the same
// all-inputs guarantee the paper's server-scale runs establish for
// 32-bit types.
func TestExhaustivelyCorrect(t *testing.T) {
	for _, name := range bfloat16.Names() {
		rep, err := exhaust.Run(context.Background(), exhaust.Config{Func: "bfloat16." + name})
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
		{1, 0x3F80},
		{-2, 0xC000},
		{0.5, 0x3F00},
		{0, 0x0000},
	}
	for _, c := range cases {
		if got := bfloat16.FromFloat64(c.v); got.Bits() != c.bits {
			t.Errorf("FromFloat64(%v) = %#x, want %#x", c.v, got.Bits(), c.bits)
		}
	}
	// bfloat16 is truncated float32: the upper 16 bits round-trip.
	for b := uint32(0); b < 1<<16; b += 97 {
		x := math.Float32frombits(b << 16)
		if x != x {
			continue
		}
		if bfloat16.FromBits(uint16(b)).Float32() != x {
			t.Fatalf("embedding mismatch at %#x", b)
		}
	}
}

func TestSpecials(t *testing.T) {
	if !bfloat16.FromFloat64(math.NaN()).IsNaN() {
		t.Error("NaN conversion")
	}
	if !bfloat16.Inf(1).IsInf() || bfloat16.Inf(1).Float64() != math.Inf(1) {
		t.Error("Inf")
	}
	if v := bfloat16.Exp(bfloat16.FromFloat64(0)); v.Float64() != 1 {
		t.Errorf("Exp(0) = %v", v.Float64())
	}
	if v := bfloat16.Log(bfloat16.FromFloat64(0)); v.Float64() != math.Inf(-1) {
		t.Errorf("Log(0) = %v", v.Float64())
	}
	if v := bfloat16.Log(bfloat16.FromFloat64(-1)); !v.IsNaN() {
		t.Errorf("Log(-1) = %v", v.Float64())
	}
	if v := bfloat16.Sinpi(bfloat16.FromFloat64(3)); v.Float64() != 0 {
		t.Errorf("Sinpi(3) = %v", v.Float64())
	}
	for _, name := range bfloat16.Names() {
		f, ok := bfloat16.Func(name)
		if !ok {
			t.Fatalf("missing %s", name)
		}
		if !f(bfloat16.NaN()).IsNaN() {
			t.Errorf("%s(NaN) not NaN", name)
		}
	}
}

func TestMonotoneExp(t *testing.T) {
	prev := bfloat16.Exp(bfloat16.FromFloat64(-20))
	b := bfloat16.FromFloat64(-20)
	for i := 0; i < 20000; i++ {
		b = b.NextUp()
		if b.IsInf() {
			break
		}
		v := bfloat16.Exp(b)
		if v.Float64() < prev.Float64() {
			t.Fatalf("Exp not monotone at %v", b.Float64())
		}
		prev = v
	}
}
