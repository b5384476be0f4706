package posit16_test

import (
	"context"
	"math"
	"testing"

	"rlibm32/internal/exhaust"
	"rlibm32/posit16"
)

// TestExhaustivelyCorrect verifies every one of the 65536 posit16
// inputs of every function against the oracle.
func TestExhaustivelyCorrect(t *testing.T) {
	for _, name := range posit16.Names() {
		rep, err := exhaust.Run(context.Background(), exhaust.Config{Func: "posit16." + name})
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

func TestBasics(t *testing.T) {
	if posit16.FromFloat64(1).Bits() != 0x4000 {
		t.Error("posit16(1) encoding wrong")
	}
	if posit16.One.Float64() != 1 || posit16.MaxPos.Float64() != 0x1p56 {
		t.Error("special values wrong")
	}
	if !posit16.FromFloat64(math.NaN()).IsNaR() {
		t.Error("NaN should be NaR")
	}
	if posit16.FromFloat64(1e40) != posit16.MaxPos {
		t.Error("saturation wrong")
	}
	if posit16.One.Neg().Neg() != posit16.One {
		t.Error("Neg not involutive")
	}
}

func TestFunctions(t *testing.T) {
	if posit16.Exp(posit16.Zero) != posit16.One {
		t.Error("Exp(0) != 1")
	}
	if posit16.Log(posit16.One) != posit16.Zero {
		t.Error("Log(1) != 0")
	}
	if !posit16.Log(posit16.Zero).IsNaR() {
		t.Error("Log(0) should be NaR")
	}
	// Posit saturation: Exp never reaches zero.
	big := posit16.FromFloat64(100)
	if posit16.Exp(big) != posit16.MaxPos {
		t.Error("Exp(100) should saturate to MaxPos")
	}
	if posit16.Exp(big.Neg()) != posit16.MinPos {
		t.Error("Exp(-100) should saturate to MinPos, not zero")
	}
	if got := posit16.Exp2(posit16.FromFloat64(10)); got.Float64() != 1024 {
		t.Errorf("Exp2(10) = %v", got.Float64())
	}
	for _, name := range posit16.Names() {
		f, _ := posit16.Func(name)
		if !f(posit16.NaR).IsNaR() {
			t.Errorf("%s(NaR) should be NaR", name)
		}
	}
}
