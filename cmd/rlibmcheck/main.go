// Command rlibmcheck reproduces Table 1 and Table 2 of the paper:
// for each elementary function it counts how many inputs each library
// gets wrong relative to the correctly rounded result.
//
// Usage:
//
//	go run ./cmd/rlibmcheck [-type float|posit|bfloat16|float16|posit16|all] [-samples N] [-func name]
//
// Output mirrors the paper's layout: ✓ for zero wrong results, X(count)
// otherwise, N/A where a library lacks the function. Every cell is one
// internal/exhaust run, so a wrong result means the same thing in every
// table: the guard band decides each input, the oracle confirms every
// refutation, and rlibm is checked on its scalar and batch paths. The
// float32 and posit32 counts are on the deterministic samples of
// internal/checks (the very samples rlibmgen constrains generation on),
// not on all 2^32 inputs — see EXPERIMENTS.md; the 16-bit counts are
// over all 65536 inputs.
package main

import (
	"context"
	"flag"
	"fmt"
	"math"

	"rlibm32/internal/baselines"
	"rlibm32/internal/checks"
	"rlibm32/internal/exhaust"
	"rlibm32/internal/rangered"
	"rlibm32/posit32"
)

// sweepCell checks key in lib over inputs (nil for every input) and
// formats the count.
func sweepCell(key, lib string, inputs []uint32) string {
	rep, err := exhaust.Run(context.Background(), exhaust.Config{Func: key, Lib: lib, Inputs: inputs})
	switch {
	case err != nil:
		return "N/A"
	case rep.Mismatched == 0:
		return "ok"
	}
	return fmt.Sprintf("X(%d)", rep.Mismatched)
}

// patterns returns the bit patterns of a sample.
func patterns[T any](xs []T, bits func(T) uint32) []uint32 {
	out := make([]uint32, len(xs))
	for i, x := range xs {
		out[i] = bits(x)
	}
	return out
}

// libs returns the rlibm column followed by the baselines.
func libs(bs []baselines.Library) []string {
	out := []string{"rlibm"}
	for _, l := range bs {
		out = append(out, string(l))
	}
	return out
}

func main() {
	typ := flag.String("type", "all", "float, posit, bfloat16, float16, posit16, or all")
	samples := flag.Int("samples", 400000, "sample size per function")
	fn := flag.String("func", "", "restrict to a single function")
	flag.Parse()

	mini := []baselines.Library{baselines.StdDouble, baselines.CRDouble}
	tables := []struct {
		typ, variant string
		names, libs  []string
		inputs       func() []uint32 // nil: every input
		title        string
	}{
		{"float", "float32", rangered.FloatNames, libs(baselines.Float32Libraries),
			func() []uint32 { return patterns(checks.SampleFloat32(*samples), math.Float32bits) },
			"Table 1 reproduction (float32, %d sampled inputs per function)"},
		{"bfloat16", "bfloat16", rangered.FloatNames, libs(mini), nil,
			"Exhaustive correctness (bfloat16, ALL 65536 inputs per function)"},
		{"float16", "float16", rangered.FloatNames, libs(mini), nil,
			"Exhaustive correctness (float16, ALL 65536 inputs per function)"},
		{"posit16", "posit16", rangered.PositNames, libs(mini), nil,
			"Exhaustive correctness (posit16, ALL 65536 inputs per function)"},
		{"posit", "posit32", rangered.PositNames, libs(baselines.Posit32Libraries),
			func() []uint32 { return patterns(checks.SamplePosit32(*samples), posit32.Posit.Bits) },
			"Table 2 reproduction (posit32, %d sampled inputs per function)"},
	}
	first := true
	for _, t := range tables {
		if *typ != t.typ && *typ != "all" {
			continue
		}
		if !first {
			fmt.Println()
		}
		first = false
		var inputs []uint32
		if t.inputs != nil {
			inputs = t.inputs()
			fmt.Printf(t.title+"\n", len(inputs))
		} else {
			fmt.Println(t.title)
		}
		fmt.Printf("%-8s", "f(x)")
		for _, l := range t.libs {
			fmt.Printf(" %12s", l)
		}
		fmt.Println()
		names := t.names
		if *fn != "" {
			names = []string{*fn}
		}
		for _, name := range names {
			fmt.Printf("%-8s", name)
			for _, l := range t.libs {
				fmt.Printf(" %12s", sweepCell(t.variant+"."+name, l, inputs))
			}
			fmt.Println()
		}
	}
}
