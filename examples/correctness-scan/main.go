// correctness-scan: find inputs where mainstream-style libraries
// produce incorrectly rounded float32 results and rlibm32 does not —
// a user-runnable slice of the paper's Table 1.
//
// Run with:
//
//	go run ./examples/correctness-scan [-n 50000]
package main

import (
	"context"
	"flag"
	"fmt"
	"math"

	"rlibm32/internal/checks"
	"rlibm32/internal/exhaust"

	rlibm "rlibm32"
)

func main() {
	n := flag.Int("n", 50000, "inputs to scan per function")
	flag.Parse()

	xs := checks.SampleFloat32(*n)
	inputs := make([]uint32, len(xs))
	for i, x := range xs {
		inputs[i] = math.Float32bits(x)
	}
	fmt.Printf("scanning %d float32 inputs per function against the oracle\n\n", len(xs))
	fmt.Printf("%-8s %10s %12s %12s %12s %12s\n",
		"f(x)", "rlibm", "fastfloat", "stddouble", "crdouble", "vecfloat")
	var example *exhaust.Report // fastfloat exp, for the concrete example
	for _, name := range rlibm.Names() {
		fmt.Printf("%-8s", name)
		for _, lib := range []string{"rlibm", "fastfloat", "stddouble", "crdouble", "vecfloat"} {
			rep, err := exhaust.Run(context.Background(), exhaust.Config{Func: name, Lib: lib, Inputs: inputs})
			switch {
			case err != nil:
				fmt.Printf(" %12s", "N/A")
			case rep.Mismatched == 0:
				fmt.Printf(" %12s", "all correct")
			default:
				fmt.Printf(" %11dX", rep.Mismatched)
			}
			if lib == "fastfloat" && name == "exp" {
				example = rep
			}
		}
		fmt.Println()
	}

	// Show one concrete wrong result from the float-precision class.
	if example == nil || len(example.Mismatches) == 0 {
		return
	}
	m := example.Mismatches[0]
	x := math.Float32frombits(m.Bits)
	fmt.Println("\nexample: a concrete wrong result from the float-precision class")
	fmt.Printf("  fastfloat exp(%v) = %v\n", x, math.Float32frombits(m.Got[0]))
	fmt.Printf("  correct (oracle)  = %v\n", math.Float32frombits(m.Want))
	fmt.Printf("  rlibm32.Exp       = %v\n", rlibm.Exp(x))
}
