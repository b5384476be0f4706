// exhaustive-16bit: verify a correctly rounded library on EVERY input.
//
// The paper validates its 32-bit libraries against all 2^32 inputs on a
// server-scale MPFR setup. The 16-bit types generated by the same
// pipeline in this repository make that guarantee reproducible on a
// laptop: this example runs the repository's all-input verifier
// (internal/exhaust, the engine behind cmd/rlibmverify) over every one
// of the 65536 bfloat16 inputs of exp, live, in well under a second —
// and then shows the kind of input a double-precision library gets
// wrong at bfloat16 granularity.
//
// Run with:
//
//	go run ./examples/exhaustive-16bit
package main

import (
	"context"
	"fmt"
	"math"

	"rlibm32/bfloat16"
	"rlibm32/internal/exhaust"
)

func main() {
	fmt.Println("checking bfloat16.Exp on ALL 65536 inputs against the correctly rounded result...")
	rep, err := exhaust.Run(context.Background(), exhaust.Config{Func: "bfloat16.exp"})
	if err != nil {
		fmt.Println(err)
		return
	}
	for _, m := range rep.Mismatches[:min(3, len(rep.Mismatches))] {
		fmt.Printf("  MISMATCH at %v: got %v want %v\n", bfloat16.FromBits(uint16(m.Bits)).Float64(),
			bfloat16.FromBits(uint16(m.Got[0])).Float64(), bfloat16.FromBits(uint16(m.Want)).Float64())
	}
	fmt.Printf("tested %d inputs in %v: %d wrong, %d decided by the arbitrary-precision oracle\n\n",
		rep.Inputs, rep.Elapsed, rep.Mismatched, rep.Escalated)

	// Where a repurposed double library loses: cospi near the zeros of
	// the cosine (the Table 1 failure class, visible even at 16 bits).
	fmt.Println("double-precision cospi vs correctly rounded bfloat16 cospi:")
	shown := 0
	for b := 0; b < 1<<15 && shown < 3; b++ {
		x := bfloat16.FromBits(uint16(b))
		if x.IsNaN() || x.IsInf() {
			continue
		}
		naive := bfloat16.FromFloat64(math.Cos(math.Pi * x.Float64()))
		correct := bfloat16.Cospi(x)
		if naive != correct {
			fmt.Printf("  cospi(%v): double-then-round %v, correctly rounded %v\n",
				x.Float64(), naive.Float64(), correct.Float64())
			shown++
		}
	}
	if shown == 0 {
		fmt.Println("  (none found in the scanned range)")
	}
}
