// Command rlibmcheck reproduces Table 1 and Table 2 of the paper:
// for each elementary function it counts, over a deterministic
// representation-proportional sample, how many inputs each library gets
// wrong relative to the correctly rounded oracle.
//
// Usage:
//
//	go run ./cmd/rlibmcheck [-type float|posit|all] [-samples N] [-func name]
//
// Output mirrors the paper's layout: ✓ for zero wrong results, X(count)
// otherwise, N/A where a library lacks the function. The float32 and
// posit32 counts are on the sample, not on all 2^32 inputs — see
// EXPERIMENTS.md for scaling; the 16-bit counts come from
// internal/exhaust's sweeps of all 65536 inputs.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"rlibm32/internal/baselines"
	"rlibm32/internal/checks"
	"rlibm32/internal/exhaust"
	"rlibm32/internal/rangered"
)

func cell(r checks.Result) string {
	switch {
	case r.Tested < 0:
		return "N/A"
	case r.Wrong == 0:
		return "ok"
	}
	return fmt.Sprintf("X(%d)", r.Wrong)
}

// sweepCell sweeps every input of key in lib and formats the count.
func sweepCell(key, lib string) string {
	rep, err := exhaust.Run(context.Background(), exhaust.Config{Func: key, Lib: lib})
	switch {
	case err != nil:
		return "N/A"
	case rep.Mismatched == 0:
		return "ok"
	}
	return fmt.Sprintf("X(%d)", rep.Mismatched)
}

func main() {
	typ := flag.String("type", "all", "float, posit, bfloat16, float16, posit16, or all")
	samples := flag.Int("samples", 400000, "sample size per function")
	fn := flag.String("func", "", "restrict to a single function")
	flag.Parse()

	names := func(all []string) []string {
		if *fn != "" {
			return []string{*fn}
		}
		return all
	}

	if *typ == "float" || *typ == "all" {
		xs := checks.SampleFloat32(*samples)
		libs := []string{"rlibm"}
		for _, l := range baselines.Float32Libraries {
			libs = append(libs, string(l))
		}
		fmt.Printf("Table 1 reproduction (float32, %d sampled inputs per function)\n", len(xs))
		fmt.Printf("%-8s", "f(x)")
		for _, l := range libs {
			fmt.Printf(" %12s", l)
		}
		fmt.Println()
		for _, name := range names(rangered.FloatNames) {
			fmt.Printf("%-8s", name)
			for _, r := range checks.CheckFloat32Multi(libs, name, xs) {
				fmt.Printf(" %12s", cell(r))
			}
			fmt.Println()
		}
		fmt.Println()
	}

	for _, mini := range []string{"bfloat16", "float16", "posit16"} {
		if *typ != mini && *typ != "all" {
			continue
		}
		miniNames := rangered.FloatNames
		if mini == "posit16" {
			miniNames = rangered.PositNames
		}
		libs := []string{"rlibm", "stddouble", "crdouble"}
		fmt.Printf("Exhaustive correctness (%s, ALL 65536 inputs per function)\n", mini)
		fmt.Printf("%-8s", "f(x)")
		for _, l := range libs {
			fmt.Printf(" %12s", l)
		}
		fmt.Println()
		for _, name := range names(miniNames) {
			fmt.Printf("%-8s", name)
			for _, l := range libs {
				fmt.Printf(" %12s", sweepCell(mini+"."+name, l))
			}
			fmt.Println()
		}
		fmt.Println()
	}

	if *typ == "posit" || *typ == "all" {
		ps := checks.SamplePosit32(*samples)
		libs := []string{"rlibm"}
		for _, l := range baselines.Posit32Libraries {
			libs = append(libs, string(l))
		}
		fmt.Printf("Table 2 reproduction (posit32, %d sampled inputs per function)\n", len(ps))
		fmt.Printf("%-8s", "f(x)")
		for _, l := range libs {
			fmt.Printf(" %12s", l)
		}
		fmt.Println()
		for _, name := range names(rangered.PositNames) {
			fmt.Printf("%-8s", name)
			for _, r := range checks.CheckPosit32Multi(libs, name, ps) {
				fmt.Printf(" %12s", cell(r))
			}
			fmt.Println()
		}
	}
	os.Exit(0)
}
