// Benchmarks reproducing the paper's performance experiments with
// testing.B (one benchmark family per figure/table; the cmd/rlibmbench
// and cmd/rlibmsweep binaries print the paper-shaped summaries).
//
//	Figure 3  → BenchmarkFloat32/<func>/<library>
//	Figure 4  → BenchmarkPosit32/<func>/<library>
//	§4.3      → BenchmarkBatch1024/<func>/<library>
//	Table 1/2 → BenchmarkCheckOracle (oracle cost per correctness cell)
package rlibm32_test

import (
	"testing"

	rlibm "rlibm32"
	"rlibm32/internal/baselines"
	"rlibm32/internal/bigfp"
	"rlibm32/internal/oracle"
	"rlibm32/internal/perf"
	"rlibm32/internal/telemetry"
	"rlibm32/posit32"
	"rlibm32/posit32/positmath"
)

var sink float32

var sinkP posit32.Posit

func benchFloat32(b *testing.B, f func(float32) float32, name string) {
	xs := perf.Float32Inputs(name, 1<<12)
	b.ResetTimer()
	var s float32
	for i := 0; i < b.N; i++ {
		s += f(xs[i&(1<<12-1)])
	}
	sink = s
}

// BenchmarkFloat32 is the Figure 3 reproduction: rlibm vs each
// baseline, per function.
func BenchmarkFloat32(b *testing.B) {
	for _, name := range rlibm.Names() {
		rf, _ := rlibm.Func(name)
		b.Run(name+"/rlibm", func(b *testing.B) { benchFloat32(b, rf, name) })
		for _, lib := range baselines.Float32Libraries {
			bf := baselines.Func32(lib, name)
			if bf == nil {
				continue
			}
			b.Run(name+"/"+string(lib), func(b *testing.B) { benchFloat32(b, bf, name) })
		}
	}
}

func benchPosit(b *testing.B, f func(posit32.Posit) posit32.Posit, name string) {
	ps := perf.PositInputs(name, 1<<12)
	b.ResetTimer()
	var s posit32.Posit
	for i := 0; i < b.N; i++ {
		s ^= f(ps[i&(1<<12-1)])
	}
	sinkP = s
}

// BenchmarkPosit32 is the Figure 4 reproduction.
func BenchmarkPosit32(b *testing.B) {
	for _, name := range positmath.Names() {
		rf, _ := positmath.Func(name)
		b.Run(name+"/rlibm", func(b *testing.B) { benchPosit(b, rf, name) })
		for _, lib := range baselines.Posit32Libraries {
			bf := baselines.FuncPosit(lib, name)
			if bf == nil {
				continue
			}
			b.Run(name+"/"+string(lib), func(b *testing.B) { benchPosit(b, bf, name) })
		}
	}
}

// reportBatchMetrics converts a batch benchmark's raw ns/op into the
// two numbers the kernel work is judged by: ns per value and values
// per second.
func reportBatchMetrics(b *testing.B, width int) {
	perValue := float64(b.Elapsed().Nanoseconds()) / float64(b.N*width)
	b.ReportMetric(perValue, "ns/value")
	b.ReportMetric(1e9/perValue, "values/s")
}

// BenchmarkBatch1024 is the §4.3 "vectorization" harness: arrays of
// 1024 inputs processed per outer iteration.
func BenchmarkBatch1024(b *testing.B) {
	for _, name := range []string{"exp", "log2", "cospi"} {
		rf, _ := rlibm.Func(name)
		bf2, _ := rlibm.FuncSlice(name)
		xs := perf.Float32Inputs(name, 1024)
		out := make([]float32, 1024)
		b.Run(name+"/rlibm", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for j, x := range xs {
					out[j] = rf(x)
				}
			}
			sink = out[0]
			reportBatchMetrics(b, 1024)
		})
		b.Run(name+"/rlibm-batch", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				bf2(out, xs)
			}
			sink = out[0]
			reportBatchMetrics(b, 1024)
		})
		for _, lib := range baselines.Float32Libraries {
			bf := baselines.Func32(lib, name)
			if bf == nil {
				continue
			}
			b.Run(name+"/"+string(lib), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					for j, x := range xs {
						out[j] = bf(x)
					}
				}
				sink = out[0]
				reportBatchMetrics(b, 1024)
			})
		}
	}
}

// BenchmarkEvalSliceFuncs1024 is the per-function batch entry-point
// benchmark: every shipped float32 function through EvalSlice at the
// canonical width, reporting ns/value and values/s for benchstat
// tracking across the whole surface (not just the three §4.3
// headliners).
func BenchmarkEvalSliceFuncs1024(b *testing.B) {
	for _, name := range rlibm.Names() {
		xs := perf.Float32Inputs(name, 1024)
		out := make([]float32, 1024)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := rlibm.EvalSlice(name, out, xs); err != nil {
					b.Fatal(err)
				}
			}
			sink = out[0]
			reportBatchMetrics(b, 1024)
		})
	}
}

// BenchmarkLibMix1024 is perfbench's `lib` workload with the library
// alone: the public batch entry points at 1024 values, round robin over
// the 10 float32 and then the 8 posit32 functions, each walking its own
// 2^16 internal/perf inputs batch by batch, with no per-call timing or
// result check. Its ns/value set beside `lib`'s wall time per value
// (1e9/values_per_s) and perfbench's per-function rows splits what the
// round robin costs from what perfbench's own check and timing cost.
func BenchmarkLibMix1024(b *testing.B) {
	const batch, inputs = 1024, 1 << 16
	type fn struct {
		name string
		xs   []float32
		ps   []posit32.Posit
	}
	var fns []fn
	for _, name := range rlibm.Names() {
		fns = append(fns, fn{name: name, xs: perf.Float32Inputs(name, inputs)})
	}
	for _, name := range positmath.Names() {
		fns = append(fns, fn{name: name, ps: perf.PositInputs(name, inputs)})
	}
	out32 := make([]float32, batch)
	outP := make([]posit32.Posit, batch)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := &fns[i%len(fns)]
		lo := i / len(fns) * batch % inputs
		var err error
		if f.xs != nil {
			err = rlibm.EvalSlice(f.name, out32, f.xs[lo:lo+batch])
		} else {
			err = positmath.EvalSlice(f.name, outP, f.ps[lo:lo+batch])
		}
		if err != nil {
			b.Fatal(err)
		}
	}
	sink, sinkP = out32[0], outP[0]
	reportBatchMetrics(b, batch)
}

// BenchmarkEvalSlice1024 measures the telemetry tax on the named batch
// entry point: Off is the default silent mode (one atomic pointer load
// per batch), On counts batches/values into registry counters. The
// acceptance bar is Off within 2% of On-never-enabled and zero
// allocations either way.
func BenchmarkEvalSlice1024(b *testing.B) {
	xs := perf.Float32Inputs("exp", 1024)
	out := make([]float32, 1024)
	b.Run("TelemetryOff", func(b *testing.B) {
		rlibm.DisableTelemetry()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := rlibm.EvalSlice("exp", out, xs); err != nil {
				b.Fatal(err)
			}
		}
		sink = out[0]
		reportBatchMetrics(b, 1024)
	})
	b.Run("TelemetryOn", func(b *testing.B) {
		rlibm.EnableTelemetry(telemetry.NewRegistry())
		defer rlibm.DisableTelemetry()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := rlibm.EvalSlice("exp", out, xs); err != nil {
				b.Fatal(err)
			}
		}
		sink = out[0]
		reportBatchMetrics(b, 1024)
	})
}

// TestEvalSliceTelemetryNoAllocs pins the zero-allocation contract of
// the batch path in both telemetry modes (the benchmark reports it;
// this fails the build if it regresses).
func TestEvalSliceTelemetryNoAllocs(t *testing.T) {
	xs := perf.Float32Inputs("exp", 1024)
	out := make([]float32, 1024)
	rlibm.DisableTelemetry()
	if n := testing.AllocsPerRun(100, func() { rlibm.EvalSlice("exp", out, xs) }); n != 0 {
		t.Errorf("telemetry off: %v allocs per EvalSlice batch, want 0", n)
	}
	rlibm.EnableTelemetry(telemetry.NewRegistry())
	defer rlibm.DisableTelemetry()
	if n := testing.AllocsPerRun(100, func() { rlibm.EvalSlice("exp", out, xs) }); n != 0 {
		t.Errorf("telemetry on: %v allocs per EvalSlice batch, want 0", n)
	}
}

// BenchmarkCheckOracle measures the oracle cost dominating Table 1/2
// generation and checking (the paper's "86% of total time is MPFR").
func BenchmarkCheckOracle(b *testing.B) {
	for i := 0; i < b.N; i++ {
		oracle.Float32(bigfp.Exp, 0.5+float64(i%1000)*1e-3)
	}
}
