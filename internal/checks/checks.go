// Package checks implements the correctness harness behind the Table 1
// and Table 2 reproductions: it compares each library's output against
// the oracle over a deterministic, representation-proportional sample
// (every exponent/regime plus dense windows at special-case
// boundaries) and counts wrong results.
//
// The oracle is consulted through internal/oracle's memoization layer:
// each Check* entry point bulk-fills the cache once per (function,
// sample) and the per-library comparison loops run against cache hits,
// so checking N libraries costs one oracle pass instead of N.
package checks

import (
	"math"
	"runtime"
	"sync"

	"rlibm32/internal/baselines"
	"rlibm32/internal/bigfp"
	"rlibm32/internal/fp"
	"rlibm32/internal/interval"
	"rlibm32/internal/oracle"
	"rlibm32/posit32"
	"rlibm32/posit32/positmath"

	rlibm "rlibm32"
)

// OracleFunc maps a function name to its bigfp oracle identity.
var OracleFunc = map[string]bigfp.Func{
	"ln": bigfp.Log, "log2": bigfp.Log2, "log10": bigfp.Log10,
	"exp": bigfp.Exp, "exp2": bigfp.Exp2, "exp10": bigfp.Exp10,
	"sinh": bigfp.Sinh, "cosh": bigfp.Cosh,
	"sinpi": bigfp.SinPi, "cospi": bigfp.CosPi,
}

// Result is one cell of Table 1/2: the number of wrong results a
// library produced on the sample, plus an example input (valid iff
// Wrong > 0; the lowest-ordinal wrong input, so reproductions are
// stable across GOMAXPROCS).
type Result struct {
	Library string
	Func    string
	Tested  int
	Wrong   int
	Example float64
}

// Correct reports the table checkmark: zero wrong results.
func (r Result) Correct() bool { return r.Wrong == 0 }

// exAcc accumulates the lowest-ordinal wrong example for one worker.
// A found flag (not a zero sentinel) marks validity, so a wrong result
// at input 0 is reported like any other.
type exAcc struct {
	wrong   int
	found   bool
	ord     int64
	example float64
}

// note records a wrong result at ordinal o for input x.
func (a *exAcc) note(o int64, x float64) {
	a.wrong++
	if !a.found || o < a.ord {
		a.found, a.ord, a.example = true, o, x
	}
}

// mergeExamples folds the workers' accumulators into the result cell,
// keeping the lowest ordinal across all of them.
func mergeExamples(res *Result, accs []exAcc) {
	best := exAcc{}
	for _, a := range accs {
		res.Wrong += a.wrong
		if a.found && (!best.found || a.ord < best.ord) {
			best.found, best.ord, best.example = true, a.ord, a.example
		}
	}
	if best.found {
		res.Example = best.example
	}
}

// SampleFloat32 yields n deterministic float32 inputs: ordinal-uniform
// over all finite values plus 2^win values around every power of two
// and around zero (where special-case cutoffs live).
func SampleFloat32(n int) []float32 {
	var xs []float32
	seen := make(map[int32]struct{}, n)
	add := func(o int32) {
		if _, dup := seen[o]; dup {
			return
		}
		v := fp.FromOrderedInt32(o)
		if v != v { // NaN block
			return
		}
		seen[o] = struct{}{}
		xs = append(xs, v)
	}
	lo, hi := fp.OrderedInt32(float32(math.Inf(-1)))+1, fp.OrderedInt32(float32(math.Inf(1)))-1
	span := int64(hi) - int64(lo)
	stride := span / int64(n)
	if stride < 1 {
		stride = 1
	}
	for o := int64(lo); o <= int64(hi); o += stride {
		add(int32(o))
	}
	// Boundary windows: around ±2^k for every exponent, and around 0.
	for e := -149; e <= 127; e++ {
		for _, s := range [2]float32{1, -1} {
			b := fp.OrderedInt32(s * float32(math.Ldexp(1, e)))
			for d := int32(-8); d <= 8; d++ {
				add(b + d)
			}
		}
	}
	for d := int32(-64); d <= 64; d++ {
		add(d)
	}
	return xs
}

// SamplePosit32 yields n deterministic posit inputs covering every
// regime.
func SamplePosit32(n int) []posit32.Posit {
	var ps []posit32.Posit
	stride := uint32((uint64(1) << 32) / uint64(n))
	if stride == 0 {
		stride = 1
	}
	for b := uint64(0); b < 1<<32; b += uint64(stride) {
		p := posit32.FromBits(uint32(b))
		if p.IsNaR() {
			continue
		}
		ps = append(ps, p)
	}
	// Regime boundaries: ±2^(4k).
	for k := -30; k <= 30; k++ {
		base := posit32.FromFloat64(math.Ldexp(1, 4*k))
		for d := -8; d <= 8; d++ {
			q := posit32.FromBits(uint32(int32(base.Bits()) + int32(d)))
			if !q.IsNaR() {
				ps = append(ps, q)
			}
		}
	}
	return ps
}

// implOverride lets tests inject synthetic float32 libraries (to
// exercise the accumulator edge cases no real library hits).
var implOverride func(lib, name string) func(float32) float32

// float32Impl returns the implementation of name in the given library
// ("rlibm" or a baselines.Library).
func float32Impl(lib, name string) func(float32) float32 {
	if implOverride != nil {
		if f := implOverride(lib, name); f != nil {
			return f
		}
	}
	if lib == "rlibm" {
		f, _ := rlibm.Func(name)
		return f
	}
	return baselines.Func32(baselines.Library(lib), name)
}

// CheckFloat32 produces one Table 1 row cell: wrong-result count for
// the library's implementation of name over xs.
func CheckFloat32(lib, name string, xs []float32) Result {
	return CheckFloat32Multi([]string{lib}, name, xs)[0]
}

// same32 is the shared result-agreement predicate (see fp.Same32).
func same32(a, b float32) bool { return fp.Same32(a, b) }

// CheckPosit32 produces one Table 2 cell.
func CheckPosit32(lib, name string, ps []posit32.Posit) Result {
	return CheckPosit32Multi([]string{lib}, name, ps)[0]
}

// CheckFloat32Multi checks several libraries against one shared oracle
// pass: the sample is precomputed into the oracle cache once, then
// every per-library comparison runs on cache hits. This is what makes
// the full Table 1 harness cost one Ziv evaluation per (func, input)
// regardless of the number of library columns.
func CheckFloat32Multi(libs []string, name string, xs []float32) []Result {
	fs := make([]func(float32) float32, len(libs))
	out := make([]Result, len(libs))
	for i, lib := range libs {
		fs[i] = float32Impl(lib, name)
		out[i] = Result{Library: lib, Func: name, Tested: len(xs)}
		if fs[i] == nil {
			out[i].Tested = -1
		}
	}
	of := OracleFunc[name]
	oracle.PrecomputeFloat32(of, xs)
	workers := runtime.GOMAXPROCS(0)
	type acc struct {
		ex []exAcc
	}
	accs := make([]acc, workers)
	var wg sync.WaitGroup
	chunk := (len(xs) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo, hi := w*chunk, (w+1)*chunk
		if hi > len(xs) {
			hi = len(xs)
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			accs[w].ex = make([]exAcc, len(libs))
			for _, x := range xs[lo:hi] {
				want := oracle.Float32(of, float64(x))
				for i, f := range fs {
					if f == nil {
						continue
					}
					if got := f(x); !same32(got, want) {
						accs[w].ex[i].note(int64(fp.OrderedInt32(x)), float64(x))
					}
				}
			}
		}(w, lo, hi)
	}
	wg.Wait()
	for i := range libs {
		var exs []exAcc
		for _, a := range accs {
			if a.ex == nil {
				continue
			}
			exs = append(exs, a.ex[i])
		}
		mergeExamples(&out[i], exs)
	}
	return out
}

// CheckPosit32Multi is the shared-oracle variant for Table 2.
func CheckPosit32Multi(libs []string, name string, ps []posit32.Posit) []Result {
	fs := make([]func(posit32.Posit) posit32.Posit, len(libs))
	out := make([]Result, len(libs))
	for i, lib := range libs {
		if lib == "rlibm" {
			fs[i], _ = positmath.Func(name)
		} else {
			fs[i] = baselines.FuncPosit(baselines.Library(lib), name)
		}
		out[i] = Result{Library: lib, Func: name, Tested: len(ps)}
		if fs[i] == nil {
			out[i].Tested = -1
		}
	}
	of := OracleFunc[name]
	tgt := interval.Posit32Target{}
	oracle.PrecomputePosit32(of, ps)
	workers := runtime.GOMAXPROCS(0)
	type acc struct {
		ex []exAcc
	}
	accs := make([]acc, workers)
	var wg sync.WaitGroup
	chunk := (len(ps) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo, hi := w*chunk, (w+1)*chunk
		if hi > len(ps) {
			hi = len(ps)
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			accs[w].ex = make([]exAcc, len(libs))
			for _, p := range ps[lo:hi] {
				x := p.Float64()
				if (name == "ln" || name == "log2" || name == "log10") && x <= 0 {
					continue
				}
				wantF, ok := oracle.Target(tgt, of, x)
				var want posit32.Posit
				if !ok {
					want = posit32.NaR
				} else {
					want = posit32.FromFloat64(wantF)
				}
				for i, f := range fs {
					if f == nil {
						continue
					}
					if got := f(p); got != want {
						accs[w].ex[i].note(int64(int32(p.Bits())), x)
					}
				}
			}
		}(w, lo, hi)
	}
	wg.Wait()
	for i := range libs {
		var exs []exAcc
		for _, a := range accs {
			if a.ex == nil {
				continue
			}
			exs = append(exs, a.ex[i])
		}
		mergeExamples(&out[i], exs)
	}
	return out
}
