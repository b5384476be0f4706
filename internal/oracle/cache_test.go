package oracle

import (
	"math"
	"sync"
	"testing"

	"rlibm32/internal/bigfp"
	"rlibm32/internal/interval"
)

// tableFuncs are the ten functions of the Table 1/2 reproductions.
var tableFuncs = []bigfp.Func{
	bigfp.Log, bigfp.Log2, bigfp.Log10,
	bigfp.Exp, bigfp.Exp2, bigfp.Exp10,
	bigfp.Sinh, bigfp.Cosh, bigfp.SinPi, bigfp.CosPi,
}

func ordf32(f float32) int32 {
	b := int32(math.Float32bits(f))
	if b < 0 {
		b = int32(-0x80000000) - b
	}
	return b
}

func fromOrdf32(i int32) float32 {
	if i < 0 {
		i = int32(-0x80000000) - i
	}
	return math.Float32frombits(uint32(i))
}

// boundarySample is the harness's hard-input lattice: every exponent's
// power-of-two neighbourhood (±8 ulps), the window around ±0, and the
// NaN/Inf edges.
func boundarySample() []float64 {
	var xs []float64
	seen := make(map[int32]struct{})
	add := func(o int32) {
		if _, dup := seen[o]; dup {
			return
		}
		seen[o] = struct{}{}
		xs = append(xs, float64(fromOrdf32(o)))
	}
	for e := -149; e <= 127; e++ {
		for _, s := range [2]float32{1, -1} {
			b := ordf32(s * float32(math.Ldexp(1, e)))
			for d := int32(-8); d <= 8; d++ {
				add(b + d)
			}
		}
	}
	for d := int32(-16); d <= 16; d++ {
		add(d)
	}
	// Representable edges and non-finite inputs.
	xs = append(xs,
		float64(math.MaxFloat32), -float64(math.MaxFloat32),
		math.Inf(1), math.Inf(-1), math.NaN())
	return xs
}

// TestCachedMatchesUncached runs the boundary-window sample through
// the memoized and the direct Ziv paths for all ten table functions
// and demands bit-identical answers, on both the fill and the hit pass.
func TestCachedMatchesUncached(t *testing.T) {
	if testing.Short() {
		t.Skip("oracle-heavy")
	}
	xs := boundarySample()
	for _, f := range tableFuncs {
		for _, x := range xs {
			want := float32Uncached(f, x)
			for pass := 0; pass < 2; pass++ { // miss then hit
				got := Float32(f, x)
				if math.Float32bits(got) != math.Float32bits(want) &&
					!(got != got && want != want) {
					t.Fatalf("%v(%v) pass %d: cached %v, uncached %v", f, x, pass, got, want)
				}
			}
		}
	}
}

// TestCachedPosit32AndFloat64 covers the other two memoized caches on
// a subsample.
func TestCachedPosit32AndFloat64(t *testing.T) {
	if testing.Short() {
		t.Skip("oracle-heavy")
	}
	xs := boundarySample()
	for _, f := range []bigfp.Func{bigfp.Log, bigfp.Exp, bigfp.Sinh} {
		for i, x := range xs {
			if i%16 != 0 {
				continue
			}
			if got, want := Posit32(f, x), posit32Uncached(f, x); got != want {
				t.Fatalf("posit %v(%v): cached %#x, uncached %#x", f, x, got, want)
			}
			got, want := Float64(f, x), float64Uncached(f, x)
			if math.Float64bits(got) != math.Float64bits(want) &&
				!(got != got && want != want) {
				t.Fatalf("double %v(%v): cached %v, uncached %v", f, x, got, want)
			}
		}
	}
}

// TestCachedTargetGeneric covers the per-target-name cache used by the
// exhaustive 16-bit checks.
func TestCachedTargetGeneric(t *testing.T) {
	tgt := interval.BFloat16Target()
	for _, x := range []float64{0.5, 1, 2, 100, -3, 0, math.Inf(1), math.NaN()} {
		wantV, wantOK := targetUncached(tgt, bigfp.Exp, x)
		for pass := 0; pass < 2; pass++ {
			gotV, gotOK := Target(tgt, bigfp.Exp, x)
			if gotOK != wantOK || (gotOK && gotV != wantV) {
				t.Fatalf("target exp(%v) pass %d: cached (%v,%v), uncached (%v,%v)",
					x, pass, gotV, gotOK, wantV, wantOK)
			}
		}
	}
}

// TestCacheCountsOnce asserts the precompute-then-read contract: after
// a bulk fill, any number of reader passes performs zero further
// evaluations, for the dedicated float32 and posit32 caches and for
// the generic one.
func TestCacheCountsOnce(t *testing.T) {
	defer ResetCache()
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = 0.25 + float64(i)*0.125
	}
	for _, tgt := range []interval.Target{interval.Float32Target{}, interval.Posit32Target{}, interval.BFloat16Target()} {
		ResetCache()
		PrecomputeTarget(tgt, bigfp.Exp, xs)
		if got := Stats().Misses; got != uint64(len(xs)) {
			t.Fatalf("%s: precompute misses = %d, want %d", tgt.Name(), got, len(xs))
		}
		for pass := 0; pass < 3; pass++ {
			for _, x := range xs {
				Target(tgt, bigfp.Exp, x)
			}
		}
		st := Stats()
		if st.Misses != uint64(len(xs)) {
			t.Errorf("%s: misses after reads = %d, want %d (oracle must run once per input)", tgt.Name(), st.Misses, len(xs))
		}
		if st.Hits != uint64(3*len(xs)) {
			t.Errorf("%s: hits = %d, want %d", tgt.Name(), st.Hits, 3*len(xs))
		}
	}
}

// TestCacheConcurrentFills exercises concurrent fills of overlapping
// key sets across all four cache types (run under -race in CI).
func TestCacheConcurrentFills(t *testing.T) {
	ResetCache()
	defer ResetCache()
	tgt := interval.Float16Target()
	var wg sync.WaitGroup
	const workers = 8
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				x := 0.5 + float64((i+w)%64)*0.03125
				f := tableFuncs[(i+w)%len(tableFuncs)]
				if got, want := Float32(f, x), float32Uncached(f, x); got != want {
					t.Errorf("concurrent %v(%v): %v != %v", f, x, got, want)
					return
				}
				Float64(f, x)
				Posit32(f, x)
				Target(tgt, f, x)
			}
		}(w)
	}
	// A concurrent reset must not corrupt anything (results stay right,
	// only the counters move).
	wg.Add(1)
	go func() {
		defer wg.Done()
		ResetCache()
	}()
	wg.Wait()
}

// BenchmarkOracleFloat32 measures the uncached Ziv ladder (every
// iteration sees a fresh input, so every iteration is a cache miss
// plus an insert). Allocation counts here are the EXPERIMENTS.md
// before/after numbers.
func BenchmarkOracleFloat32(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Float32(bigfp.Exp, 0.5+float64(i)*1e-9)
	}
}

// BenchmarkOracleFloat32Hit measures the steady-state harness path: a
// warm cache serving repeat evaluations.
func BenchmarkOracleFloat32Hit(b *testing.B) {
	b.ReportAllocs()
	xs := make([]float64, 1024)
	for i := range xs {
		xs[i] = 0.5 + float64(i)*1e-3
		Float32(bigfp.Exp, xs[i])
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Float32(bigfp.Exp, xs[i&1023])
	}
}
