package exhaust

import (
	"math"
	"testing"

	"rlibm32/internal/checks"
	"rlibm32/internal/fp"
	"rlibm32/internal/oracle"

	rlibm "rlibm32"
)

// ref64 returns the double reference of the named function.
func ref64(t *testing.T, name string) func(float64) float64 {
	t.Helper()
	ref, ok := oracle.Ref64(checks.OracleFunc[name])
	if !ok {
		t.Fatalf("no reference for %s", name)
	}
	return ref
}

// checkFilterSoundness is the shared property: whenever the guard-band
// filter decides a rounding from the double reference, the Ziv ladder
// alone (oracle.Float32 would answer from the same band) must agree;
// and a NaN reference must mean a NaN true result (the Ref64
// domain-error contract the sweep's fast path leans on).
func checkFilterSoundness(t *testing.T, name string, x float32) {
	t.Helper()
	ref := ref64(t, name)
	of, ok := checks.OracleFunc[name]
	if !ok {
		t.Fatalf("no oracle for %s", name)
	}
	r := ref(float64(x))
	truth := oracle.Float32Ziv(of, float64(x))
	if r != r {
		if truth == truth {
			t.Errorf("%s(%#08x): reference NaN but true result %#08x — Ref64 NaN contract violated",
				name, math.Float32bits(x), math.Float32bits(truth))
		}
		return
	}
	if want, decided := oracle.RoundDecided32(r, oracle.DefaultGuardUlps); decided && !fp.Same32(want, truth) {
		t.Errorf("%s(%#08x): filter decided %#08x but oracle says %#08x — guard band unsound",
			name, math.Float32bits(x), math.Float32bits(want), math.Float32bits(truth))
	}
}

// hardBits are inputs the sweep found to sit closest to float32 rounding
// boundaries (real escalations and refuted seed-library results), plus
// structural edges. They are the seed corpus for the fuzz target and a
// deterministic regression sample.
var hardBits = []uint32{
	// Denormal log2/ln near-midpoint cases surfaced by the full sweep.
	0x0020b48e, 0x0041691c, 0x0082d238, 0x0085d5f3, 0x0102d238, 0x0105d5f3,
	// Structural edges.
	0x00000000, 0x80000000, // ±0
	0x00000001, 0x007FFFFF, // denormal endpoints
	0x00800000, 0x00800001, // smallest normals
	0x3F800000, 0xBF800000, // ±1
	0x3F000000, 0x4B800000, // 0.5, 2^24
	0x7F7FFFFF, 0xFF7FFFFF, // ±MaxFloat32
	0x7F800000, 0xFF800000, // ±Inf
	0x42B17218, 0xC2CFF1B5, // exp overflow / underflow thresholds
	0x4B7FFFFF, 0xCB000001, // sinpi/cospi near the exact-integer cutover
}

// TestFilterSoundnessHardInputs runs the soundness property over the
// hard corpus for all ten functions.
func TestFilterSoundnessHardInputs(t *testing.T) {
	for _, name := range rlibm.Names() {
		for _, b := range hardBits {
			checkFilterSoundness(t, name, math.Float32frombits(b))
		}
	}
}

// TestFilterSoundnessSample runs the soundness property over the
// deterministic stratified sample shared with the accuracy harness.
func TestFilterSoundnessSample(t *testing.T) {
	if testing.Short() {
		t.Skip("oracle-heavy")
	}
	sample := checks.SampleFloat32(300)
	for _, name := range rlibm.Names() {
		for _, x := range sample {
			if fp.IsNaN32(x) {
				continue
			}
			checkFilterSoundness(t, name, x)
		}
	}
}

// FuzzGuardBandEscalation fuzzes the soundness property: for arbitrary
// input bits and any function, a filter-decided rounding must match the
// arbitrary-precision oracle. A counterexample here would mean the
// exhaustive sweep could silently accept a wrong result.
func FuzzGuardBandEscalation(f *testing.F) {
	names := rlibm.Names()
	for _, b := range hardBits {
		for i := range names {
			f.Add(b, uint8(i))
		}
	}
	f.Fuzz(func(t *testing.T, bits uint32, fi uint8) {
		x := math.Float32frombits(bits)
		if fp.IsNaN32(x) {
			return // NaN inputs never reach the filter
		}
		checkFilterSoundness(t, names[int(fi)%len(names)], x)
	})
}

// TestExp10RefAccuracy spot-checks the compensated exp10 reference
// against the float64 oracle: the error must stay well inside the
// guard band (a few ulps against a 256-ulp allowance).
func TestExp10RefAccuracy(t *testing.T) {
	for _, x := range []float64{
		-44.8534, -37.92978, -12.5, -1, -0x1p-30, 0, 0x1p-30,
		0.5, 1, 3.25, 17.125, 35.0625, 38.23080825805664,
	} {
		exp10Ref := ref64(t, "exp10")
		got := exp10Ref(x)
		want := oracle.Float64(checks.OracleFunc["exp10"], x)
		if want == 0 || math.IsInf(want, 0) {
			if got != want {
				t.Errorf("exp10Ref(%v) = %v, want %v", x, got, want)
			}
			continue
		}
		ulps := math.Abs(got-want) / fp.Ulp64(want)
		if ulps > 4 {
			t.Errorf("exp10Ref(%v) off by %.1f float64 ulps", x, ulps)
		}
	}
}

// TestSinpiCospiRefAccuracy checks the exact-reduction references near
// their hardest points: the zeros of the result, where a naive
// math.Sin(math.Pi*x) loses all relative accuracy.
func TestSinpiCospiRefAccuracy(t *testing.T) {
	inputs := []float64{
		float64(math.Float32frombits(0x4B7FFFFF)), // just below 2^24
		8388607.5, 8388607, 1048576.5,
		2.5, 1.5, 0.5, 0.25, 0.75,
		float64(fp.NextUp32(2.5)), float64(fp.NextDown32(0.5)),
		1e-30, -2.5, -0.5, -8388607.5,
	}
	for _, name := range []string{"sinpi", "cospi"} {
		ref := ref64(t, name)
		of := checks.OracleFunc[name]
		for _, x := range inputs {
			got := ref(x)
			want := oracle.Float64(of, x)
			if want == 0 {
				// ±0 compare equal under the harness convention, so only
				// the magnitude matters here.
				if math.Abs(got) > 0x1p-1000 {
					t.Errorf("%sRef(%v) = %g, want exact zero", name, x, got)
				}
				continue
			}
			ulps := math.Abs(got-want) / fp.Ulp64(want)
			if ulps > 4 {
				t.Errorf("%sRef(%v) off by %.1f float64 ulps (got %g want %g)", name, x, ulps, got, want)
			}
		}
	}
}
