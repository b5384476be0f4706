package checks

import (
	"math"
	"testing"
)

func TestSampleFloat32Properties(t *testing.T) {
	xs := SampleFloat32(50000)
	if len(xs) < 50000 {
		t.Fatalf("sample too small: %d", len(xs))
	}
	// Dedup by bit pattern: -0 and +0 are distinct inputs (the ordinal
	// mapping keeps them one rank apart) but compare equal as floats.
	seenBits := map[uint32]struct{}{}
	seen := map[float32]struct{}{}
	negatives, positives := 0, 0
	for _, x := range xs {
		if x != x {
			t.Fatal("NaN in sample")
		}
		if _, dup := seenBits[math.Float32bits(x)]; dup {
			t.Fatalf("duplicate %v (bits %#08x)", x, math.Float32bits(x))
		}
		seenBits[math.Float32bits(x)] = struct{}{}
		seen[x] = struct{}{}
		if x < 0 {
			negatives++
		} else {
			positives++
		}
	}
	// Representation-proportional: both signs well represented.
	if negatives < len(xs)/3 || positives < len(xs)/3 {
		t.Errorf("sign imbalance: %d negative, %d positive", negatives, positives)
	}
	// Boundary windows: all neighbours of 1.0 present.
	one := float32(1)
	for i := 0; i < 8; i++ {
		if _, ok := seen[one]; !ok {
			t.Errorf("missing boundary window value %v", one)
		}
		one = math.Nextafter32(one, 2)
	}
	// Subnormals and huge values present.
	var hasSub, hasHuge bool
	for x := range seen {
		ax := x
		if ax < 0 {
			ax = -ax
		}
		if ax > 0 && ax < 0x1p-126 {
			hasSub = true
		}
		if ax > 0x1p100 {
			hasHuge = true
		}
	}
	if !hasSub || !hasHuge {
		t.Error("sample must span subnormals and huge values")
	}
}

func TestSamplePosit32Properties(t *testing.T) {
	ps := SamplePosit32(50000)
	if len(ps) < 40000 {
		t.Fatalf("sample too small: %d", len(ps))
	}
	for _, p := range ps {
		if p.IsNaR() {
			t.Fatal("NaR in sample")
		}
	}
}
