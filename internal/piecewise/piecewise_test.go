package piecewise

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestKindOf(t *testing.T) {
	cases := []struct {
		terms []int
		want  Kind
	}{
		{[]int{0, 1, 2, 3}, Dense},
		{[]int{1, 3, 5}, Odd},
		{[]int{0, 2, 4}, Even},
		{[]int{0, 1, 3}, Sparse},
		{[]int{0}, Dense},
		{[]int{1}, Odd},
	}
	for _, c := range cases {
		if got := KindOf(c.terms); got != c.want {
			t.Errorf("KindOf(%v) = %v, want %v", c.terms, got, c.want)
		}
	}
}

func TestEvalPolyKinds(t *testing.T) {
	x := 0.75
	// Dense 1 + 2x + 3x²
	if got := EvalPoly(Dense, []int{0, 1, 2}, []float64{1, 2, 3}, x); got != 1+2*x+3*x*x {
		t.Errorf("dense eval = %v", got)
	}
	// Odd 2x + 5x³: x*(2 + 5x²)
	if got := EvalPoly(Odd, []int{1, 3}, []float64{2, 5}, x); got != x*(2+5*(x*x)) {
		t.Errorf("odd eval = %v", got)
	}
	// Even 7 + 4x²
	if got := EvalPoly(Even, []int{0, 2}, []float64{7, 4}, x); got != 7+4*(x*x) {
		t.Errorf("even eval = %v", got)
	}
	// Sparse must agree with direct powers.
	got := EvalPoly(Sparse, []int{0, 3}, []float64{1, 2}, x)
	if math.Abs(got-(1+2*x*x*x)) > 1e-15 {
		t.Errorf("sparse eval = %v", got)
	}
	// Odd polynomial is exactly zero at zero.
	if EvalPoly(Odd, []int{1, 3, 5}, []float64{3, -2, 1}, 0) != 0 {
		t.Error("odd polynomial at 0 must be exactly 0")
	}
}

func TestSplitPartition(t *testing.T) {
	// Random positive doubles in a narrow range, as range reduction
	// produces: every input must land in a group; group boundaries must
	// respect ordering.
	rng := rand.New(rand.NewSource(1))
	var vals []float64
	for i := 0; i < 5000; i++ {
		vals = append(vals, math.Ldexp(1+rng.Float64(), -9-rng.Intn(3)))
	}
	sort.Float64s(vals)
	bits := make([]uint64, len(vals))
	for i, v := range vals {
		bits[i] = math.Float64bits(v)
	}
	for _, n := range []uint{0, 1, 3, 5} {
		groups, shift, mn, mx, err := Split(bits, n)
		if err != nil {
			t.Fatal(err)
		}
		if mn != bits[0] || mx != bits[len(bits)-1] {
			t.Fatalf("min/max bits wrong")
		}
		prev := 0
		for i, g := range groups {
			if g < 0 || g >= 1<<n {
				t.Fatalf("group %d out of range for n=%d", g, n)
			}
			if g < prev {
				t.Fatalf("groups not monotone over sorted inputs at %d (n=%d)", i, n)
			}
			prev = g
		}
		// The runtime Index must agree with the generation-time groups.
		tbl := &Table{Terms: []int{0}, Kind: Dense, N: n, Shift: shift, MinBits: mn, MaxBits: mx, Coeffs: make([]float64, 1<<n)}
		for i, v := range vals {
			if tbl.Index(v) != groups[i] {
				t.Fatalf("Index(%v)=%d disagrees with Split group %d", v, tbl.Index(v), groups[i])
			}
		}
	}
}

func TestSplitZeroJoinsFirstGroup(t *testing.T) {
	vals := []float64{0, 0x1p-20, 0x1p-20 * 1.5, 0x1p-19}
	bits := make([]uint64, len(vals))
	for i, v := range vals {
		bits[i] = math.Float64bits(v)
	}
	groups, _, mn, _, err := Split(bits, 2)
	if err != nil {
		t.Fatal(err)
	}
	if mn != bits[1] {
		t.Error("zero must be excluded from the prefix computation")
	}
	if groups[0] != groups[1] {
		t.Error("zero must join the group of the smallest nonzero input")
	}
}

func TestIndexClamping(t *testing.T) {
	vals := []float64{0x1p-10, 0x1p-10 * 1.25, 0x1p-10 * 1.75, 0x1p-9 * 0.999}
	bits := make([]uint64, len(vals))
	for i, v := range vals {
		bits[i] = math.Float64bits(v)
	}
	groups, shift, mn, mx, err := Split(bits, 2)
	if err != nil {
		t.Fatal(err)
	}
	tbl := &Table{Terms: []int{0}, Kind: Dense, N: 2, Shift: shift, MinBits: mn, MaxBits: mx, Coeffs: make([]float64, 4)}
	// Below range -> same group as the minimum; above -> as the maximum.
	if tbl.Index(0x1p-30) != groups[0] {
		t.Error("below-range input should clamp to the minimum's group")
	}
	if tbl.Index(1.0) != groups[len(groups)-1] {
		t.Error("above-range input should clamp to the maximum's group")
	}
	// Negative inputs index by magnitude.
	if tbl.Index(-vals[1]) != groups[1] {
		t.Error("negative input should index by magnitude")
	}
}

func TestTableEval(t *testing.T) {
	// Two sub-domains with different constants.
	vals := []float64{0x1p-10 * 1.1, 0x1p-10 * 1.9}
	bits := []uint64{math.Float64bits(vals[0]), math.Float64bits(vals[1])}
	groups, shift, mn, mx, err := Split(bits, 1)
	if err != nil {
		t.Fatal(err)
	}
	if groups[0] == groups[1] {
		t.Skip("values landed in one group")
	}
	tbl := &Table{Terms: []int{0}, Kind: Dense, N: 1, Shift: shift, MinBits: mn, MaxBits: mx, Coeffs: []float64{10, 20}}
	if tbl.Eval(vals[0]) != 10 || tbl.Eval(vals[1]) != 20 {
		t.Errorf("Eval routed to wrong polynomial: %v %v", tbl.Eval(vals[0]), tbl.Eval(vals[1]))
	}
	if tbl.Degree() != 0 || tbl.NumPolynomials() != 2 {
		t.Error("Degree/NumPolynomials wrong")
	}
}

func TestSplitAllZeroFails(t *testing.T) {
	if _, _, _, _, err := Split([]uint64{0, 0}, 3); err == nil {
		t.Error("all-zero reduced inputs must be rejected")
	}
}

// TestExactCoresMatchEvalPoly pins the batch kernels' polynomial cores
// to the validated sequence: for every shape the kernels evaluate,
// QuadExact/Dense5Exact composed the way the kernels compose them must
// equal EvalPoly bit for bit.
func TestExactCoresMatchEvalPoly(t *testing.T) {
	q := []float64{0.125, -0.875, 0.3331}
	d5 := []float64{1, 0.5, 0.1666, 0.0417, 0.0083}
	for i := 1; i < 1000; i++ {
		x := float64(i) / 997
		x2 := x * x
		cases := []struct {
			name      string
			got, want float64
		}{
			{"noconst-3", QuadExact(q[0], q[1], q[2], x) * x, EvalPoly(NoConst, []int{1, 2, 3}, q, x)},
			{"odd-3", QuadExact(q[0], q[1], q[2], x2) * x, EvalPoly(Odd, []int{1, 3, 5}, q, x)},
			{"even-3", QuadExact(q[0], q[1], q[2], x2), EvalPoly(Even, []int{0, 2, 4}, q, x)},
			{"dense-5", Dense5Exact(d5[0], d5[1], d5[2], d5[3], d5[4], x), EvalPoly(Dense, []int{0, 1, 2, 3, 4}, d5, x)},
		}
		for _, c := range cases {
			if math.Float64bits(c.got) != math.Float64bits(c.want) {
				t.Fatalf("%s at %v: core %x, EvalPoly %x", c.name, x, math.Float64bits(c.got), math.Float64bits(c.want))
			}
		}
	}
}
