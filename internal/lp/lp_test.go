package lp

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

func rat(x float64) *big.Rat { return RatFromFloat(x) }

// solveStandard runs solveDyadic on min costᵀx s.t. Ax = b, x >= 0
// given in big.Rat form, returning the objective, the primal solution
// and the simplex multipliers π.
func solveStandard(a [][]*big.Rat, b, cost []*big.Rat) (obj *big.Rat, x, pi []*big.Rat, err error) {
	dyads := func(rs []*big.Rat) []dyad {
		ds := make([]dyad, len(rs))
		for i, r := range rs {
			if !ds[i].setRat(r) {
				panic("lp: test problem is not dyadic")
			}
		}
		return ds
	}
	ad := make([][]dyad, len(a))
	for i, row := range a {
		ad[i] = dyads(row)
	}
	sol, err := solveDyadic(ad, dyads(b), dyads(cost), nil)
	if err != nil {
		return nil, nil, nil, err
	}
	for i := range sol.piNum {
		pi = append(pi, new(big.Rat).SetFrac(&sol.piNum[i], &sol.piDen))
	}
	return sol.obj, sol.x, pi, nil
}

func TestSolveStandardKnown(t *testing.T) {
	// min -x1 - 2x2  s.t.  x1 + x2 + s1 = 4; x1 + 3x2 + s2 = 6; x >= 0.
	// Optimum at x1=3, x2=1: objective -5.
	a := [][]*big.Rat{
		{rat(1), rat(1), rat(1), rat(0)},
		{rat(1), rat(3), rat(0), rat(1)},
	}
	b := []*big.Rat{rat(4), rat(6)}
	cost := []*big.Rat{rat(-1), rat(-2), rat(0), rat(0)}
	obj, x, pi, err := solveStandard(a, b, cost)
	if err != nil {
		t.Fatal(err)
	}
	if obj.Cmp(rat(-5)) != 0 {
		t.Errorf("objective = %v, want -5", obj)
	}
	if x[0].Cmp(rat(3)) != 0 || x[1].Cmp(rat(1)) != 0 {
		t.Errorf("solution = %v,%v, want 3,1", x[0], x[1])
	}
	// Duality check: πᵀb == obj for equality-form LP at optimality.
	s := new(big.Rat)
	var tmp big.Rat
	for i := range pi {
		tmp.Mul(pi[i], b[i])
		s.Add(s, &tmp)
	}
	if s.Cmp(obj) != 0 {
		t.Errorf("strong duality violated: πᵀb=%v obj=%v", s, obj)
	}
}

func TestSolveStandardNegativeRHS(t *testing.T) {
	// Same LP with the first row negated (tests sign flipping and
	// multiplier un-flipping): -x1 - x2 - s1 = -4.
	a := [][]*big.Rat{
		{rat(-1), rat(-1), rat(-1), rat(0)},
		{rat(1), rat(3), rat(0), rat(1)},
	}
	b := []*big.Rat{rat(-4), rat(6)}
	cost := []*big.Rat{rat(-1), rat(-2), rat(0), rat(0)}
	obj, x, pi, err := solveStandard(a, b, cost)
	if err != nil {
		t.Fatal(err)
	}
	if obj.Cmp(rat(-5)) != 0 || x[0].Cmp(rat(3)) != 0 {
		t.Errorf("obj=%v x=%v", obj, x)
	}
	s := new(big.Rat)
	var tmp big.Rat
	for i := range pi {
		tmp.Mul(pi[i], b[i])
		s.Add(s, &tmp)
	}
	if s.Cmp(obj) != 0 {
		t.Errorf("duality with flipped row: πᵀb=%v obj=%v", s, obj)
	}
}

func TestSolveStandardInfeasible(t *testing.T) {
	// x1 = 1 and x1 = 2 simultaneously.
	a := [][]*big.Rat{{rat(1)}, {rat(1)}}
	b := []*big.Rat{rat(1), rat(2)}
	cost := []*big.Rat{rat(0)}
	if _, _, _, err := solveStandard(a, b, cost); err == nil {
		t.Fatal("expected infeasibility error")
	}
}

func TestPolyFitLine(t *testing.T) {
	// Two points, tight intervals around y = 2x + 1.
	p := &Problem{
		Terms: []int{0, 1},
		Cons: []Constraint{
			{X: rat(0), Lo: rat(0.9), Hi: rat(1.1)},
			{X: rat(1), Lo: rat(2.9), Hi: rat(3.1)},
		},
	}
	res, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatal("line fit should be feasible")
	}
	// A line can pass through both preferred values (defaulting to the
	// interval midpoints) exactly, so the achieved distance is 0.
	if d, _ := res.Dist.Float64(); math.Abs(d) > 1e-12 {
		t.Errorf("distance = %v, want 0 (line through both midpoints)", res.Dist)
	}
	c := CoeffsToFloat(res.Coeffs)
	if math.Abs(c[0]-1) > 1e-12 || math.Abs(c[1]-2) > 1e-12 {
		t.Errorf("coefficients = %v, want ~(1,2)", c)
	}
}

func TestPolyFitInfeasibleDegree(t *testing.T) {
	// Three points on a strict parabola cannot be fit by a line with
	// tiny intervals.
	tiny := 1e-9
	pts := []struct{ x, y float64 }{{0, 0}, {1, 1}, {2, 4}}
	p := &Problem{Terms: []int{0, 1}}
	for _, q := range pts {
		p.Cons = append(p.Cons, Constraint{X: rat(q.x), Lo: rat(q.y - tiny), Hi: rat(q.y + tiny)})
	}
	res, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Feasible {
		t.Fatal("line through strict parabola should be infeasible")
	}
	// A quadratic fits exactly.
	p.Terms = []int{0, 1, 2}
	res, err = Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatal("quadratic should be feasible")
	}
}

func TestPolyFitParity(t *testing.T) {
	// Fit sin-like data with an odd polynomial c1 x + c3 x^3.
	p := &Problem{Terms: []int{1, 3}}
	for _, x := range []float64{-0.3, -0.1, 0.1, 0.2, 0.3} {
		y := math.Sin(x)
		p.Cons = append(p.Cons, Constraint{X: rat(x), Lo: rat(y - 1e-4), Hi: rat(y + 1e-4)})
	}
	res, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatal("odd cubic should fit sin on small domain")
	}
	c := CoeffsToFloat(res.Coeffs)
	if math.Abs(c[0]-1) > 1e-2 {
		t.Errorf("leading coefficient %v should be near 1", c[0])
	}
}

func TestPolyFitRandomCertified(t *testing.T) {
	// Random feasible problems built from a known polynomial: Solve
	// must find a certified solution; the Solve-internal exact re-check
	// plus this external check make the certificate trustworthy.
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 30; trial++ {
		deg := 1 + rng.Intn(4)
		terms := make([]int, deg+1)
		truth := make([]float64, deg+1)
		for j := range terms {
			terms[j] = j
			truth[j] = rng.Float64()*4 - 2
		}
		p := &Problem{Terms: terms}
		npts := 5 + rng.Intn(40)
		for i := 0; i < npts; i++ {
			x := rng.Float64()*2 - 1
			y := 0.0
			for j, c := range truth {
				y += c * math.Pow(x, float64(j))
			}
			w := math.Abs(y)*1e-6 + 1e-9
			p.Cons = append(p.Cons, Constraint{X: rat(x), Lo: rat(y - w), Hi: rat(y + w)})
		}
		res, err := Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Feasible {
			t.Fatalf("trial %d: problem built from a degree-%d truth should be feasible", trial, deg)
		}
		for _, con := range p.Cons {
			v := EvalRat(res.Coeffs, p.Terms, con.X)
			if v.Cmp(con.Lo) < 0 || v.Cmp(con.Hi) > 0 {
				t.Fatalf("trial %d: certificate violated", trial)
			}
		}
	}
}

func TestPolyFitDuplicatedPointConflict(t *testing.T) {
	// Same x with disjoint intervals: infeasible for any polynomial.
	p := &Problem{
		Terms: []int{0, 1, 2},
		Cons: []Constraint{
			{X: rat(0.5), Lo: rat(1), Hi: rat(2)},
			{X: rat(0.5), Lo: rat(3), Hi: rat(4)},
		},
	}
	res, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Feasible {
		t.Fatal("conflicting intervals at one point must be infeasible")
	}
}

func TestRatPow(t *testing.T) {
	x := big.NewRat(3, 2)
	if ratPow(x, 0).Cmp(big.NewRat(1, 1)) != 0 {
		t.Error("x^0 != 1")
	}
	if ratPow(x, 3).Cmp(big.NewRat(27, 8)) != 0 {
		t.Error("(3/2)^3 != 27/8")
	}
}

func TestEvalRat(t *testing.T) {
	// 1 + 2x + 3x^2 at 1/2 = 1 + 1 + 3/4 = 11/4.
	c := []*big.Rat{big.NewRat(1, 1), big.NewRat(2, 1), big.NewRat(3, 1)}
	v := EvalRat(c, []int{0, 1, 2}, big.NewRat(1, 2))
	if v.Cmp(big.NewRat(11, 4)) != 0 {
		t.Errorf("EvalRat = %v, want 11/4", v)
	}
}

func BenchmarkSolve100Constraints(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	p := &Problem{Terms: []int{0, 1, 2, 3, 4}}
	for i := 0; i < 100; i++ {
		x := rng.Float64()
		y := math.Exp(x)
		p.Cons = append(p.Cons, Constraint{X: rat(x), Lo: rat(y * (1 - 1e-8)), Hi: rat(y * (1 + 1e-8))})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Solve(p); err != nil {
			b.Fatal(err)
		}
	}
}
