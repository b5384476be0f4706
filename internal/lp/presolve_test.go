package lp

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// dint builds a dyad holding the integer v (exponent 0).
func dint(v int64) dyad {
	var d dyad
	d.Num.SetInt64(v)
	return d
}

// expFitProblem builds the benchmark-style fitting problem: a degree-4
// fit of exp on [0,1) with m constraints of relative width tol.
func expFitProblem(seed int64, m int, tol float64) *Problem {
	rng := rand.New(rand.NewSource(seed))
	p := &Problem{Terms: []int{0, 1, 2, 3, 4}}
	for i := 0; i < m; i++ {
		x := rng.Float64()
		y := math.Exp(x)
		p.Cons = append(p.Cons, Constraint{X: rat(x), Lo: rat(y * (1 - tol)), Hi: rat(y * (1 + tol))})
	}
	return p
}

// checkSameAnswer solves p with the full fast-path stack and with the
// exact engine alone, and requires the answers to agree exactly:
// same feasibility, identical optimal distance, and (when feasible)
// both coefficient vectors certified against every constraint. The
// optimal objective is unique even when the optimal vertex is not, so
// Dist is the right equality to pin.
func checkSameAnswer(t *testing.T, fast *Solver, p *Problem) (*Result, *Result) {
	t.Helper()
	exact := &Solver{NoPresolve: true, NoWarm: true}
	rf, err := fast.Solve(p)
	if err != nil {
		t.Fatalf("fast solve: %v", err)
	}
	re, err := exact.Solve(p)
	if err != nil {
		t.Fatalf("exact solve: %v", err)
	}
	if rf.Feasible != re.Feasible {
		t.Fatalf("feasibility mismatch: fast=%v exact=%v", rf.Feasible, re.Feasible)
	}
	if !rf.Feasible {
		return rf, re
	}
	if rf.Dist.Cmp(re.Dist) != 0 {
		t.Fatalf("optimal distance mismatch: fast=%v exact=%v", rf.Dist, re.Dist)
	}
	for _, res := range []*Result{rf, re} {
		for _, con := range p.Cons {
			v := EvalRat(res.Coeffs, p.Terms, con.X)
			if v.Cmp(con.Lo) < 0 || v.Cmp(con.Hi) > 0 {
				t.Fatalf("certificate violated at X=%v", con.X)
			}
		}
	}
	return rf, re
}

// TestPresolveMatchesExact pins the core certification property: with
// all fast paths on (float64 presolve, warm starts, dominance merging),
// Solve returns exactly what the exact engine alone returns, over a
// corpus of random feasible and infeasible problems.
func TestPresolveMatchesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := NewSolver()
	for trial := 0; trial < 25; trial++ {
		deg := 1 + rng.Intn(4)
		terms := make([]int, deg+1)
		truth := make([]float64, deg+1)
		for j := range terms {
			terms[j] = j
			truth[j] = rng.Float64()*4 - 2
		}
		p := &Problem{Terms: terms}
		npts := 5 + rng.Intn(30)
		for i := 0; i < npts; i++ {
			x := rng.Float64()*2 - 1
			y := 0.0
			for j, c := range truth {
				y += c * math.Pow(x, float64(j))
			}
			w := math.Abs(y)*1e-6 + 1e-9
			p.Cons = append(p.Cons, Constraint{X: rat(x), Lo: rat(y - w), Hi: rat(y + w)})
		}
		checkSameAnswer(t, s, p)
	}
	if got := s.Stats.PresolveAccepted + s.Stats.PresolveRejected; got != s.Stats.Solves {
		t.Errorf("every solve must attempt presolve: accepted+rejected=%d, solves=%d", got, s.Stats.Solves)
	}
}

// TestPresolveAcceptedOnFit requires the float64 presolve to actually
// carry its weight on the benchmark-style fitting instances (feasible
// and infeasible), and the accepted answers to match the exact engine.
func TestPresolveAcceptedOnFit(t *testing.T) {
	for _, tol := range []float64{1e-4, 1e-6, 1e-8} {
		s := NewSolver()
		p := expFitProblem(1, 100, tol)
		checkSameAnswer(t, s, p)
		if s.Stats.PresolveAccepted == 0 {
			t.Errorf("tol=%g: presolve not accepted (stats %+v)", tol, s.Stats)
		}
	}
}

// TestPresolveForcedFallback drives the presolve into guaranteed
// failure — monomial powers below the float64 underflow threshold, so
// the hardware tableau rows vanish — and requires the fallback exact
// path to still produce the right certified answer.
func TestPresolveForcedFallback(t *testing.T) {
	// x ~ 1e-200 makes x^2 ~ 1e-400, which is 0 in float64 but an exact
	// dyad. The quadratic term row is all zeros for the float tableau.
	p := &Problem{Terms: []int{0, 1, 2}}
	for i, x := range []float64{1e-200, 2e-200, 3e-200} {
		y := 1 + float64(i)
		p.Cons = append(p.Cons, Constraint{X: rat(x), Lo: rat(y - 0.25), Hi: rat(y + 0.25)})
	}
	s := NewSolver()
	checkSameAnswer(t, s, p)
	if s.Stats.PresolveRejected == 0 {
		t.Errorf("underflowed problem must fall back to exact: stats %+v", s.Stats)
	}
	if s.Stats.PresolveAccepted != 0 {
		t.Errorf("underflowed problem must not be certified by presolve: stats %+v", s.Stats)
	}
}

// TestVerifyBasis exercises the exact certification gate directly on
// the textbook LP (min −x1−2x2, x1+x2+s1=4, x1+3x2+s2=6): the optimal
// basis must certify with the known multipliers, while feasible-but-
// suboptimal and infeasible bases must be rejected.
func TestVerifyBasis(t *testing.T) {
	a := [][]dyad{
		{dint(1), dint(1), dint(1), dint(0)},
		{dint(1), dint(3), dint(0), dint(1)},
	}
	b := []dyad{dint(4), dint(6)}
	cost := []dyad{dint(-1), dint(-2), dint(0), dint(0)}

	// Optimal basis {x1, x2}: x = (3, 1), π = (−1/2, −1/2).
	res, bad := verifyBasis(a, b, cost, []int{0, 1})
	if res == nil {
		t.Fatalf("optimal basis rejected (badCol=%d)", bad)
	}
	den := new(big.Rat).SetInt(&res.piDen)
	for i, want := range []*big.Rat{big.NewRat(-1, 2), big.NewRat(-1, 2)} {
		pi := res.piNum[i].rat()
		pi.Quo(pi, den)
		if pi.Cmp(want) != 0 {
			t.Errorf("π[%d] = %v, want %v", i, pi, want)
		}
	}

	// Slack basis {s1, s2}: primal feasible (x_B = b >= 0) but not
	// optimal — the certification must refuse it and name an improving
	// column.
	res, bad = verifyBasis(a, b, cost, []int{2, 3})
	if res != nil {
		t.Fatal("suboptimal basis certified")
	}
	if bad != 0 && bad != 1 {
		t.Errorf("suboptimal basis should name an improving structural column, got %d", bad)
	}

	// Basis {x1, s1}: x1 = 6 forces s1 = −2 < 0, primal infeasible.
	if res, _ = verifyBasis(a, b, cost, []int{0, 2}); res != nil {
		t.Fatal("primal-infeasible basis certified")
	}

	// Singular basis (duplicate column).
	if res, _ = verifyBasis(a, b, cost, []int{0, 0}); res != nil {
		t.Fatal("singular basis certified")
	}
}

// TestWarmStartAcrossRefinement mimics the CEGIS loop: solve, tighten a
// constraint, solve again on the same Solver. The second solve must use
// a warm or presolve path and still agree exactly with a cold exact
// solve of the tightened problem.
func TestWarmStartAcrossRefinement(t *testing.T) {
	s := NewSolver()
	p := expFitProblem(3, 60, 1e-4)
	if r, _ := checkSameAnswer(t, s, p); !r.Feasible {
		t.Fatal("initial fit should be feasible")
	}
	// Tighten every interval toward its midpoint, as a counterexample
	// round does.
	for i := range p.Cons {
		mid := new(big.Rat).Add(p.Cons[i].Lo, p.Cons[i].Hi)
		mid.Quo(mid, big.NewRat(2, 1))
		w := new(big.Rat).Sub(p.Cons[i].Hi, p.Cons[i].Lo)
		w.Quo(w, big.NewRat(8, 1))
		p.Cons[i].Lo = new(big.Rat).Sub(mid, w)
		p.Cons[i].Hi = new(big.Rat).Add(mid, w)
	}
	checkSameAnswer(t, s, p)
	if s.Stats.PresolveAccepted+s.Stats.WarmSolves == 0 {
		t.Errorf("refinement resolve used no fast path: stats %+v", s.Stats)
	}
}

// BenchmarkSolveEngines compares the layered fast paths against the
// exact engine alone on the same 100-constraint instance
// BenchmarkSolve100Constraints uses.
func BenchmarkSolveEngines(b *testing.B) {
	p := expFitProblem(1, 100, 1e-8)
	b.Run("full", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := NewSolver()
			if _, err := s.Solve(p); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := &Solver{NoPresolve: true, NoWarm: true}
			if _, err := s.Solve(p); err != nil {
				b.Fatal(err)
			}
		}
	})
}
