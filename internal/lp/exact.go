package lp

import (
	"errors"
	"math/big"
)

// ErrIterationLimit is returned when simplex fails to terminate within
// the iteration budget (which, with Bland's rule, indicates a bug or a
// pathologically large problem rather than cycling).
var ErrIterationLimit = errors.New("lp: simplex iteration limit exceeded")

// errUnbounded reports an unbounded objective, which Solve interprets
// as infeasibility of the primal's hard constraints.
var errUnbounded = errors.New("lp: unbounded objective")

// errInfeasibleEq reports a phase-1 optimum > 0: the equality system has
// no nonnegative solution.
var errInfeasibleEq = errors.New("lp: infeasible equality system")

// itab is a fraction-free (integer-pivoting, Edmonds/Bareiss) simplex
// tableau: it stores q·(tableau value) as big.Int with a single
// common denominator q (the previous pivot element). A Gauss-Jordan
// pivot then needs one multiply, one fused multiply-subtract and one
// *exact* integer division per entry — and none of the GCD
// normalizations that dominate big.Rat pivoting. Because q > 0 is an
// invariant during simplex iterations, sign tests and Dantzig pricing
// compare stored integers directly, and ratio tests cross-multiply, so
// the pivot sequence is the one a big.Rat tableau would take.
type itab struct {
	m, n   int         // constraint rows, variable columns
	a      [][]big.Int // (m+1) x (n+1): constraint rows + objective row; last col = rhs
	q      big.Int     // common denominator (previous pivot); a[i][j]/q is the tableau value
	basis  []int       // basic variable per row
	block  []bool      // columns barred from entering (artificials in phase 2)
	pivots int         // pivot operations performed (telemetry)
}

func newItab(m, n int) *itab {
	t := &itab{m: m, n: n, block: make([]bool, n)}
	t.a = make([][]big.Int, m+1)
	for i := range t.a {
		t.a[i] = make([]big.Int, n+1)
	}
	t.basis = make([]int, m)
	t.q.SetInt64(1)
	return t
}

// pivot performs a fraction-free Gauss-Jordan pivot on (row, col):
// for i ≠ row, a[i][j] ← (a[i][j]·p − a[i][col]·a[row][j]) / q with
// p = a[row][col]; row `row` is left as is and q ← p. The division is
// exact (every stored entry is ± a subdeterminant of the initial
// integer matrix, by the Edmonds/Bareiss identity).
func (t *itab) pivot(row, col int) {
	t.pivots++
	p := new(big.Int).Set(&t.a[row][col])
	ar := t.a[row]
	qIsOne := t.q.CmpAbs(intOne) == 0
	qNeg := t.q.Sign() < 0
	var fc, t1, t2 big.Int
	for i := 0; i <= t.m; i++ {
		if i == row {
			continue
		}
		ai := t.a[i]
		fc.Set(&ai[col])
		fcZero := fc.Sign() == 0
		for j := 0; j <= t.n; j++ {
			arZero := ar[j].Sign() == 0
			if fcZero || arZero {
				if ai[j].Sign() == 0 {
					continue
				}
				t1.Mul(&ai[j], p)
			} else {
				t1.Mul(&ai[j], p)
				t2.Mul(&fc, &ar[j])
				t1.Sub(&t1, &t2)
			}
			if qIsOne {
				if qNeg {
					ai[j].Neg(&t1)
				} else {
					ai[j].Set(&t1)
				}
			} else {
				ai[j].Quo(&t1, &t.q)
			}
		}
	}
	t.q.Set(p)
	t.basis[row] = col
}

var intOne = big.NewInt(1)

// normalize restores the q > 0 invariant (a basis-installation pivot on
// a negative entry flips it) by negating every stored entry along with
// q; the represented tableau −a/−q is unchanged.
func (t *itab) normalize() {
	if t.q.Sign() >= 0 {
		return
	}
	t.q.Neg(&t.q)
	for i := range t.a {
		for j := range t.a[i] {
			t.a[i][j].Neg(&t.a[i][j])
		}
	}
}

// minimize runs simplex to optimality on the current objective row.
// It uses Dantzig pricing with a
// switch to Bland's rule after a budget, leaving row by minimum ratio
// with ties broken by smallest basis index. All comparisons are on
// represented values (pricing compares stored entries, which share the
// positive denominator q; ratios cross-multiply), so the pivot choices
// are those of exact rational simplex.
func (t *itab) minimize() error {
	const dantzigBudget = 2000
	const hardLimit = 20000
	var t1, t2 big.Int
	for iter := 0; ; iter++ {
		if iter > hardLimit {
			return ErrIterationLimit
		}
		bland := iter >= dantzigBudget
		col := -1
		var best *big.Int
		for j := 0; j < t.n; j++ {
			if t.block[j] {
				continue
			}
			rc := &t.a[t.m][j]
			if rc.Sign() < 0 {
				if bland {
					col = j
					break
				}
				if best == nil || rc.Cmp(best) < 0 {
					best = rc
					col = j
				}
			}
		}
		if col < 0 {
			return nil // optimal
		}
		row := -1
		for i := 0; i < t.m; i++ {
			if t.a[i][col].Sign() > 0 {
				if row < 0 {
					row = i
					continue
				}
				// b_i/a_ic vs b_row/a_rc with positive denominators:
				// compare b_i·a_rc against b_row·a_ic.
				t1.Mul(&t.a[i][t.n], &t.a[row][col])
				t2.Mul(&t.a[row][t.n], &t.a[i][col])
				switch c := t1.Cmp(&t2); {
				case c < 0, c == 0 && t.basis[i] < t.basis[row]:
					row = i
				}
			}
		}
		if row < 0 {
			return errUnbounded
		}
		t.pivot(row, col)
	}
}

// intSolution is the outcome of solveDyadic. The multipliers are kept
// as shared-denominator numerators (π_i = piNum_i / piDen) so callers
// can keep verifying in pure integer arithmetic.
type intSolution struct {
	obj    *big.Rat
	x      []*big.Rat
	piNum  []big.Int
	piDen  big.Int
	pivots int // pivot operations this solve performed
	// basis holds the optimal basis (one structural column index per
	// row) for warm-starting a subsequent solve, or nil if an artificial
	// remained basic.
	basis []int
}

// errWarmStart reports that a supplied warm basis could not be
// installed (singular or primal infeasible); the caller should re-solve
// cold.
var errWarmStart = errors.New("lp: warm basis rejected")

// solveDyadic solves min costᵀx s.t. Ax = b, x >= 0 where every entry
// is dyadic, using the fraction-free integer tableau. Each row is
// scaled by a power of two 2^{s_i} so its entries become integers; the
// artificial column for row i carries the entry 2^{s_i}, which makes
// the integer program an exact row-rescaling of the rational one —
// every represented tableau value, reduced cost and ratio agrees with
// the unscaled problem at every basis, so results are identical.
//
// If warm is non-nil it must list one structural column per row (an
// optimal basis from a related solve); the tableau is driven to that
// basis by Gauss-Jordan pivots and phase 2 re-entered from it directly,
// skipping phase 1. A singular or infeasible warm basis returns
// errWarmStart.
func solveDyadic(a [][]dyad, b []dyad, cost []dyad, warm []int) (*intSolution, error) {
	m := len(b)
	n := len(cost)
	t := newItab(m, n+m)
	flipped := make([]bool, m)
	shift := make([]uint, m) // s_i: row i was scaled by 2^{s_i}
	smax := uint(0)
	for i := 0; i < m; i++ {
		neg := b[i].sign() < 0
		flipped[i] = neg
		rowMin := 0 // artificial entry 2^{s_i}·1 needs rowMin <= 0
		if b[i].Exp < rowMin && b[i].sign() != 0 {
			rowMin = b[i].Exp
		}
		for j := 0; j < n; j++ {
			if a[i][j].sign() != 0 && a[i][j].Exp < rowMin {
				rowMin = a[i][j].Exp
			}
		}
		shift[i] = uint(-rowMin)
		if shift[i] > smax {
			smax = shift[i]
		}
		for j := 0; j < n; j++ {
			a[i][j].scaledInt(&t.a[i][j], rowMin)
			if neg {
				t.a[i][j].Neg(&t.a[i][j])
			}
		}
		b[i].scaledInt(&t.a[i][t.n], rowMin)
		if neg {
			t.a[i][t.n].Neg(&t.a[i][t.n])
		}
		// Artificial variable for this row (the original, unscaled
		// artificial: entry 1 scaled by 2^{s_i}).
		t.a[i][n+i].SetInt64(1)
		t.a[i][n+i].Lsh(&t.a[i][n+i], shift[i])
		t.basis[i] = n + i
	}

	if warm != nil {
		if err := t.installBasis(warm); err != nil {
			return nil, err
		}
	} else {
		// Phase 1: min Σ artificials (each with cost 1). The objective
		// row stores λ·q·rc with the constant multiplier λ = 2^{smax},
		// so rc_j = c_j − Σ_i a[i][j]/2^{s_i} becomes the integer
		// λ·c_j − Σ_i a[i][j]·2^{smax−s_i}.
		var lam big.Int
		lam.Lsh(intOne, smax)
		for j := 0; j <= t.n; j++ {
			s := &t.a[t.m][j]
			var tmp big.Int
			for i := 0; i < m; i++ {
				if t.a[i][j].Sign() != 0 {
					tmp.Lsh(&t.a[i][j], smax-shift[i])
					s.Add(s, &tmp)
				}
			}
			if j >= n && j < n+m {
				s.Sub(s, &lam)
			}
			s.Neg(s)
		}
		if err := t.minimize(); err != nil {
			return nil, err
		}
		if t.a[t.m][t.n].Sign() != 0 {
			return nil, errInfeasibleEq
		}
		// Drive remaining artificials out of the basis where possible.
		for i := 0; i < m; i++ {
			if t.basis[i] >= n {
				piv := -1
				for j := 0; j < n; j++ {
					if t.a[i][j].Sign() != 0 {
						piv = j
						break
					}
				}
				if piv >= 0 {
					t.pivot(i, piv)
				}
				// Otherwise the row is redundant; the artificial stays
				// basic at value zero and is blocked below.
			}
		}
		t.normalize()
	}

	// Block artificials and install the phase-2 objective row, stored
	// as λ₂·q·rc with λ₂ = 2^{sc} chosen to clear the cost exponents:
	// λ₂·q·rc_j = q·(λ₂ c_j) − Σ_i (λ₂ c_B(i))·a[i][j].
	for j := n; j < t.n; j++ {
		t.block[j] = true
	}
	costMin := 0
	for j := 0; j < n; j++ {
		if cost[j].sign() != 0 && cost[j].Exp < costMin {
			costMin = cost[j].Exp
		}
	}
	costInt := make([]big.Int, n)
	for j := 0; j < n; j++ {
		cost[j].scaledInt(&costInt[j], costMin)
	}
	var tmp big.Int
	for j := 0; j <= t.n; j++ {
		s := &t.a[t.m][j]
		s.SetInt64(0)
		if j < n {
			s.Mul(&t.q, &costInt[j])
		}
		for i := 0; i < m; i++ {
			bi := t.basis[i]
			if bi < n && costInt[bi].Sign() != 0 && t.a[i][j].Sign() != 0 {
				tmp.Mul(&costInt[bi], &t.a[i][j])
				s.Sub(s, &tmp)
			}
		}
	}
	if warm != nil {
		// A warm basis must be primal feasible to re-enter phase 2.
		for i := 0; i < m; i++ {
			if t.a[i][t.n].Sign() < 0 {
				return nil, errWarmStart
			}
		}
	}
	if err := t.minimize(); err != nil {
		return nil, err
	}
	// λ₂·q is the objective row's value denominator (q as of now, after
	// the phase-2 pivots).
	var lam2q big.Int
	lam2q.Lsh(&t.q, uint(-costMin))

	sol := &intSolution{obj: new(big.Rat), pivots: t.pivots}
	sol.x = make([]*big.Rat, n)
	for j := range sol.x {
		sol.x[j] = new(big.Rat)
	}
	var rtmp big.Rat
	sol.basis = make([]int, 0, m)
	for i := 0; i < m; i++ {
		bi := t.basis[i]
		if bi < n {
			sol.x[bi].SetFrac(&t.a[i][t.n], &t.q)
			if cost[bi].sign() != 0 {
				rtmp.Mul(cost[bi].rat(), sol.x[bi])
				sol.obj.Add(sol.obj, &rtmp)
			}
			sol.basis = append(sol.basis, bi)
		}
	}
	if len(sol.basis) != m {
		sol.basis = nil // an artificial stayed basic: not reusable
	}
	// Multipliers: π_i = −rc over the artificial column for row i
	// (phase-2 artificial cost is 0), negated again for flipped rows.
	sol.piNum = make([]big.Int, m)
	sol.piDen.Set(&lam2q)
	for i := 0; i < m; i++ {
		if !flipped[i] {
			sol.piNum[i].Neg(&t.a[t.m][n+i])
		} else {
			sol.piNum[i].Set(&t.a[t.m][n+i])
		}
	}
	return sol, nil
}

// installBasis drives the start tableau (all artificials basic) to the
// given structural basis by one Gauss-Jordan pivot per column. The
// pivots may land on negative entries — q's sign is repaired by
// normalize — and leave the tableau exactly representing the target
// basis, skipping phase 1 entirely.
func (t *itab) installBasis(warm []int) error {
	if len(warm) != t.m {
		return errWarmStart
	}
	n := t.n - t.m // structural columns
	taken := make([]bool, t.m)
	for _, c := range warm {
		if c < 0 || c >= n {
			return errWarmStart
		}
		row := -1
		for i := 0; i < t.m; i++ {
			if !taken[i] && t.a[i][c].Sign() != 0 {
				row = i
				break
			}
		}
		if row < 0 {
			return errWarmStart // singular basis
		}
		t.pivot(row, c)
		taken[row] = true
	}
	t.normalize()
	return nil
}
