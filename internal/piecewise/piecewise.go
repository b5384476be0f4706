// Package piecewise implements the paper's bit-pattern based domain
// splitting (Algorithm 3, SplitDomain) and the runtime representation
// of piecewise polynomials.
//
// All reduced inputs in a (sign-homogeneous) reduced domain share a
// common prefix of their float64 bit patterns; the next n bits identify
// one of 2^n sub-domains, so the runtime finds its polynomial with a
// shift and a mask. Coefficient tables are flat float64 slices indexed
// by sub-domain.
package piecewise

import (
	"fmt"
	"math"
	"math/bits"
	"strings"
)

// Kind classifies the monomial structure of a polynomial so Eval can
// use the cheapest Horner scheme.
type Kind uint8

// Polynomial structure kinds.
const (
	// Dense: terms 0..d.
	Dense Kind = iota
	// Odd: terms 1,3,5,...: evaluated as x*Q(x²).
	Odd
	// Even: terms 0,2,4,...: evaluated as Q(x²).
	Even
	// NoConst: terms 1..d: evaluated as x*Q(x).
	NoConst
	// Sparse: arbitrary exponents (slow generic path).
	Sparse
)

// String names the kind ("Dense", "Odd", "Even", "NoConst", "Sparse").
func (k Kind) String() string {
	switch k {
	case Dense:
		return "Dense"
	case Odd:
		return "Odd"
	case Even:
		return "Even"
	case NoConst:
		return "NoConst"
	case Sparse:
		return "Sparse"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// KindOf classifies a monomial exponent list.
func KindOf(terms []int) Kind {
	dense, odd, even, noconst := true, true, true, true
	for i, e := range terms {
		if e != i {
			dense = false
		}
		if e != 2*i+1 {
			odd = false
		}
		if e != 2*i {
			even = false
		}
		if e != i+1 {
			noconst = false
		}
	}
	switch {
	case dense:
		return Dense
	case odd:
		return Odd
	case even:
		return Even
	case noconst:
		return NoConst
	}
	return Sparse
}

// EvalPoly evaluates the polynomial with the given terms and
// coefficients at x, in double precision, using the SAME operation
// sequence as Table.Eval. The generator validates candidate
// polynomials through this function, so the numerical error it commits
// is exactly the error the shipped library commits.
func EvalPoly(kind Kind, terms []int, coeffs []float64, x float64) float64 {
	// Products are written float64(a*b) so no compiler fuses a Horner
	// step into one multiply-add (see QuadExact).
	switch kind {
	case Dense:
		// Unrolled fast paths preserve the exact Horner operation order
		// of the generic loop, so results are bit-identical.
		switch len(coeffs) {
		case 5:
			return Dense5Exact(coeffs[0], coeffs[1], coeffs[2], coeffs[3], coeffs[4], x)
		case 4:
			p := float64(coeffs[3]*x) + coeffs[2]
			p = float64(p*x) + coeffs[1]
			return float64(p*x) + coeffs[0]
		}
		acc := coeffs[len(coeffs)-1]
		for i := len(coeffs) - 2; i >= 0; i-- {
			acc = float64(acc*x) + coeffs[i]
		}
		return acc
	case Odd:
		x2 := x * x
		if len(coeffs) == 3 {
			return QuadExact(coeffs[0], coeffs[1], coeffs[2], x2) * x
		}
		acc := coeffs[len(coeffs)-1]
		for i := len(coeffs) - 2; i >= 0; i-- {
			acc = float64(acc*x2) + coeffs[i]
		}
		return acc * x
	case Even:
		x2 := x * x
		if len(coeffs) == 3 {
			return QuadExact(coeffs[0], coeffs[1], coeffs[2], x2)
		}
		acc := coeffs[len(coeffs)-1]
		for i := len(coeffs) - 2; i >= 0; i-- {
			acc = float64(acc*x2) + coeffs[i]
		}
		return acc
	case NoConst:
		if len(coeffs) == 3 {
			return QuadExact(coeffs[0], coeffs[1], coeffs[2], x) * x
		}
		acc := coeffs[len(coeffs)-1]
		for i := len(coeffs) - 2; i >= 0; i-- {
			acc = float64(acc*x) + coeffs[i]
		}
		return acc * x
	}
	// Sparse: explicit powers.
	v := 0.0
	for i, e := range terms {
		v += float64(coeffs[i] * math.Pow(x, float64(e)))
	}
	return v
}

// Table is a piecewise polynomial over one sign-homogeneous reduced
// domain, keyed by the bit pattern of the reduced input's magnitude.
type Table struct {
	// Terms are the shared monomial exponents; Kind caches KindOf(Terms).
	Terms []int
	Kind  Kind
	// N is the number of index bits: the table has 2^N sub-domains.
	N uint
	// Shift is 64 − prefixLen − N: index = (magBits >> Shift) & mask.
	Shift uint
	// MinBits and MaxBits bound the magnitude bit patterns seen during
	// generation; runtime inputs outside are clamped to the edge
	// sub-domains.
	MinBits, MaxBits uint64
	// Coeffs is 2^N rows of len(Terms) coefficients, flattened.
	Coeffs []float64
}

// Index returns the sub-domain index for a reduced input r (the sign
// of r is ignored: tables are per-sign).
func (t *Table) Index(r float64) int {
	b := math.Float64bits(r) &^ (1 << 63)
	// Clamp runtime inputs outside the generated range to the edge
	// values (whose prefix is known), then key on the n bits after the
	// common prefix.
	if b < t.MinBits {
		b = t.MinBits
	} else if b > t.MaxBits {
		b = t.MaxBits
	}
	return int((b >> t.Shift) & ((1 << t.N) - 1))
}

// Eval evaluates the piecewise polynomial at r.
func (t *Table) Eval(r float64) float64 {
	idx := t.Index(r)
	row := t.Coeffs[idx*len(t.Terms) : (idx+1)*len(t.Terms)]
	return EvalPoly(t.Kind, t.Terms, row, r)
}

// Degree returns the maximum monomial exponent.
func (t *Table) Degree() int {
	d := 0
	for _, e := range t.Terms {
		if e > d {
			d = e
		}
	}
	return d
}

// NumPolynomials returns the number of sub-domains (2^N).
func (t *Table) NumPolynomials() int { return 1 << t.N }

// Split groups sorted magnitude bit patterns into 2^n sub-domains per
// the paper: it finds the common leading bits of the smallest and
// largest magnitudes and keys on the next n bits. It returns the group
// index for each input and the Shift/Min/Max parameters. Zero
// magnitudes (r == 0) are assigned to group 0, matching the paper's
// treatment of R = 0 as outside the prefix computation.
func Split(magBits []uint64, n uint) (groups []int, shift uint, minBits, maxBits uint64, err error) {
	var mn, mx uint64 = math.MaxUint64, 0
	for _, b := range magBits {
		if b == 0 {
			continue
		}
		if b < mn {
			mn = b
		}
		if b > mx {
			mx = b
		}
	}
	if mx == 0 {
		return nil, 0, 0, 0, fmt.Errorf("piecewise: no nonzero reduced inputs")
	}
	prefix := uint(bits.LeadingZeros64(mn ^ mx))
	if mn == mx {
		prefix = 64 - n // a single value: any split degenerates to group 0
	}
	if prefix+n > 64 {
		n = 64 - prefix
	}
	shift = 64 - prefix - n
	groups = make([]int, len(magBits))
	for i, b := range magBits {
		if b < mn {
			b = mn // r == 0 joins the group of the smallest input
		}
		groups[i] = int((b >> shift) & ((1 << n) - 1))
	}
	return groups, shift, mn, mx, nil
}

// String renders a compact summary for logs and Table 3.
func (t *Table) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "piecewise{2^%d polys, terms %v}", t.N, t.Terms)
	return sb.String()
}
