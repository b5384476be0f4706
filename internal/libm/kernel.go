// Fused batch kernels: the hardware-limit hot path behind EvalSlice
// and the XxxSlice entry points.
//
// The kernels run the whole runtime recipe — range reduction,
// branchless sub-domain select, polynomial, output compensation, final
// rounding — in one fully inlined pass per element, with every table
// parameter hoisted and every data-dependent select done by bit
// arithmetic (sign-bit row indexing, min/max clamps, mask-blend folds)
// instead of compare-chains. Every shipped table has a kernel:
// KernelShape defines which table shapes are covered, rlibmgen refuses
// to emit any other, and fusedSlice panics if one ever ships.
//
// Loop structure, chosen by measurement (kernel_shape_test.go keeps
// the evidence). Four shapes were built and rejected first:
//   - lane closures called from the loop: a call through a closure
//     variable is never inlined; the indirect call alone profiled at
//     9% and the caller spills every hoisted parameter around it;
//   - top-level lane functions called directly: not inlined either
//     (cost 117–283 vs. the compiler's budget of 80), and Go's ABI
//     has no callee-saved registers, so each call reloads the whole
//     parameter set — slower than the closures;
//   - 4-wide manually unrolled lane blocks (parallel assignments or
//     sequential blocks): inline fine, but lose ~2x to the plain loop
//     — the wide body's register pressure causes spills, while the
//     out-of-order core already overlaps consecutive iterations of
//     the narrow loop by register renaming, which is exactly the
//     parallelism manual unrolling tries to create;
//   - per-coefficient mask-blend row select on hoisted registers:
//     loses to the sign-indexed row load for the same reason (ten
//     live coefficient registers spill).
//
// What wins is the simplest shape: a 1-wide loop whose body is pure
// straight-line inlined arithmetic, no calls, no data-dependent
// branches. Special-case handling is pulled off the fast path
// entirely: the lane computes unconditionally (every table index is
// clamped or masked so arbitrary bit patterns stay in range), a
// branchless flag accumulates whether any special input was seen, and
// a cold fixup pass re-evaluates only those elements through the
// compiled scalar path. Ordinary-only batches — the overwhelming case
// — never branch on data.
//
// The builders carry //go:noinline: if a builder is inlined into its
// (generic) caller, the compiler re-emits the returned closure from
// the pre-inline body and every helper inside the loop degrades to a
// real call — a 2.5x slowdown that go build -gcflags=-m does not
// report. The parity sweep plus kernel_shape_test.go guard the
// regression.
//
// Bit-exactness contract. The lanes repeat, token for token, the
// operation sequence the generator validated (the same sequence
// compile() runs; the polynomial cores are piecewise.QuadExact and
// Dense5Exact), so their results are bit-identical to the scalar
// library by construction. The kernel parity sweep (parity_test.go)
// checks it on a stratified sample, and internal/exhaust checks the
// scalar and batch paths on every input.
//
// Keep every arithmetic step in sync with the Family Reduce/OC methods
// in internal/rangered — that shared sequence is the paper's soundness
// invariant.
package libm

import (
	"fmt"
	"math"
	"strings"

	"rlibm32/internal/piecewise"
	"rlibm32/internal/polygen"
	"rlibm32/internal/rangered"
)

// fpv are the element types batch kernels are instantiated at:
// float32 for the public XxxSlice/EvalSlice entry points, float64 for
// the posit and 16-bit mirrors that evaluate over exact embeddings.
// The two instantiations have distinct gcshapes, so each gets fully
// specialized code. The set is exact (no ~), so the AVX2 wrappers'
// switch on the element type covers every instantiation.
type fpv interface{ float32 | float64 }

// roundHalfAway is math.Round, copied so it inlines into the exp
// kernels (math.Round itself is above the inlining budget). It must
// stay bit-identical to math.Round — TestRoundHalfAwayMatchesMathRound
// pins that.
func roundHalfAway(x float64) float64 {
	b := math.Float64bits(x)
	e := uint(b>>52) & 0x7ff
	if e < 1023 {
		b &= 1 << 63
		if e == 1022 {
			b |= 1023 << 52
		}
	} else if e < 1023+52 {
		const half = 1 << 51
		e -= 1023
		b += half >> e
		b &^= (1<<52 - 1) >> e
	}
	return math.Float64frombits(b)
}

// signbit64 returns the sign bit of x in place (0 or 1<<63).
func signbit64(x float64) uint64 { return math.Float64bits(x) & (1 << 63) }

// blend64 returns y's bits where m is set and x's elsewhere (m is 0 or
// all-ones): the branchless float select used by the mirror folds.
func blend64(x, y float64, m uint64) float64 {
	return math.Float64frombits(math.Float64bits(x)&^m | math.Float64bits(y)&m)
}

// gtMask returns all-ones iff a > b, for non-negative finite doubles
// (whose bit patterns order like integers). Pure integer arithmetic,
// never a branch.
func gtMask(a, b float64) uint64 {
	d := int64(math.Float64bits(b)) - int64(math.Float64bits(a))
	return uint64(d >> 63)
}

// prepareSignPair packs a per-sign piecewise pair (one dense quartic
// per sign, as the exponential families generate) into two 8-float
// cache-line rows on a 64-byte-aligned base: row 0 holds the Pos
// coefficients, row 1 the Neg ones, so the kernel selects a row by
// bits(r)>>63 alone. RN never produces r = -0 from the Cody–Waite
// remainder (a nonzero-result subtraction rounds to +0 when it rounds
// to zero, and x = 0 sits inside the round-to-one special band), so
// the sign-bit index agrees exactly with the scalar "r < 0" dispatch.
func prepareSignPair(neg, pos *piecewise.Table) []float64 {
	buf := make([]float64, 16+7)
	co := piecewise.Align64(buf)[:16:16]
	copy(co[0:5], pos.Coeffs)
	copy(co[8:13], neg.Coeffs)
	return co
}

// ordNormalPositive reports whether b is the bit pattern of a
// positive, normal, finite double — the log families' entire ordinary
// domain (every positive 32-bit target value embeds as a normal
// double) — with a single unsigned compare.
func ordNormalPositive(b uint64) bool {
	return b-(1<<52) < (0x7ff<<52)-(1<<52)
}

// band is a kernel's test for ordinary inputs on a double's bits: x is
// ordinary when (bits(x)&mask) − lo <u span, one mask, one subtract
// and one unsigned compare. Every special input falls outside its
// kernel's band. The exp band is conservative (it also leaves out a
// few ordinary inputs at its edges); the others are exact. Whatever
// falls outside is re-evaluated by the scalar path, which is correct
// on every input, so a conservative band costs time, never bits. The
// AVX2 lanes flag specials with the same test.
type band struct{ mask, lo, span uint64 }

// holds reports whether x lies inside the band.
func (b band) holds(x float64) bool { return math.Float64bits(x)&b.mask-b.lo < b.span }

// absBand is the exact band lo < |x| < hi, for 0 ≤ lo < hi.
func absBand(lo, hi float64) band {
	l := math.Float64bits(lo) + 1
	return band{mask: 1<<63 - 1, lo: l, span: math.Float64bits(hi) - l}
}

// logBand is ordNormalPositive as a band: the log families' ordinary
// domain, exactly.
var logBand = band{mask: ^uint64(0), lo: 1 << 52, span: 0x7ff<<52 - 1<<52}

// expBand is the exponential families' conservative band: |x| strictly
// between the widest round-to-one bound and the nearest overflow or
// underflow bound. NaN and ±Inf order above every finite bound.
func expBand(fam *rangered.ExpFamily) band {
	return absBand(max(fam.TinyHi, -fam.TinyLo), min(fam.OvfLo, -fam.UndHi))
}

// fixupSpecials re-evaluates every element of the batch outside the
// kernel's band through the compiled scalar path. Cold: it runs only
// when the fast loop's accumulated flag says at least one special
// input is present, so ordinary-only batches never reach it. The band
// test is inline, so the scan makes no call per ordinary element.
func fixupSpecials[T fpv](dst, xs []T, sc func(float64) float64, ord band) {
	for i, x := range xs {
		if !ord.holds(float64(x)) {
			dst[i] = T(sc(float64(x)))
		}
	}
}

// logKernel builds the fused batch evaluator for a log family backed
// by a single non-negative-domain NoConst-3 piecewise table (ln, log2,
// log10 across all variants). Per lane: Tang reduction by bit
// extraction, branchless clamp+shift sub-domain select on the padded
// table, polynomial core, additive output compensation. r ≥ 0 always
// (F = 1 + floor((m̂−1)·2^tb)/2^tb ≤ m̂), so the piecewise index needs
// no sign handling. The lane is total: for special bit patterns m̂ is
// still in [1,2) and every index stays masked in range, so the loop
// computes garbage harmlessly and the fixup pass overwrites it.
//
//go:noinline
func logKernel[T fpv](fam *rangered.LogFamily, pt *piecewise.Prepared, sc func(float64) float64) func(dst, xs []T) {
	tb := uint(fam.TabBits)
	scale := float64(int(1) << tb)
	invScale := math.Float64frombits(uint64(1023-tb) << 52) // exact 2^−TabBits
	jmask := int(1)<<tb - 1                                 // j ∈ [0, 2^tb) by construction; the mask only discharges the bounds check
	lb2 := fam.Scale
	ftab := fam.FTab
	shift, mask := pt.Shift, pt.Mask
	minB, maxB := pt.MinBits, pt.MaxBits
	rw := pt.RowShift
	co := pt.Coeffs
	return func(dst, xs []T) {
		bad := 0
		for i := 0; i < len(xs); i++ {
			b := math.Float64bits(float64(xs[i]))
			if !ordNormalPositive(b) {
				bad = 1
			}
			mhat := math.Float64frombits(b&(1<<52-1) | 1023<<52)
			ep := int(b>>52) - 1023
			j := int((mhat-1)*scale) & jmask
			F := 1 + float64(float64(j)*invScale)
			r := (mhat - F) / F
			a := float64(float64(ep)*lb2) + ftab[j]
			c := co[int((min(max(math.Float64bits(r), minB), maxB)>>shift)&mask)<<rw:]
			dst[i] = T(a + float64(piecewise.QuadExact(c[0], c[1], c[2], r)*r))
		}
		if bad != 0 {
			fixupSpecials(dst, xs, sc, logBand)
		}
	}
}

// expKernel builds the fused batch evaluator for an exponential family
// backed by a per-sign Dense-5 pair (exp, exp2, exp10 across all
// variants). Per lane: Cody–Waite additive reduction with the faithful
// math.Round copy, exact 2^m scaling, sign-bit row select on the
// packed per-sign pair (co is the prepareSignPair packing), polynomial
// core, multiplicative output compensation. The lane is total: int(k)
// of a NaN/±Inf reduction saturates, and ki&63 / the sign-bit row
// index stay in range for any saturated value, so special inputs
// compute garbage harmlessly for the fixup pass to overwrite.
//
//go:noinline
func expKernel[T fpv](fam *rangered.ExpFamily, co []float64, sc func(float64) float64) func(dst, xs []T) {
	invC, chi, clo := fam.InvC, fam.CHi, fam.CLo
	ovfLo, undHi, tinyLo, tinyHi := fam.OvfLo, fam.UndHi, fam.TinyLo, fam.TinyHi
	ttab := (*[64]float64)(fam.TTab)
	ord := expBand(fam)
	return func(dst, xs []T) {
		bad := 0
		for i := 0; i < len(xs); i++ {
			x := float64(xs[i])
			if !(x > undHi && x < ovfLo && (x < tinyLo || x > tinyHi)) {
				bad = 1
			}
			k := roundHalfAway(x * invC)
			r := (x - float64(k*chi)) - float64(k*clo)
			ki := int(k)
			a := rangered.Exp2i(ki>>6) * ttab[ki&63]
			c := co[int(math.Float64bits(r)>>63)<<3:]
			dst[i] = T(a * piecewise.Dense5Exact(c[0], c[1], c[2], c[3], c[4], r))
		}
		if bad != 0 {
			fixupSpecials(dst, xs, sc, ord)
		}
	}
}

// sinhcoshKernel builds the fused batch evaluator for sinh/cosh: one
// Odd-3 table for sinh(r), one Even-3 for cosh(r), single row each.
// Per lane: Cody–Waite reduction of |x| with Floor, exact (2^m±2^-m)/2
// combination with the sinh-vs-cosh pick hoisted into ±1 coefficient
// flips (pS/qS), addition-theorem output compensation, and the odd
// symmetry applied as a sign-bit XOR (sgnMask is 1<<63 for sinh, 0
// for cosh — multiplying by ±1 is an exact sign flip). Total for
// special inputs: int(Floor(NaN·c)) saturates and ki&63 stays in
// range.
//
//go:noinline
func sinhcoshKernel[T fpv](fam *rangered.SinhCoshFamily, p0, p1 *piecewise.Table, sc func(float64) float64) func(dst, xs []T) {
	invC, chi, clo := fam.InvC, fam.CHi, fam.CLo
	st := (*[64]float64)(fam.ST)
	ct := (*[64]float64)(fam.CT)
	ovfLo, tinyHi := fam.OvfLo, fam.TinyHi
	isSinh := fam.IsSinh
	// Reduce computes cha = (2^m + 2^-m)/2, sha = (2^m − 2^-m)/2 and
	// picks (sha, cha) for sinh, (cha, sha) for cosh; ±1·2^-m is exact,
	// so the hoisted pick is bit-identical.
	pS, qS := -1.0, 1.0
	if !isSinh {
		pS, qS = 1.0, -1.0
	}
	var sgnMask uint64
	if isSinh {
		sgnMask = 1 << 63 // sinh is odd: S = −1 for x < 0; cosh has S = 1 always
	}
	d0, d1, d2 := p0.Coeffs[0], p0.Coeffs[1], p0.Coeffs[2]
	e0, e1, e2 := p1.Coeffs[0], p1.Coeffs[1], p1.Coeffs[2]
	// Exact complement of Special: 0 < |x| < ovfLo for sinh,
	// tinyHi < |x| < ovfLo for cosh.
	ord := absBand(tinyHi, ovfLo)
	if isSinh {
		ord = absBand(0, ovfLo)
	}
	return func(dst, xs []T) {
		bad := 0
		for i := 0; i < len(xs); i++ {
			x := float64(xs[i])
			y := math.Abs(x)
			if !(y < ovfLo && (isSinh && x != 0 || !isSinh && y > tinyHi)) {
				bad = 1
			}
			k := math.Floor(y * invC)
			r := (y - float64(k*chi)) - float64(k*clo)
			ki := int(k)
			m := ki >> 6
			e := rangered.Exp2i(m)
			ei := rangered.Exp2i(-m)
			p := (e + float64(pS*ei)) * 0.5
			q := (e + float64(qS*ei)) * 0.5
			j := ki & 63
			a := float64(p*ct[j]) + float64(q*st[j])
			b := float64(p*st[j]) + float64(q*ct[j])
			r2 := r * r
			v0 := piecewise.QuadExact(d0, d1, d2, r2) * r
			v1 := piecewise.QuadExact(e0, e1, e2, r2)
			z := float64(a*v1) + float64(b*v0)
			dst[i] = T(math.Float64frombits(math.Float64bits(z) ^ (signbit64(x) & sgnMask)))
		}
		if bad != 0 {
			fixupSpecials(dst, xs, sc, ord)
		}
	}
}

// sinpiKernel builds the fused batch evaluator for sinpi: Odd-3
// sinpi(R) and Even-3 cospi(R) tables, single row each. Per lane:
// branchless piReduce (mod 2 via the floor identity, fold at 1 via
// floor, fold at 1/2 via mask-blend — 1−j is exact by Sterbenz when
// taken), N/512 split, polynomial cores, pair output compensation with
// the accumulated sign applied as an XOR (sinpi is odd). The table
// index is clamped on BOTH sides: for ordinary inputs n ∈ [0, 255]
// already, and the max(·, 0) only keeps the saturated int(NaN·512) of
// a special input from going negative.
//
//go:noinline
func sinpiKernel[T fpv](fam *rangered.SinPiFamily, p0, p1 *piecewise.Table, sc func(float64) float64) func(dst, xs []T) {
	sinT, cosT := fam.SinT, fam.CosT
	tinyHi, hugeLo := fam.TinyHi, fam.HugeLo
	d0, d1, d2 := p0.Coeffs[0], p0.Coeffs[1], p0.Coeffs[2]
	e0, e1, e2 := p1.Coeffs[0], p1.Coeffs[1], p1.Coeffs[2]
	ord := absBand(tinyHi, hugeLo) // exact complement of Special
	return func(dst, xs []T) {
		bad := 0
		for i := 0; i < len(xs); i++ {
			x := float64(xs[i])
			ax := math.Abs(x)
			if !(ax > tinyHi && ax < hugeLo) {
				bad = 1
			}
			sgn := signbit64(x)
			j := ax - 2*math.Floor(ax*0.5)
			t := math.Floor(j)
			j -= t // exact for t ∈ {0, 1}
			sgn ^= uint64(int64(t)) << 63
			j = blend64(j, 1-j, gtMask(j, 0.5))
			n := min(max(int(j*512), 0), 255)
			r := j - float64(float64(n)*0x1p-9)
			a, b := sinT[n], cosT[n]
			r2 := r * r
			v0 := piecewise.QuadExact(d0, d1, d2, r2) * r
			v1 := piecewise.QuadExact(e0, e1, e2, r2)
			z := float64(a*v1) + float64(b*v0)
			dst[i] = T(math.Float64frombits(math.Float64bits(z) ^ sgn))
		}
		if bad != 0 {
			fixupSpecials(dst, xs, sc, ord)
		}
	}
}

// cospiKernel builds the fused batch evaluator for cospi: Odd-3
// sinpi(R) and Even-3 cospi(R) tables, single row each. Per lane:
// branchless piReduce (cospi is even — the sign comes only from the
// folds) plus the branchless N == 0 split of the cancellation-free
// output compensation (N > 0 uses N' = N+1 and the exact complement
// R = 1/512 − Q; N = 0 keeps index 0 and R = Q). Same two-sided index
// clamp as sinpiKernel for totality.
//
//go:noinline
func cospiKernel[T fpv](fam *rangered.CosPiFamily, p0, p1 *piecewise.Table, sc func(float64) float64) func(dst, xs []T) {
	sinT, cosT := fam.SinT, fam.CosT
	tinyHi, hugeLo := fam.TinyHi, fam.HugeLo
	d0, d1, d2 := p0.Coeffs[0], p0.Coeffs[1], p0.Coeffs[2]
	e0, e1, e2 := p1.Coeffs[0], p1.Coeffs[1], p1.Coeffs[2]
	ord := absBand(tinyHi, hugeLo) // exact complement of Special
	return func(dst, xs []T) {
		bad := 0
		for i := 0; i < len(xs); i++ {
			x := float64(xs[i])
			ax := math.Abs(x)
			if !(ax > tinyHi && ax < hugeLo) {
				bad = 1
			}
			j := ax - 2*math.Floor(ax*0.5)
			t := math.Floor(j)
			j -= t
			sgn := uint64(int64(t)) << 63
			m := gtMask(j, 0.5)
			sgn ^= m & (1 << 63)
			j = blend64(j, 1-j, m)
			n := min(max(int(j*512), 0), 255)
			q := j - float64(float64(n)*0x1p-9)
			mnz := uint64(int64(-n) >> 63) // all-ones iff n > 0
			idx := int(uint64(n+1) & mnz)
			r := blend64(q, 0x1p-9-q, mnz)
			a, b := cosT[idx], sinT[idx]
			r2 := r * r
			v0 := piecewise.QuadExact(d0, d1, d2, r2) * r
			v1 := piecewise.QuadExact(e0, e1, e2, r2)
			z := float64(a*v1) + float64(b*v0)
			dst[i] = T(math.Float64frombits(math.Float64bits(z) ^ sgn))
		}
		if bad != 0 {
			fixupSpecials(dst, xs, sc, ord)
		}
	}
}

// KernelShape reports whether a fused batch kernel covers a generated
// function: nil when one does, otherwise an error naming the function,
// the table shape it has and the shape its family's kernel needs. It
// is the one definition of kernel coverage. fusedSlice builds kernels
// only behind it and panics when it fails, so a table no kernel covers
// stops the float32 and posit32 packages at init; cmd/rlibmgen runs it
// on every function before it emits tables, so such a table is refused
// at generation time instead.
func KernelShape(fam rangered.Family, pieces []*polygen.Piecewise) error {
	var want string
	ok := false
	switch fam := fam.(type) {
	case *rangered.LogFamily:
		want = "one NoConst-3 table over r ≥ 0 and a 2^TabBits-entry log table"
		ok = len(pieces) == 1 && pieces[0].Neg == nil && isTable(pieces[0].Pos, piecewise.NoConst, 3, false) &&
			fam.TabBits > 0 && len(fam.FTab) == 1<<uint(fam.TabBits)
	case *rangered.ExpFamily:
		want = "a per-sign pair of single-row Dense-5 tables and a 64-entry 2^(j/64) table"
		ok = len(pieces) == 1 && isTable(pieces[0].Neg, piecewise.Dense, 5, true) &&
			isTable(pieces[0].Pos, piecewise.Dense, 5, true) && len(fam.TTab) == 64
	case *rangered.SinhCoshFamily:
		want = "single-row Odd-3 and Even-3 tables over r ≥ 0 and 64-entry sinh/cosh tables"
		ok = oddEvenPair(pieces) && len(fam.ST) == 64 && len(fam.CT) == 64
	case *rangered.SinPiFamily:
		want = "single-row Odd-3 and Even-3 tables over r ≥ 0 and 256-entry sinpi/cospi tables"
		ok = oddEvenPair(pieces) && len(fam.SinT) >= 256 && len(fam.CosT) >= 256
	case *rangered.CosPiFamily:
		want = "single-row Odd-3 and Even-3 tables over r ≥ 0 and 257-entry sinpi/cospi tables"
		ok = oddEvenPair(pieces) && len(fam.SinT) >= 257 && len(fam.CosT) >= 257
	default:
		want = "the log, exp, sinh/cosh, sinpi or cospi range reduction"
	}
	if ok {
		return nil
	}
	return fmt.Errorf("libm: no batch kernel covers %s with tables %s: its kernel needs %s",
		fam.Name(), shapeString(pieces), want)
}

// isTable reports whether t is a kind polynomial with nterms terms,
// split into no sub-domains when single is set.
func isTable(t *piecewise.Table, kind piecewise.Kind, nterms int, single bool) bool {
	return t != nil && t.Kind == kind && len(t.Terms) == nterms && (!single || t.N == 0)
}

// oddEvenPair matches the two-reduced-function families' table shape:
// pieces[0] a single Odd-3 polynomial, pieces[1] a single Even-3
// polynomial, both over r ≥ 0.
func oddEvenPair(pieces []*polygen.Piecewise) bool {
	return len(pieces) == 2 && pieces[0].Neg == nil && pieces[1].Neg == nil &&
		isTable(pieces[0].Pos, piecewise.Odd, 3, true) && isTable(pieces[1].Pos, piecewise.Even, 3, true)
}

// shapeString renders a function's tables for KernelShape's error: one
// entry per reduced function, each "Kind-terms", with "×n" for a table
// split into n sub-domains, "±" marking a per-sign pair and "−" a
// table over r < 0 only.
func shapeString(pieces []*polygen.Piecewise) string {
	table := func(t *piecewise.Table) string {
		s := fmt.Sprintf("%v-%d", t.Kind, len(t.Terms))
		if t.N > 0 {
			s += fmt.Sprintf("×%d", 1<<t.N)
		}
		return s
	}
	parts := make([]string, len(pieces))
	for i, p := range pieces {
		switch {
		case p.Pos != nil && p.Neg != nil:
			parts[i] = "±" + table(p.Pos)
			if n := table(p.Neg); n != table(p.Pos) {
				parts[i] += "/" + n
			}
		case p.Neg != nil:
			parts[i] = "−" + table(p.Neg)
		case p.Pos != nil:
			parts[i] = table(p.Pos)
		}
	}
	return "[" + strings.Join(parts, " + ") + "]"
}

// fusedSlice builds the fused batch evaluator for f, and panics when
// KernelShape finds no kernel for f's tables.
func fusedSlice[T fpv](f *impl) func(dst, xs []T) {
	if err := KernelShape(f.fam, f.pieces); err != nil {
		panic(err)
	}
	sc := compile(f)
	switch fam := f.fam.(type) {
	case *rangered.LogFamily:
		return logKernel[T](fam, f.pieces[0].Pos.Prepare(), sc)
	case *rangered.ExpFamily:
		p := f.pieces[0]
		return expKernel[T](fam, prepareSignPair(p.Neg, p.Pos), sc)
	case *rangered.SinhCoshFamily:
		return sinhcoshKernel[T](fam, f.pieces[0].Pos, f.pieces[1].Pos, sc)
	case *rangered.SinPiFamily:
		return sinpiKernel[T](fam, f.pieces[0].Pos, f.pieces[1].Pos, sc)
	case *rangered.CosPiFamily:
		return cospiKernel[T](fam, f.pieces[0].Pos, f.pieces[1].Pos, sc)
	}
	panic("libm: KernelShape accepted a family with no kernel")
}

// servedSlice is the batch kernel the library serves for f at T's
// width: fusedSlice[T] plus the AVX2 upgrade. On AVX2 hardware the exp
// and log families' kernels are replaced by the vector lanes of
// simd_amd64.go — one lane body in doubles, with a widening load and
// narrowing store for float32 and plain moves for float64 — which keep
// the pure-Go kernel for the n%4 tail. Other architectures and the
// other families get the pure-Go kernel unchanged.
func servedSlice[T fpv](f *impl) func(dst, xs []T) {
	k := fusedSlice[T](f)
	switch fam := f.fam.(type) {
	case *rangered.ExpFamily:
		p := f.pieces[0]
		if sk := simdExpSlice(fam, prepareSignPair(p.Neg, p.Pos), compile(f), k); sk != nil {
			return sk
		}
	case *rangered.LogFamily:
		if sk := simdLogSlice(fam, f.pieces[0].Pos.Prepare(), compile(f), k); sk != nil {
			return sk
		}
	}
	return k
}
