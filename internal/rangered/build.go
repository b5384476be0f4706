package rangered

import (
	"fmt"
	"math"
	"math/big"

	"rlibm32/internal/bigfp"
	"rlibm32/internal/interval"
	"rlibm32/internal/minifloat"
	"rlibm32/internal/miniposit"
	"rlibm32/internal/oracle"
	"rlibm32/posit32"
)

// Variant selects the rounding target a family is built for.
type Variant int

// Supported variants.
const (
	VFloat32 Variant = iota
	VPosit32
	VBFloat16
	VFloat16
	VPosit16
)

// Target returns the interval.Target for the variant.
func (v Variant) Target() interval.Target {
	switch v {
	case VPosit32:
		return interval.Posit32Target{}
	case VBFloat16:
		return interval.BFloat16Target()
	case VFloat16:
		return interval.Float16Target()
	case VPosit16:
		return interval.Posit16Target()
	}
	return interval.Float32Target{}
}

// String returns the target name ("float32", "posit32", "bfloat16",
// "float16").
func (v Variant) String() string { return v.Target().Name() }

// FloatNames lists the ten float32 functions of the paper's Table 1.
var FloatNames = []string{
	"ln", "log2", "log10", "exp", "exp2", "exp10",
	"sinh", "cosh", "sinpi", "cospi",
}

// PositNames lists the eight posit32 functions of Table 2.
var PositNames = []string{
	"ln", "log2", "log10", "exp", "exp2", "exp10", "sinh", "cosh",
}

// Names lists the functions generated for a variant (the 16-bit
// variants carry the same ten functions as float32).
func Names(v Variant) []string {
	if v == VPosit32 || v == VPosit16 {
		return PositNames
	}
	return FloatNames
}

// Build constructs the named family for the given variant, computing
// its lookup tables and special-case cutoffs from the oracle. This is
// the generator-side constructor; the runtime library reconstructs the
// same structs from emitted literals.
func Build(name string, v Variant) (Family, error) {
	switch name {
	case "ln":
		return buildLog(name, bigfp.Log, bigfp.Log1p, v), nil
	case "log2":
		return buildLog(name, bigfp.Log2, bigfp.Log21p, v), nil
	case "log10":
		return buildLog(name, bigfp.Log10, bigfp.Log101p, v), nil
	case "exp":
		return buildExp(name, bigfp.Exp, v), nil
	case "exp2":
		return buildExp(name, bigfp.Exp2, v), nil
	case "exp10":
		return buildExp(name, bigfp.Exp10, v), nil
	case "sinh":
		return buildSinhCosh(name, true, v), nil
	case "cosh":
		return buildSinhCosh(name, false, v), nil
	case "sinpi":
		if v == VPosit32 || v == VPosit16 {
			return nil, fmt.Errorf("rangered: no posit sinpi (paper Table 2)")
		}
		return buildSinPi(v), nil
	case "cospi":
		if v == VPosit32 || v == VPosit16 {
			return nil, fmt.Errorf("rangered: no posit cospi")
		}
		return buildCosPi(v), nil
	}
	return nil, fmt.Errorf("rangered: unknown function %q", name)
}

// maxInput returns the largest finite positive input of the variant.
func maxInput(v Variant) float64 {
	switch v {
	case VPosit32:
		return posit32.MaxPos.Float64()
	case VBFloat16:
		return minifloat.BFloat16.ToFloat64(minifloat.BFloat16.MaxFinite())
	case VFloat16:
		return minifloat.Binary16.ToFloat64(minifloat.Binary16.MaxFinite())
	case VPosit16:
		return miniposit.ToFloat64(miniposit.MaxPos)
	}
	return float64(math.MaxFloat32)
}

func minPosInput(v Variant) float64 {
	switch v {
	case VPosit32:
		return posit32.MinPos.Float64()
	case VBFloat16:
		return minifloat.BFloat16.ToFloat64(1)
	case VFloat16:
		return minifloat.Binary16.ToFloat64(1)
	case VPosit16:
		return miniposit.ToFloat64(miniposit.MinPos)
	}
	return 0x1p-149
}

// fracBits returns the significand fraction width of an IEEE variant
// (used by the sinpi/cospi integer thresholds).
func fracBits(v Variant) int {
	switch v {
	case VBFloat16:
		return 7
	case VFloat16:
		return 10
	}
	return 23
}

// searchBoundary finds, over target values x in [a, b] (embedded,
// a < b), the boundary of a monotone predicate: the largest x with
// pred(x) == pred(a). It returns that x. pred must be monotone
// (true...true false...false or the reverse) over [a, b].
func searchBoundary(t interval.Target, a, b float64, pred func(float64) bool) float64 {
	base := pred(a)
	if pred(b) == base {
		return b
	}
	oa, ob := t.Ord(a), t.Ord(b)
	// Invariant: pred(FromOrd(oa)) == base, pred(FromOrd(ob)) != base.
	// Works in either direction (a may be above or below b).
	for d := ob - oa; d > 1 || d < -1; d = ob - oa {
		mid := oa + d/2
		if pred(t.FromOrd(mid)) == base {
			oa = mid
		} else {
			ob = mid
		}
	}
	return t.FromOrd(oa)
}

func buildLog(name string, f, red bigfp.Func, v Variant) *LogFamily {
	tabBits := 7
	if v == VBFloat16 || v == VFloat16 || v == VPosit16 {
		tabBits = 4
	}
	n := 1 << tabBits
	ftab := make([]float64, n)
	for j := 1; j < n; j++ {
		ftab[j] = oracle.Float64(f, 1+float64(j)/float64(n))
	}
	var scale float64
	switch f {
	case bigfp.Log:
		scale = oracle.Float64(bigfp.Log, 2)
	case bigfp.Log2:
		scale = 1
	case bigfp.Log10:
		scale = oracle.Float64(bigfp.Log10, 2)
	}
	zero := math.Inf(-1)
	if v == VPosit32 || v == VPosit16 {
		zero = math.NaN() // ln(0) is NaR for posits
	}
	return &LogFamily{
		FName: name, F: f, Red: red,
		TabBits: tabBits,
		Scale:   scale, FTab: ftab,
		ZeroResult: zero,
		MaxInput:   maxInput(v), MinInput: minPosInput(v),
		PolyTerms: []int{1, 2, 3},
	}
}

// codyWaite splits the exact constant cBig: CHi is RN(c) with its low
// 14 mantissa bits cleared (so k·CHi is exact for |k| ≤ 2^14), CLo is
// RN(c − CHi), and InvC is RN(1/c).
func codyWaite(cBig *big.Float) (invC, cHi, cLo float64) {
	cD, _ := cBig.Float64()
	cHi = math.Float64frombits(math.Float64bits(cD) &^ 0x3FFF)
	diff := new(big.Float).SetPrec(cBig.Prec()).Sub(cBig, new(big.Float).SetFloat64(cHi))
	cLo, _ = diff.Float64()
	inv := new(big.Float).SetPrec(cBig.Prec()).Quo(new(big.Float).SetInt64(1), cBig)
	invC, _ = inv.Float64()
	return invC, cHi, cLo
}

// expConstant returns log_base(2)/64 at 200 bits for the exp family.
func expConstant(f bigfp.Func) *big.Float {
	var c *big.Float
	switch f {
	case bigfp.Exp:
		c = bigfp.Ln2(200)
	case bigfp.Exp2:
		c = big.NewFloat(1).SetPrec(200)
	case bigfp.Exp10:
		// log10(2) = ln2/ln10.
		c = new(big.Float).SetPrec(200).Quo(bigfp.Ln2(200), bigfp.Ln10(200))
	}
	return c.Quo(c, new(big.Float).SetPrec(200).SetInt64(64))
}

func buildExp(name string, f bigfp.Func, v Variant) *ExpFamily {
	t := v.Target()
	invC, cHi, cLo := codyWaite(expConstant(f))
	ttab := make([]float64, 64)
	for j := 0; j < 64; j++ {
		ttab[j] = oracle.Float64(bigfp.Exp2, float64(j)*0x1p-6)
	}
	ovfVal := math.Inf(1)
	undVal := 0.0
	switch v {
	case VPosit32:
		ovfVal = posit32.MaxPos.Float64()
		undVal = posit32.MinPos.Float64()
	case VPosit16:
		ovfVal = miniposit.ToFloat64(miniposit.MaxPos)
		undVal = miniposit.ToFloat64(miniposit.MinPos)
	}
	res := func(x float64) float64 {
		r, _ := oracle.Target(t, f, x)
		return r
	}
	mx := maxInput(v)
	// Overflow: smallest x with result == ovfVal. The predicate
	// "result != ovfVal" is true at 1 and false at mx.
	ovfLo := t.FromOrd(t.Ord(searchBoundary(t, 1, mx, func(x float64) bool {
		return !t.SameResult(res(x), ovfVal)
	})) + 1)
	// Underflow: largest x with result == undVal.
	undHi := searchBoundary(t, -mx, -1, func(x float64) bool {
		return t.SameResult(res(x), undVal)
	})
	// Round-to-one band around zero.
	one := func(x float64) bool { return t.SameResult(res(x), 1.0) }
	tinyHi := searchBoundary(t, 0, 1, one)
	tinyLo := searchBoundary(t, 0, -1, one) // walking down from zero
	return &ExpFamily{
		FName: name, F: f,
		InvC: invC, CHi: cHi, CLo: cLo, TTab: ttab,
		OvfLo: ovfLo, UndHi: undHi,
		OvfResult: ovfVal, UndResult: undVal,
		TinyLo: tinyLo, TinyHi: tinyHi,
		PolyTerms: []int{0, 1, 2, 3, 4},
	}
}

// hyperbolicTables returns ST[j], CT[j] = RN(sinh/cosh(j·ln2/64)),
// computed exactly as (2^(j/64) ∓ 2^(-j/64))/2 in big arithmetic.
func hyperbolicTables() (st, ct []float64) {
	st = make([]float64, 64)
	ct = make([]float64, 64)
	for j := 0; j < 64; j++ {
		e := bigfp.Eval(bigfp.Exp2, float64(j)*0x1p-6, 200)
		ei := bigfp.Eval(bigfp.Exp2, -float64(j)*0x1p-6, 200)
		s := new(big.Float).SetPrec(220).Sub(e, ei)
		c := new(big.Float).SetPrec(220).Add(e, ei)
		s.SetMantExp(s, -1)
		c.SetMantExp(c, -1)
		st[j], _ = s.Float64()
		ct[j], _ = c.Float64()
	}
	return st, ct
}

func buildSinhCosh(name string, isSinh bool, v Variant) *SinhCoshFamily {
	t := v.Target()
	invC, cHi, cLo := codyWaite(expConstant(bigfp.Exp))
	st, ct := hyperbolicTables()
	fn := bigfp.Cosh
	if isSinh {
		fn = bigfp.Sinh
	}
	ovfVal := math.Inf(1)
	switch v {
	case VPosit32:
		ovfVal = posit32.MaxPos.Float64()
	case VPosit16:
		ovfVal = miniposit.ToFloat64(miniposit.MaxPos)
	}
	res := func(x float64) float64 {
		r, _ := oracle.Target(t, fn, x)
		return r
	}
	mx := maxInput(v)
	ovfLo := t.FromOrd(t.Ord(searchBoundary(t, 1, mx, func(x float64) bool {
		return !t.SameResult(res(x), ovfVal)
	})) + 1)
	tinyHi := 0.0
	if !isSinh {
		tinyHi = searchBoundary(t, 0, 1, func(x float64) bool {
			return t.SameResult(res(x), 1.0)
		})
	}
	return &SinhCoshFamily{
		FName: name, IsSinh: isSinh,
		InvC: invC, CHi: cHi, CLo: cLo,
		ST: st, CT: ct,
		OvfLo: ovfLo, OvfResult: ovfVal, TinyHi: tinyHi,
		SinhTerms: []int{1, 3, 5}, CoshTerms: []int{0, 2, 4},
	}
}

// piTables returns SinT[N], CosT[N] = RN(sinpi/cospi(N/512)) for
// N ∈ [0, 256].
func piTables() (st, ct []float64) {
	st = make([]float64, 257)
	ct = make([]float64, 257)
	for n := 0; n <= 256; n++ {
		x := float64(n) * 0x1p-9
		st[n] = oracle.Float64(bigfp.SinPi, x)
		ct[n] = oracle.Float64(bigfp.CosPi, x)
	}
	return st, ct
}

func buildSinPi(v Variant) *SinPiFamily {
	st, ct := piTables()
	tiny := 0.0 // 16-bit variants: the odd polynomial handles tiny inputs
	if v == VFloat32 {
		// Paper §2: for |x| < 1.173e-7, RN32(π·x computed in double) is
		// the correctly rounded sinpi(x); validated by the harness.
		tiny = 1.173e-7
	}
	return &SinPiFamily{
		SinT: st, CosT: ct,
		TinyHi:   tiny,
		HugeLo:   math.Ldexp(1, fracBits(v)), // all larger values are integers
		PiDouble: math.Pi,
		SinTerms: []int{1, 3, 5}, CosTerms: []int{0, 2, 4},
	}
}

func buildCosPi(v Variant) *CosPiFamily {
	st, ct := piTables()
	t := v.Target()
	tinyHi := searchBoundary(t, 0, 1, func(x float64) bool {
		r, _ := oracle.Target(t, bigfp.CosPi, x)
		return t.SameResult(r, 1.0)
	})
	return &CosPiFamily{
		SinT: st, CosT: ct,
		TinyHi:   tinyHi,
		HugeLo:   math.Ldexp(1, fracBits(v)),
		SinTerms: []int{1, 3, 5}, CosTerms: []int{0, 2, 4},
	}
}
