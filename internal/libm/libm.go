// Package libm is the generated correctly rounded math library: the
// runtime half of RLIBM-32. The zgen_*.go files (emitted by
// cmd/rlibmgen) hold the range-reduction tables, special-case cutoffs
// and piecewise polynomial coefficients; this file holds the shared
// evaluation skeleton.
//
// Each function follows the paper's runtime recipe exactly: handle
// special cases, range-reduce in double, locate the piecewise
// polynomial by the reduced input's bit pattern, evaluate with Horner
// in double, apply output compensation in double, and round once to
// the 32-bit target.
package libm

import (
	"fmt"

	"rlibm32/internal/polygen"
	"rlibm32/internal/rangered"
)

// impl is one generated function implementation.
type impl struct {
	name   string
	fam    rangered.Family
	pieces []*polygen.Piecewise
}

// Registries filled by the zgen_<variant>.go init functions; a variant
// whose tables have not been generated simply stays empty.
var (
	float32Impls  []*impl
	posit32Impls  []*impl
	bfloat16Impls []*impl
	float16Impls  []*impl
	posit16Impls  []*impl
)

// eval computes the double-precision result (pre-rounding). It is the
// same operation sequence the generator validated, so its rounding
// errors are exactly the ones the reduced intervals absorbed.
func (f *impl) eval(x float64) float64 {
	if y, ok := f.fam.Special(x); ok {
		return y
	}
	r, c := f.fam.Reduce(x)
	var vals [2]float64
	for i, p := range f.pieces {
		vals[i] = p.Eval(r)
	}
	return f.fam.OC(vals, c)
}

// compile builds a devirtualized double-precision evaluator for an
// impl: the family type is resolved once, so the hot path makes direct
// (concrete) calls. The arithmetic expressions mirror the family OC
// methods token for token — the generator validated exactly these
// operation sequences.
func compile(f *impl) func(float64) float64 {
	switch fam := f.fam.(type) {
	case *rangered.LogFamily:
		p := f.pieces[0]
		return func(x float64) float64 {
			if y, ok := fam.Special(x); ok {
				return y
			}
			r, c := fam.Reduce(x)
			return c.A + p.Eval(r)
		}
	case *rangered.ExpFamily:
		p := f.pieces[0]
		return func(x float64) float64 {
			if y, ok := fam.Special(x); ok {
				return y
			}
			r, c := fam.Reduce(x)
			return c.A * p.Eval(r)
		}
	case *rangered.SinhCoshFamily:
		p0, p1 := f.pieces[0], f.pieces[1]
		return func(x float64) float64 {
			if y, ok := fam.Special(x); ok {
				return y
			}
			r, c := fam.Reduce(x)
			return c.S * (float64(c.A*p1.Eval(r)) + float64(c.B*p0.Eval(r)))
		}
	case *rangered.SinPiFamily:
		p0, p1 := f.pieces[0], f.pieces[1]
		return func(x float64) float64 {
			if y, ok := fam.Special(x); ok {
				return y
			}
			r, c := fam.Reduce(x)
			return c.S * (float64(c.A*p1.Eval(r)) + float64(c.B*p0.Eval(r)))
		}
	case *rangered.CosPiFamily:
		p0, p1 := f.pieces[0], f.pieces[1]
		return func(x float64) float64 {
			if y, ok := fam.Special(x); ok {
				return y
			}
			r, c := fam.Reduce(x)
			return c.S * (float64(c.A*p1.Eval(r)) + float64(c.B*p0.Eval(r)))
		}
	}
	return f.eval
}

// Float32SliceImpls returns the generated float32 batch evaluators
// keyed by function name: the fused kernels of kernel.go (the AVX2
// lanes for the exp and log families where the CPU has them),
// bit-identical to the scalar path. Each writes f(xs[i]) into dst[i]
// for every element of xs. Contract: a zero-length xs is a no-op; if
// dst is shorter than xs the call panics up front, before any element
// of dst is written (never mid-batch with a partial result).
func Float32SliceImpls() map[string]func(dst, xs []float32) {
	out := make(map[string]func(dst, xs []float32), len(float32Impls))
	for _, f := range float32Impls {
		k := servedSlice[float32](f)
		out[f.name] = func(dst, xs []float32) {
			if len(xs) == 0 {
				return
			}
			_ = dst[len(xs)-1] // full-batch bounds check: panic before any write
			k(dst, xs)
		}
	}
	return out
}

// Posit32SliceImpls returns the generated posit32 batch evaluators
// over exact float64 embeddings (the posit32/positmath package wraps
// them with encoding conversions): the kernels Float32SliceImpls
// serves, at float64 width. The exp and log families run on the same
// AVX2 lanes as float32, with double loads and stores, where the CPU
// has them, and on the pure-Go kernels elsewhere. The dst/xs length
// contract matches Float32SliceImpls: len-0 no-op, up-front panic on
// short dst.
func Posit32SliceImpls() map[string]func(dst, xs []float64) {
	out := make(map[string]func(dst, xs []float64), len(posit32Impls))
	for _, f := range posit32Impls {
		k := servedSlice[float64](f)
		out[f.name] = func(dst, xs []float64) {
			if len(xs) == 0 {
				return
			}
			_ = dst[len(xs)-1] // full-batch bounds check: panic before any write
			k(dst, xs)
		}
	}
	return out
}

// Float32Impls returns the generated float32 implementations keyed by
// function name.
func Float32Impls() map[string]func(float32) float32 {
	out := make(map[string]func(float32) float32, len(float32Impls))
	for _, f := range float32Impls {
		ev := compile(f)
		out[f.name] = func(x float32) float32 { return float32(ev(float64(x))) }
	}
	return out
}

// Posit32Impls returns the generated posit32 implementations as
// float64→float64 functions over exact posit embeddings (the posit32
// public package wraps them with encoding conversions).
func Posit32Impls() map[string]func(float64) float64 {
	out := make(map[string]func(float64) float64, len(posit32Impls))
	for _, f := range posit32Impls {
		out[f.name] = compile(f)
	}
	return out
}

// Bfloat16Impls returns the generated bfloat16 implementations over
// exact float64 embeddings.
func Bfloat16Impls() map[string]func(float64) float64 {
	out := make(map[string]func(float64) float64, len(bfloat16Impls))
	for _, f := range bfloat16Impls {
		out[f.name] = compile(f)
	}
	return out
}

// Float16Impls returns the generated IEEE binary16 implementations over
// exact float64 embeddings.
func Float16Impls() map[string]func(float64) float64 {
	out := make(map[string]func(float64) float64, len(float16Impls))
	for _, f := range float16Impls {
		out[f.name] = compile(f)
	}
	return out
}

// Posit16Impls returns the generated posit16 implementations over
// exact float64 embeddings.
func Posit16Impls() map[string]func(float64) float64 {
	out := make(map[string]func(float64) float64, len(posit16Impls))
	for _, f := range posit16Impls {
		out[f.name] = compile(f)
	}
	return out
}

// Lookup returns the compiled double-precision evaluator for harnesses
// that need the raw double result (e.g. the sub-domain sweep). An
// unknown variant falls back to the float32 registry.
func Lookup(variant, name string) (func(float64) float64, bool) {
	list := implsFor(variant)
	if list == nil {
		list = float32Impls
	}
	for _, f := range list {
		if f.name == name {
			return compile(f), true
		}
	}
	return nil, false
}

// Compile builds the runtime evaluator for an externally generated
// family and piecewise tables (used by the Figure 5 sub-domain sweep,
// which regenerates log2/log10 at forced splitting depths).
func Compile(fam rangered.Family, pieces []*polygen.Piecewise) func(float64) float64 {
	return compile(&impl{fam: fam, pieces: pieces})
}

// TableInfo summarizes a generated function's storage (for the
// cmd/rlibmtable inspector).
type TableInfo struct {
	// Structure renders the piecewise layout, e.g. "32" or "1+1"
	// (per reduced function), with "±" marking per-sign tables.
	Structure string
	// Coeffs counts stored polynomial coefficients; Bytes is their
	// storage footprint (8 bytes each).
	Coeffs int
	Bytes  int
}

// Describe reports the table structure of one generated function.
func Describe(variant, name string) (TableInfo, bool) {
	list := implsFor(variant)
	if list == nil {
		list = float32Impls
	}
	for _, f := range list {
		if f.name != name {
			continue
		}
		info := TableInfo{}
		for i, pw := range f.pieces {
			if i > 0 {
				info.Structure += "+"
			}
			n := 0
			for _, t := range pw.Tables() {
				n += t.NumPolynomials()
				info.Coeffs += len(t.Coeffs)
			}
			if pw.Neg != nil && pw.Pos != nil {
				info.Structure += fmt.Sprintf("±%d", n)
			} else {
				info.Structure += fmt.Sprintf("%d", n)
			}
		}
		info.Bytes = info.Coeffs * 8
		return info, true
	}
	return TableInfo{}, false
}
