package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"unsafe"

	"rlibm32/bfloat16"
	"rlibm32/float16"
	"rlibm32/internal/libm"
	"rlibm32/internal/server"
	"rlibm32/posit16"
	"rlibm32/posit32"
	"rlibm32/posit32/positmath"

	rlibm "rlibm32"
)

// fn is one served (type, function) key with its seeded inputs and the
// reference outputs, both as wire bit patterns (16-bit types use the low
// 16 bits).
type fn struct {
	typ  uint8
	name string
	in   []uint32
	want []uint32
}

// keys lists the (type, function) pairs of the given registry variants.
func keys(variants ...string) []fn {
	var out []fn
	for _, v := range variants {
		code, ok := server.TypeCode(v)
		if !ok {
			panic("perfbench: unknown variant " + v)
		}
		for _, name := range libm.Names(v) {
			out = append(out, fn{typ: code, name: name})
		}
	}
	return out
}

// buildInputs draws n inputs for every key from its input domain and
// computes the reference outputs with the type's scalar Func. Each key's
// stream depends only on (seed, type, function), so the same seed gives
// the same inputs whatever the key order.
func buildInputs(ks []fn, n int, seed int64) ([]*fn, error) {
	out := make([]*fn, len(ks))
	for i, k := range ks {
		ref, err := scalarRef(k.typ, k.name)
		if err != nil {
			return nil, err
		}
		h := fnv.New64a()
		fmt.Fprintf(h, "%d/%d/%s", seed, k.typ, k.name)
		rng := rand.New(rand.NewSource(int64(h.Sum64())))
		f := &fn{typ: k.typ, name: k.name, in: make([]uint32, n), want: make([]uint32, n)}
		for j := range f.in {
			f.in[j] = drawInput(rng, k.typ, k.name)
			f.want[j] = ref(f.in[j])
		}
		out[i] = f
	}
	return out, nil
}

// drawInput returns one input bit pattern. The 32-bit types draw from
// the range that exercises each function's polynomial path (the
// paper's whole-domain averages are dominated by such inputs); the
// 16-bit types draw uniformly from all 2^16 patterns, specials included.
func drawInput(rng *rand.Rand, typ uint8, name string) uint32 {
	switch typ {
	case server.TFloat32:
		return math.Float32bits(float32(drawReal(rng, name, false)))
	case server.TPosit32:
		return uint32(posit32.FromFloat64(drawReal(rng, name, true)))
	}
	return uint32(rng.Intn(1 << 16))
}

// drawReal draws a real from name's input domain, uniformly or
// log-uniformly. Posit domains stop short of the posit saturation
// points.
func drawReal(rng *rand.Rand, name string, posit bool) float64 {
	lo, hi, logU := -1.0, 1.0, false
	switch name {
	case "ln", "log2", "log10":
		lo, hi, logU = 0x1p-126, 0x1p127, true
		if posit {
			lo, hi = 0x1p-120, 0x1p120
		}
	case "exp":
		lo, hi = -87, 88
		if posit {
			lo, hi = -81, 81
		}
	case "sinh", "cosh":
		lo, hi = -88, 88
		if posit {
			lo, hi = -81, 81
		}
	case "exp2":
		lo, hi = -125, 127
		if posit {
			lo, hi = -117, 117
		}
	case "exp10":
		lo, hi = -37, 38
		if posit {
			lo, hi = -36, 36
		}
	case "sinpi", "cospi":
		lo, hi = -4000, 4000
	}
	if logU {
		return math.Exp(math.Log(lo) + rng.Float64()*(math.Log(hi)-math.Log(lo)))
	}
	return lo + rng.Float64()*(hi-lo)
}

// scalarRef returns the type's scalar public Func for name, lifted to
// wire bit patterns. It is the reference every served and batch result
// is compared against.
func scalarRef(typ uint8, name string) (func(uint32) uint32, error) {
	ok := false
	var ref func(uint32) uint32
	switch typ {
	case server.TFloat32:
		var f func(float32) float32
		if f, ok = rlibm.Func(name); ok {
			ref = func(b uint32) uint32 { return math.Float32bits(f(math.Float32frombits(b))) }
		}
	case server.TPosit32:
		var f func(posit32.Posit) posit32.Posit
		if f, ok = positmath.Func(name); ok {
			ref = func(b uint32) uint32 { return uint32(f(posit32.FromBits(b))) }
		}
	case server.TBfloat16:
		var f func(bfloat16.BF16) bfloat16.BF16
		if f, ok = bfloat16.Func(name); ok {
			ref = func(b uint32) uint32 { return uint32(f(bfloat16.FromBits(uint16(b))).Bits()) }
		}
	case server.TFloat16:
		var f func(float16.F16) float16.F16
		if f, ok = float16.Func(name); ok {
			ref = func(b uint32) uint32 { return uint32(f(float16.FromBits(uint16(b))).Bits()) }
		}
	case server.TPosit16:
		var f func(posit16.P16) posit16.P16
		if f, ok = posit16.Func(name); ok {
			ref = func(b uint32) uint32 { return uint32(f(posit16.FromBits(uint16(b))).Bits()) }
		}
	}
	if !ok {
		return nil, fmt.Errorf("no scalar %s function %q", server.TypeVariant(typ), name)
	}
	return ref, nil
}

// mismatchError reports the first result whose bits differ from the
// reference.
type mismatchError struct {
	typ           uint8
	name          string
	in, got, want uint32
}

func (e *mismatchError) Error() string {
	return fmt.Sprintf("type=%s func=%s input=%#08x got=%#08x want=%#08x",
		server.TypeVariant(e.typ), e.name, e.in, e.got, e.want)
}

// check compares got with f's reference outputs starting at index lo,
// by bits, so NaN results compare like any other.
func (f *fn) check(lo int, got []uint32) error {
	want := f.want[lo : lo+len(got)]
	for i, g := range got {
		if g != want[i] {
			return &mismatchError{typ: f.typ, name: f.name, in: f.in[lo+i], got: g, want: want[i]}
		}
	}
	return nil
}

// evalBatch evaluates f on in into dst through the type's public batch
// API: rlibm32.EvalSlice for float32, positmath.EvalSlice for posit32.
func evalBatch(f *fn, dst, in []uint32) error {
	if f.typ == server.TFloat32 {
		return rlibm.EvalSlice(f.name, f32s(dst), f32s(in))
	}
	return positmath.EvalSlice(f.name, p32s(dst), p32s(in))
}

// f32s and p32s view a bit-pattern slice as the library's element type
// without copying.
func f32s(u []uint32) []float32 {
	return unsafe.Slice((*float32)(unsafe.Pointer(unsafe.SliceData(u))), len(u))
}

func p32s(u []uint32) []posit32.Posit {
	return unsafe.Slice((*posit32.Posit)(unsafe.Pointer(unsafe.SliceData(u))), len(u))
}
