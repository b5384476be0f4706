//go:build !amd64

package positcodec

// The AVX2 loops of slice_amd64.s exist only on amd64. Elsewhere
// cpuid.AVX2 is the constant false, the batch loops never call these,
// and the pure-Go loops compute every value.

func decode32AVX2(dst *float64, src *uint32, n int) { panic("positcodec: no AVX2 loop") }

func encode32AVX2(dst *uint32, src *float64, n int) { panic("positcodec: no AVX2 loop") }
