//go:build amd64

package positcodec

// decode32AVX2 decodes n posit32 patterns (n a positive multiple of 4)
// from src into dst: dst[i] = Decode(src[i], 32), bit for bit.
//
//go:noescape
func decode32AVX2(dst *float64, src *uint32, n int)

// encode32AVX2 rounds n doubles (n a positive multiple of 4) from src
// to posit32 patterns in dst: dst[i] = FromFloat64(src[i], 32), bit
// for bit.
//
//go:noescape
func encode32AVX2(dst *uint32, src *float64, n int)
