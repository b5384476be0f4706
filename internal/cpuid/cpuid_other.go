//go:build !amd64

package cpuid

// AVX2 is false: the AVX2 loops exist only on amd64, and elsewhere
// their callers keep the pure-Go loops, which compute the same bits.
const AVX2 = false
