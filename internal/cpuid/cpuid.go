// Package cpuid is the repository's one CPU feature probe. It reports
// whether the host can run the AVX2 loops of internal/libm (the exp and
// log lanes) and internal/positcodec (the posit32 batch codec); both
// packages read AVX2 and nothing else probes the CPU.
package cpuid
