//go:build amd64

package cpuid

// AVX2 reports hardware support, probed once at init: AVX2 plus
// OS-enabled YMM state.
var AVX2 = probeAVX2()

// cpuidex and xgetbv0 are implemented in cpuid_amd64.s.
func cpuidex(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
func xgetbv0() (eax, edx uint32)

func probeAVX2() bool {
	maxID, _, _, _ := cpuidex(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, c1, _ := cpuidex(1, 0)
	const osxsave = 1 << 27
	const avx = 1 << 28
	if c1&osxsave == 0 || c1&avx == 0 {
		return false
	}
	if xmmYmm, _ := xgetbv0(); xmmYmm&6 != 6 {
		return false
	}
	_, b7, _, _ := cpuidex(7, 0)
	return b7&(1<<5) != 0
}
