package simd

func init() { AVX512, AVX2 = detect() }

// cpuid executes CPUID for the given leaf and subleaf.
func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 returns the low half of XCR0: the register state the OS saves
// across context switches.
func xgetbv0() uint32

func detect() (avx512, avx2 bool) {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false, false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const popcnt, osxsave = 1 << 23, 1 << 27
	if ecx1&popcnt == 0 || ecx1&osxsave == 0 {
		return false, false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	// XCR0 bits 1 and 2 are the SSE and YMM state; bits 5 to 7 are the
	// opmask and the two halves of the upper ZMM state.
	xcr0 := xgetbv0()
	const ymmState, zmmState = 0x06, 0xe6
	const avx2Bit, avx512FBit = 1 << 5, 1 << 16
	avx2 = xcr0&ymmState == ymmState && ebx7&avx2Bit != 0
	avx512 = xcr0&zmmState == zmmState && ebx7&avx512FBit != 0
	return avx512, avx2
}
