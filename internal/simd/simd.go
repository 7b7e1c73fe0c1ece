// Package simd reports which vector instruction sets the host runs, so the
// kernels in internal/bitmap and internal/intersect pick their amd64
// assembly once, at package init. On other architectures both flags stay
// false and every kernel runs its Go loop.
package simd

// AVX512 and AVX2 report whether the CPU and the OS support the kernels'
// instructions, POPCNT included: AVX512 gates the 16-lane bitmap probe
// (AVX-512 F) and AVX2 the 8-lane block merge. They are set once at init;
// tests clear them to run the scalar loops.
var AVX512, AVX2 bool

// Level names the widest instruction set the kernels use: "avx512" (the
// bitmap probe; every AVX-512 CPU also runs VB with AVX2), "avx2" (VB
// only) or "scalar". Run manifests record it.
func Level() string {
	switch {
	case AVX512:
		return "avx512"
	case AVX2:
		return "avx2"
	}
	return "scalar"
}
