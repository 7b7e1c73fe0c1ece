package simd

import (
	"os"
	"runtime"
	"strings"
	"testing"
)

// TestDetectMatchesCPUInfo checks the CPUID and XGETBV stub against the
// flags Linux reports for the same CPU.
func TestDetectMatchesCPUInfo(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("the kernel's CPU flags are read from /proc/cpuinfo, which only Linux has")
	}
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("cannot read the kernel's CPU flags: %v", err)
	}
	var flags map[string]bool
	for _, line := range strings.Split(string(info), "\n") {
		if name, list, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			flags = map[string]bool{}
			for _, f := range strings.Fields(list) {
				flags[f] = true
			}
			break
		}
	}
	if flags == nil {
		t.Skip("/proc/cpuinfo has no flags line")
	}
	avx512, avx2 := detect()
	if want := flags["avx2"] && flags["popcnt"]; avx2 != want {
		t.Errorf("AVX2 detected %v, /proc/cpuinfo says %v", avx2, want)
	}
	if want := flags["avx512f"] && flags["popcnt"]; avx512 != want {
		t.Errorf("AVX-512 F detected %v, /proc/cpuinfo says %v", avx512, want)
	}
	if avx512 != AVX512 || avx2 != AVX2 {
		t.Errorf("init set AVX512=%v AVX2=%v, detect returns %v %v", AVX512, AVX2, avx512, avx2)
	}
}
