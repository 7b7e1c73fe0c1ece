package bitmap

import (
	"runtime/debug"
	"syscall"
	"testing"
	"unsafe"

	"cncount/internal/simd"
)

// TestCountSetVectorStopsAtPageEnd ends every probed list at the last ID
// of a page whose successor is mapped with no access, so a vector load
// or gather of one lane past len(vs) faults. Lists of 1 to 40 IDs put
// that end in the masked step, in a full block and on a block boundary.
func TestCountSetVectorStopsAtPageEnd(t *testing.T) {
	if !simd.AVX512 {
		t.Skip("the host lacks AVX-512 F, so CountSetVector runs the Go loops")
	}
	page := syscall.Getpagesize()
	mem, err := syscall.Mmap(-1, 0, 2*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Skipf("mmap: %v", err)
	}
	defer syscall.Munmap(mem)
	if err := syscall.Mprotect(mem[page:], syscall.PROT_NONE); err != nil {
		t.Skipf("mprotect: %v", err)
	}
	ids := unsafe.Slice((*uint32)(unsafe.Pointer(&mem[0])), page/4)
	for i := range ids {
		ids[i] = uint32(i)
	}
	b := New(uint32(len(ids)))
	for i := 0; i < len(ids); i += 3 {
		b.Set(uint32(i))
	}
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	for k := 1; k <= 40; k++ {
		vs := ids[len(ids)-k:]
		u := vs[k/2]
		var c uint32
		var rank int
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("%d IDs ending at a page end: %v", k, r)
				}
			}()
			c, rank = b.CountSetVector(vs, u)
		}()
		if want := b.CountSet(vs); c != want || rank != k/2 {
			t.Errorf("%d IDs: count %d rank %d, want %d and %d", k, c, rank, want, k/2)
		}
	}
}
