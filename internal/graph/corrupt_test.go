package graph

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// validBinary serializes a small valid graph for corruption.
func validBinary(t *testing.T) []byte {
	t.Helper()
	g, err := FromEdges(4, []Edge{{0, 1}, {1, 2}, {2, 3}, {0, 2}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestReadBinaryCorruptRegressions is the corrupted-binary regression
// corpus: every mutation class the loader must reject with a typed error
// — truncations, bad magic, implausible counts, and offset-array
// corruption (out-of-range, non-monotonic) — and never a panic. New
// corruption bugs get a row here.
func TestReadBinaryCorruptRegressions(t *testing.T) {
	valid := validBinary(t)
	le := binary.LittleEndian

	// put64 returns a copy of valid with the 8 bytes at off replaced.
	put64 := func(off int, v uint64) []byte {
		b := append([]byte(nil), valid...)
		le.PutUint64(b[off:], v)
		return b
	}

	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"truncated magic", valid[:4]},
		{"header only", valid[:24]},
		{"truncated offsets", valid[:24+8*2]},
		{"truncated dst", valid[:len(valid)-3]},
		{"bad magic", put64(0, 0xdeadbeef)},
		{"implausible vertex count", put64(8, 1<<60)},
		{"vertex count past uint32", put64(8, 1<<33)},
		{"implausible dst length", put64(16, 1<<60)},
		// 2^31 fits uint32 but not a 32-bit int, where int(nv)+1 would
		// wrap and allocating the offsets would panic.
		{"vertex count 2^31", put64(8, 1<<31)},
		{"dst length 2^31", put64(16, 1<<31)},
		// Offsets start at byte 24; Off[0] must be 0 and the sequence
		// monotone, ending at len(Dst).
		{"nonzero first offset", put64(24, 3)},
		{"non-monotonic offsets", put64(24+8*2, ^uint64(0) /* -1 */)},
		{"offset out of range", put64(24+8*4, 1<<30)},
		{"header claims extra dst", put64(16, uint64(len(valid)))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g, err := ReadBinary(bytes.NewReader(tc.data))
			if err == nil {
				t.Fatalf("corrupt input accepted: %+v", g)
			}
			if g != nil {
				t.Errorf("non-nil graph alongside error %v", err)
			}
		})
	}

	// The uncorrupted control must still load.
	if _, err := ReadBinary(bytes.NewReader(valid)); err != nil {
		t.Fatalf("control failed: %v", err)
	}
}

// binaryWithHeader returns a binary CSR header claiming nv vertices and nd
// Dst entries, followed by body.
func binaryWithHeader(nv, nd uint64, body []byte) []byte {
	b := binary.LittleEndian.AppendUint64(nil, binaryMagic)
	b = binary.LittleEndian.AppendUint64(b, nv)
	b = binary.LittleEndian.AppendUint64(b, nd)
	return append(b, body...)
}

// TestReadBinaryBoundedAllocation pins ReadBinary's growth bound: a header
// claiming a 1 GiB array over a body of a few bytes must fail having
// allocated the reader's first chunk, not what the header claims.
func TestReadBinaryBoundedAllocation(t *testing.T) {
	cases := []struct {
		name string
		data []byte
	}{
		// Off[0] = 0 and 4 bytes of a Dst claimed to hold 2^28 entries.
		{"dst claims 1 GiB", binaryWithHeader(0, 1<<28, make([]byte, 8+4))},
		// 2^27+1 offsets claimed, 6 bytes present.
		{"offsets claim 1 GiB", binaryWithHeader(1<<27, 0, make([]byte, 6))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := ReadBinary(bytes.NewReader(tc.data))
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatal("lying header accepted")
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew >= 64<<20 {
				t.Errorf("allocated %d MiB for a %d-byte input", grew>>20, len(tc.data))
			}
		})
	}
}

// TestReadMETISCorruptRegressions is the METIS regression corpus: header
// and adjacency corruption must come back as errors naming the problem,
// and a lying edge count must not pre-allocate unboundedly.
func TestReadMETISCorruptRegressions(t *testing.T) {
	cases := []struct {
		name, input, wantSub string
	}{
		{"empty", "", "missing header"},
		{"comment only", "% nothing\n", "missing header"},
		{"header one field", "5\n", "needs n and m"},
		{"bad vertex count", "x 3\n", "bad vertex count"},
		{"negative vertex count", "-2 3\n", "bad vertex count"},
		{"bad edge count", "3 y\n", "bad edge count"},
		{"weighted format", "2 1 11\n2\n1\n", "not supported"},
		{"missing adjacency line", "3 2\n2\n", "missing adjacency line"},
		{"bad neighbor token", "2 1\nz\n1\n", "bad neighbor"},
		{"neighbor zero", "2 1\n0\n1\n", "out of [1,2]"},
		{"neighbor past n", "2 1\n3\n1\n", "out of [1,2]"},
		// The header claims 2^50 edges; the capped pre-allocation must let
		// parsing proceed to the real (tiny) adjacency data and succeed or
		// fail on its merits — not OOM. Here the data is consistent, so it
		// loads where int holds 2^50; a 32-bit int cannot, and the header
		// is refused as a bad edge count.
		{"absurd edge count loads", "", ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.name == "absurd edge count loads" {
				g, err := ReadMETIS(strings.NewReader("2 1125899906842624\n2\n1\n"))
				if strconv.IntSize == 32 {
					if err == nil || !strings.Contains(err.Error(), "bad edge count") {
						t.Fatalf("2^50 edges on a 32-bit host = %v, %v; want a bad edge count", g, err)
					}
					return
				}
				if err != nil || g.NumVertices() != 2 {
					t.Fatalf("lying-header graph = %v, %v", g, err)
				}
				return
			}
			_, err := ReadMETIS(strings.NewReader(tc.input))
			if err == nil {
				t.Fatalf("corrupt METIS accepted")
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Errorf("err = %v, want substring %q", err, tc.wantSub)
			}
		})
	}
}
