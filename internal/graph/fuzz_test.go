package graph

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadEdgeList exercises the text parser with arbitrary input: it must
// never panic, and anything it accepts must build a valid CSR.
func FuzzReadEdgeList(f *testing.F) {
	f.Add("0 1\n1 2\n")
	f.Add("# comment\n% other\n\n3 4 extra tokens\n")
	f.Add("65535 0\n")
	f.Add("a b\n")
	f.Add("-1 2\n")
	f.Add("0 0\n0 0\n")
	f.Fuzz(func(t *testing.T, input string) {
		n, edges, err := ReadEdgeList(strings.NewReader(input))
		if err != nil {
			return
		}
		if n > 1<<20 {
			// A few bytes of text can name a 4-billion-vertex graph; CSR
			// construction would then legitimately allocate gigabytes.
			// Parsing is the system under test here, so cap construction.
			t.Skip("vertex universe too large for construction")
		}
		g, err := FromEdges(n, edges)
		if err != nil {
			t.Fatalf("parsed edges rejected by FromEdges: %v", err)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("parsed graph invalid: %v", err)
		}
	})
}

// FuzzReadBinary exercises the binary loader with arbitrary bytes: it must
// reject corruption with an error, never a panic, and anything accepted
// must validate.
func FuzzReadBinary(f *testing.F) {
	// One valid file as seed.
	g, err := FromEdges(4, []Edge{{0, 1}, {1, 2}, {0, 2}})
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte{})
	f.Add([]byte("garbage"))
	f.Add(binaryWithHeader(0, 1<<28, make([]byte, 8+4))) // lying Dst length
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadBinary(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("accepted binary graph invalid: %v", err)
		}
	})
}

// FuzzReadMETIS exercises the METIS adjacency parser with arbitrary text:
// it must reject corruption with a typed error, never panic or allocate
// unboundedly from a lying header, and anything accepted must validate.
func FuzzReadMETIS(f *testing.F) {
	f.Add("3 2\n2 3\n1\n1\n")
	f.Add("% comment\n4 3 0\n2\n1 3\n2 4\n3\n")
	f.Add("2 1\n\n\n")
	f.Add("0 0\n")
	f.Add("3 1152921504606846976\n2\n1\n\n") // absurd claimed edge count
	f.Add("2 1 011\n2\n1\n")                 // weighted fmt flag
	f.Add("2 1\n3\n1\n")                     // neighbor out of range
	f.Fuzz(func(t *testing.T, input string) {
		g, err := ReadMETIS(strings.NewReader(input))
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("accepted METIS graph invalid: %v", err)
		}
	})
}
