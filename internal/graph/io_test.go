package graph

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

func TestReadEdgeList(t *testing.T) {
	in := `# comment
% another comment
0 1
1 2

0 2
0 3
`
	n, edges, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatalf("ReadEdgeList: %v", err)
	}
	if n != 4 {
		t.Errorf("numVertices = %d, want 4", n)
	}
	want := []Edge{{0, 1}, {1, 2}, {0, 2}, {0, 3}}
	if !reflect.DeepEqual(edges, want) {
		t.Errorf("edges = %v, want %v", edges, want)
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	cases := []string{"0", "a b", "0 -1", "0 99999999999999999999"}
	for _, in := range cases {
		if _, _, err := ReadEdgeList(strings.NewReader(in)); err == nil {
			t.Errorf("input %q: want parse error", in)
		}
	}
}

func TestTextRoundTrip(t *testing.T) {
	g := mustGraph(t, 5, testEdges)
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatalf("WriteEdgeList: %v", err)
	}
	n, edges, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatalf("ReadEdgeList: %v", err)
	}
	g2, err := FromEdges(maxInt(n, 5), edges)
	if err != nil {
		t.Fatalf("FromEdges: %v", err)
	}
	// Vertex 4 is isolated so the round trip may shrink |V|; compare edges.
	if !reflect.DeepEqual(g.Edges(), g2.Edges()) {
		t.Error("text round trip changed the edge set")
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := mustGraph(t, 64, randomEdges(rng, 64, 300))
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatalf("WriteBinary: %v", err)
	}
	g2, err := ReadBinary(&buf)
	if err != nil {
		t.Fatalf("ReadBinary: %v", err)
	}
	if !reflect.DeepEqual(g.Off, g2.Off) || !reflect.DeepEqual(g.Dst, g2.Dst) {
		t.Error("binary round trip changed the graph")
	}
}

func TestReadBinaryRejectsGarbage(t *testing.T) {
	if _, err := ReadBinary(bytes.NewReader([]byte("not a graph at all........"))); err == nil {
		t.Error("ReadBinary accepted garbage")
	}
	if _, err := ReadBinary(bytes.NewReader(nil)); err == nil {
		t.Error("ReadBinary accepted empty input")
	}
}

func TestLoadSaveFile(t *testing.T) {
	g := mustGraph(t, 5, testEdges)
	dir := t.TempDir()

	binPath := filepath.Join(dir, "g.bin")
	if err := SaveFile(binPath, g); err != nil {
		t.Fatalf("SaveFile(bin): %v", err)
	}
	g2, err := LoadFile(binPath)
	if err != nil {
		t.Fatalf("LoadFile(bin): %v", err)
	}
	if !reflect.DeepEqual(g.Dst, g2.Dst) {
		t.Error("binary file round trip changed the graph")
	}

	txtPath := filepath.Join(dir, "g.txt")
	if err := SaveFile(txtPath, g); err != nil {
		t.Fatalf("SaveFile(txt): %v", err)
	}
	g3, err := LoadFile(txtPath)
	if err != nil {
		t.Fatalf("LoadFile(txt): %v", err)
	}
	if !reflect.DeepEqual(g.Edges(), g3.Edges()) {
		t.Error("text file round trip changed the edge set")
	}
}

func TestLoadFileMissing(t *testing.T) {
	if _, err := LoadFile(filepath.Join(t.TempDir(), "nope.txt")); err == nil {
		t.Error("LoadFile on missing path succeeded")
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// TestReadEdgeListIDOverflow pins the uint32 cardinality guard: ID
// 4294967295 (MaxUint32) parses as a uint32 but implies a vertex count of
// 2^32, which wraps the uint32 counts used by VertexID and the bitmap
// indexes. The loader must reject it with the offending line number, and
// accept the largest representable ID right below it.
func TestReadEdgeListIDOverflow(t *testing.T) {
	in := "0 1\n2 4294967295\n"
	_, _, err := ReadEdgeList(strings.NewReader(in))
	if err == nil {
		t.Fatal("ID 4294967295 accepted; vertex count would wrap uint32")
	}
	if !strings.Contains(err.Error(), "line 2") {
		t.Errorf("error %q does not name the offending line", err)
	}
	if !strings.Contains(err.Error(), "4294967295") {
		t.Errorf("error %q does not name the offending ID", err)
	}

	// The boundary ID MaxUint32-1 is fine where int holds numVertices =
	// MaxUint32. A 32-bit int does not: there the boundary is MaxInt-1,
	// and 4294967294 is out of range rather than a negative int.
	boundary := uint64(math.MaxUint32 - 1)
	if strconv.IntSize == 32 {
		boundary = math.MaxInt32 - 1
		if _, _, err := ReadEdgeList(strings.NewReader("0 4294967294\n")); err == nil ||
			!strings.Contains(err.Error(), "out of range") {
			t.Errorf("ID 4294967294 on a 32-bit host: err = %v, want out of range", err)
		}
		if _, _, err := ReadEdgeList(strings.NewReader(fmt.Sprintf("0 %d\n", boundary+1))); err == nil {
			t.Errorf("ID %d accepted; vertex count would overflow int", boundary+1)
		}
	}
	n, edges, err := ReadEdgeList(strings.NewReader(fmt.Sprintf("0 %d\n", boundary)))
	if err != nil {
		t.Fatalf("boundary ID %d rejected: %v", boundary, err)
	}
	if uint64(n) != boundary+1 {
		t.Errorf("numVertices = %d, want %d", n, boundary+1)
	}
	if len(edges) != 1 || edges[0] != (Edge{0, VertexID(boundary)}) {
		t.Errorf("edges = %v", edges)
	}
}

// TestReadBinaryRejectsOversizedVertexCount hand-crafts a binary header
// claiming |V| = 2^32 — past the uint32 ID space but under the plausibility
// byte cap — and checks ReadBinary refuses it before allocating arrays.
func TestReadBinaryRejectsOversizedVertexCount(t *testing.T) {
	var buf bytes.Buffer
	for _, h := range []uint64{0x434e4352, 1 << 32, 0} {
		if err := binary.Write(&buf, binary.LittleEndian, h); err != nil {
			t.Fatal(err)
		}
	}
	_, err := ReadBinary(&buf)
	if err == nil {
		t.Fatal("ReadBinary accepted |V| past the uint32 ID space")
	}
	if !strings.Contains(err.Error(), "uint32") {
		t.Errorf("error %q does not mention the uint32 ID space", err)
	}
}
