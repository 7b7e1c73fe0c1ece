package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"unsafe"

	"cncount/internal/metrics"
	"cncount/internal/trace"
)

// ReadEdgeList parses a whitespace-separated text edge list ("u v" per
// line; lines beginning with '#' or '%' are comments). The vertex count is
// 1 + the maximum ID seen.
//
// The returned edge list is the raw input: duplicate lines, reversed
// duplicates ("u v" and "v u"), and self-loops ("u u") are preserved
// verbatim. The canonical semantics — self-loops dropped, duplicates
// merged so each undirected edge appears exactly once per direction — are
// enforced by the build path, FromEdges, so degrees and counts never
// inflate from dirty input.
func ReadEdgeList(r io.Reader) (numVertices int, edges []Edge, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	maxID := -1
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' || line[0] == '%' {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0, nil, fmt.Errorf("graph: line %d: want two vertex IDs, got %q", lineNo, line)
		}
		u, err := strconv.ParseUint(fields[0], 10, 32)
		if err != nil {
			return 0, nil, fmt.Errorf("graph: line %d: %v", lineNo, err)
		}
		v, err := strconv.ParseUint(fields[1], 10, 32)
		if err != nil {
			return 0, nil, fmt.Errorf("graph: line %d: %v", lineNo, err)
		}
		// IDs up to MaxUint32-1 are representable; MaxUint32 itself is not,
		// because the vertex count maxID+1 would be 2³², which wraps the
		// uint32 cardinality used by VertexID and the bitmap indexes. On a
		// 32-bit host the count must also fit int, which caps IDs at
		// MaxInt-1.
		if u > maxVertexID || v > maxVertexID {
			return 0, nil, fmt.Errorf("graph: line %d: vertex ID %d out of range (max %d)",
				lineNo, max(u, v), uint64(maxVertexID))
		}
		edges = append(edges, Edge{VertexID(u), VertexID(v)})
		if int(u) > maxID {
			maxID = int(u)
		}
		if int(v) > maxID {
			maxID = int(v)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, nil, err
	}
	return maxID + 1, edges, nil
}

// maxVertexID is the largest vertex ID a loader accepts: its vertex count,
// one more, must fit both the uint32 ID space and int.
const maxVertexID = min(math.MaxUint32, math.MaxInt) - 1

// WriteEdgeList writes the undirected edge list of g ("u v" per line,
// u < v once per edge).
func WriteEdgeList(w io.Writer, g *CSR) error {
	bw := bufio.NewWriter(w)
	n := g.NumVertices()
	for u := 0; u < n; u++ {
		for _, v := range g.Neighbors(VertexID(u)) {
			if VertexID(u) < v {
				if _, err := fmt.Fprintf(bw, "%d %d\n", u, v); err != nil {
					return err
				}
			}
		}
	}
	return bw.Flush()
}

// binaryMagic identifies the binary CSR file format.
const binaryMagic = 0x434e4352 // "CNCR"

// WriteBinary serializes g in a compact little-endian binary CSR format.
func WriteBinary(w io.Writer, g *CSR) error {
	bw := bufio.NewWriter(w)
	hdr := []uint64{binaryMagic, uint64(g.NumVertices()), uint64(len(g.Dst))}
	for _, h := range hdr {
		if err := binary.Write(bw, binary.LittleEndian, h); err != nil {
			return err
		}
	}
	if err := binary.Write(bw, binary.LittleEndian, g.Off); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, g.Dst); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadBinary deserializes a CSR written by WriteBinary and validates it.
//
// The header's vertex and edge counts come from untrusted bytes, so
// neither array is allocated at its claimed size: each is read straight
// into a slice that starts at 4 MiB and doubles as its bytes arrive, so
// its capacity stays within the larger of 4 MiB and twice the bytes read
// into it. A truncated file or a lying header therefore fails once the
// input runs out, having allocated on the order of the input's size,
// never what the header claims.
func ReadBinary(r io.Reader) (*CSR, error) {
	g, err := decodeBinary(r)
	if err != nil {
		return nil, err
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// decodeBinary is ReadBinary without the validation.
func decodeBinary(r io.Reader) (*CSR, error) {
	var hdr [3 * 8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	le := binary.LittleEndian
	magic, nv, nd := le.Uint64(hdr[0:]), le.Uint64(hdr[8:]), le.Uint64(hdr[16:])
	if magic != binaryMagic {
		return nil, fmt.Errorf("graph: bad magic %#x", magic)
	}
	// Vertex IDs are uint32, so a count past MaxUint32 would wrap VertexID
	// and the bitmap cardinality exactly like an oversized text-input ID.
	if nv > math.MaxUint32 {
		return nil, fmt.Errorf("graph: vertex count %d exceeds the uint32 ID space (max %d)",
			nv, uint64(math.MaxUint32))
	}
	// maxDst bounds Dst at 1 TiB, far beyond any real graph. On a 32-bit
	// host either length must also fit int, or int(nv)+1 would wrap.
	const maxDst = 1 << 40 / 4
	if nv >= math.MaxInt || nd >= min(maxDst, math.MaxInt) {
		return nil, fmt.Errorf("graph: implausible header (|V|=%d, dst len=%d)", nv, nd)
	}
	off, err := readLE[int64](r, int(nv)+1)
	if err != nil {
		return nil, err
	}
	dst, err := readLE[VertexID](r, int(nd))
	if err != nil {
		return nil, err
	}
	return &CSR{Off: off, Dst: dst}, nil
}

// readLE reads exactly count little-endian values of T from r straight
// into the returned slice. Its capacity starts at 4 MiB and doubles
// whenever it fills, so it never exceeds the larger of 4 MiB and twice
// the bytes read so far. Each doubling touches fresh memory and copies
// what was read, so the start is large enough to read a graph of a few
// MB in one or two steps: from a 1 MiB start, TW ×1 (5.8 MB) read about
// three times slower on a 2-vCPU Xeon.
func readLE[T int64 | uint32](r io.Reader, count int) ([]T, error) {
	size := int(unsafe.Sizeof(T(0)))
	s := make([]T, 0, min(count, 4<<20/size))
	for len(s) < count {
		if len(s) == cap(s) {
			s = append(make([]T, 0, min(count, 2*cap(s))), s...)
		}
		if _, err := io.ReadFull(r, asBytes(s[len(s):cap(s)])); err != nil {
			return nil, err
		}
		s = s[:cap(s)]
	}
	if !littleEndian {
		b := asBytes(s)
		for i := 0; i < len(b); i += size {
			slices.Reverse(b[i : i+size])
		}
	}
	return s, nil
}

// asBytes returns the memory of s as a byte slice.
func asBytes[T int64 | uint32](s []T) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), len(s)*int(unsafe.Sizeof(T(0))))
}

// littleEndian reports whether the host stores integers little-endian, as
// the binary format does, so readLE's bytes need no swap.
var littleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// LoadFile loads a graph from path, picking the format by extension:
// ".bin" is the binary CSR format, ".metis" and ".graph" are METIS
// adjacency files, and anything else is parsed as a text edge list.
func LoadFile(path string) (*CSR, error) {
	return LoadFileObserved(path, nil, nil)
}

// LoadFileObserved is LoadFile recording phase durations into mc and
// emitting matching spans onto tr's main timeline row: "graph.parse" for
// reading/decoding the input, then "graph.build" for CSR construction
// from an edge list or "graph.validate" for checking a binary CSR, which
// decodes straight into its arrays. Either observer may be nil.
func LoadFileObserved(path string, mc *metrics.Collector, tr *trace.Tracer) (*CSR, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	switch {
	case strings.HasSuffix(path, ".bin"):
		stop, span := mc.StartPhase("graph.parse"), tr.Span("graph.parse")
		g, err := decodeBinary(f)
		span()
		stop()
		if err != nil {
			return nil, err
		}
		stop, span = mc.StartPhase("graph.validate"), tr.Span("graph.validate")
		err = g.Validate()
		span()
		stop()
		if err != nil {
			return nil, err
		}
		return g, nil
	case strings.HasSuffix(path, ".metis"), strings.HasSuffix(path, ".graph"):
		stop, span := mc.StartPhase("graph.parse"), tr.Span("graph.parse")
		g, err := ReadMETIS(f)
		span()
		stop()
		return g, err
	}
	stop, span := mc.StartPhase("graph.parse"), tr.Span("graph.parse")
	n, edges, err := ReadEdgeList(f)
	span()
	stop()
	if err != nil {
		return nil, err
	}
	stop, span = mc.StartPhase("graph.build"), tr.Span("graph.build")
	g, err := FromEdges(n, edges)
	span()
	stop()
	return g, err
}

// SaveFile writes g to path, choosing the format by extension as in
// LoadFile.
func SaveFile(path string, g *CSR) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	switch {
	case strings.HasSuffix(path, ".bin"):
		return WriteBinary(f, g)
	case strings.HasSuffix(path, ".metis"), strings.HasSuffix(path, ".graph"):
		return WriteMETIS(f, g)
	}
	return WriteEdgeList(f, g)
}
