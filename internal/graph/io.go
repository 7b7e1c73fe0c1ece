package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

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
		// uint32 cardinality used by VertexID and the bitmap indexes.
		if u >= math.MaxUint32 || v >= math.MaxUint32 {
			return 0, nil, fmt.Errorf("graph: line %d: vertex ID %d out of range (max %d)",
				lineNo, max(u, v), uint64(math.MaxUint32-1))
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
// The header's vertex and edge counts come from untrusted bytes, so the
// arrays are read in bounded chunks: a truncated or corrupted file fails
// with an error after a bounded allocation instead of reserving the full
// claimed size up front.
func ReadBinary(r io.Reader) (*CSR, error) {
	br := bufio.NewReader(r)
	var hdr [3]uint64
	for i := range hdr {
		if err := binary.Read(br, binary.LittleEndian, &hdr[i]); err != nil {
			return nil, err
		}
	}
	if hdr[0] != binaryMagic {
		return nil, fmt.Errorf("graph: bad magic %#x", hdr[0])
	}
	const maxCount = 1 << 40 // bytes of either array, far beyond any real graph
	if hdr[1] >= maxCount/8 || hdr[2] >= maxCount/4 {
		return nil, fmt.Errorf("graph: implausible header (|V|=%d, dst len=%d)", hdr[1], hdr[2])
	}
	// Vertex IDs are uint32, so a count past MaxUint32 would wrap VertexID
	// and the bitmap cardinality exactly like an oversized text-input ID.
	if hdr[1] > math.MaxUint32 {
		return nil, fmt.Errorf("graph: vertex count %d exceeds the uint32 ID space (max %d)",
			hdr[1], uint64(math.MaxUint32))
	}
	n, m := int(hdr[1]), int(hdr[2])

	off, err := readChunkedInt64(br, n+1)
	if err != nil {
		return nil, err
	}
	dst, err := readChunkedUint32(br, m)
	if err != nil {
		return nil, err
	}
	g := &CSR{Off: off, Dst: dst}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// readChunkedInt64 reads exactly count little-endian int64s, growing the
// result incrementally so truncated input fails before a giant allocation.
func readChunkedInt64(r io.Reader, count int) ([]int64, error) {
	const chunk = 1 << 16
	out := make([]int64, 0, min(count, chunk))
	buf := make([]int64, min(count, chunk))
	for len(out) < count {
		c := min(count-len(out), chunk)
		if err := binary.Read(r, binary.LittleEndian, buf[:c]); err != nil {
			return nil, err
		}
		out = append(out, buf[:c]...)
	}
	return out, nil
}

// readChunkedUint32 is readChunkedInt64 for uint32 payloads.
func readChunkedUint32(r io.Reader, count int) ([]uint32, error) {
	const chunk = 1 << 16
	out := make([]uint32, 0, min(count, chunk))
	buf := make([]uint32, min(count, chunk))
	for len(out) < count {
		c := min(count-len(out), chunk)
		if err := binary.Read(r, binary.LittleEndian, buf[:c]); err != nil {
			return nil, err
		}
		out = append(out, buf[:c]...)
	}
	return out, nil
}

// LoadFile loads a graph from path, picking the format by extension:
// ".bin" is the binary CSR format, ".metis" and ".graph" are METIS
// adjacency files, and anything else is parsed as a text edge list.
func LoadFile(path string) (*CSR, error) {
	return LoadFileObserved(path, nil, nil)
}

// LoadFileObserved is LoadFile recording phase durations into mc and
// emitting matching spans onto tr's main timeline row: "graph.parse" for
// reading/decoding the input and "graph.build" for CSR construction
// (binary CSR files decode directly and record only the parse phase).
// Either observer may be nil.
func LoadFileObserved(path string, mc *metrics.Collector, tr *trace.Tracer) (*CSR, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	switch {
	case strings.HasSuffix(path, ".bin"):
		stop, span := mc.StartPhase("graph.parse"), tr.Span("graph.parse")
		g, err := ReadBinary(f)
		span()
		stop()
		return g, err
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
