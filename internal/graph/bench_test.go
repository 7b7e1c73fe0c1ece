package graph_test

import (
	"bytes"
	"testing"

	"cncount/internal/graph"
)

// BenchmarkReadBinary times ReadBinary, decode and validation, on TW ×1
// (1.37 M directed edges) held in memory: the load of the count-tw-bmp
// benchmark workload without the file system.
func BenchmarkReadBinary(b *testing.B) {
	var buf bytes.Buffer
	if err := graph.WriteBinary(&buf, twGraph(b)); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := graph.ReadBinary(bytes.NewReader(data))
		if err != nil {
			b.Fatal(err)
		}
		sinkGraph = g
	}
}
