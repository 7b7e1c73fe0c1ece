package metrics

import (
	"encoding/json"
	"testing"
)

// TestRecordKernelAttr checks rows land in the snapshot, empty rows are
// dropped, and the snapshot holds a copy rather than aliasing the
// collector's slice.
func TestRecordKernelAttr(t *testing.T) {
	c := New()
	c.RecordKernelAttr([]KernelAttr{
		{Scope: "core.count", Kernel: "merge", Buckets: []AttrBucket{
			{MinDegLen: 3, Count: 100, SampledNanos: 4000, Samples: 2},
		}},
		{Scope: "core.count", Kernel: "bitmap"}, // no buckets: dropped
	})
	s := c.Snapshot()
	if len(s.Attribution) != 1 {
		t.Fatalf("attribution rows = %d, want 1 (empty row dropped)", len(s.Attribution))
	}
	row := s.Attribution[0]
	if row.Kernel != "merge" || row.Buckets[0].Count != 100 {
		t.Errorf("row = %+v", row)
	}

	c.RecordKernelAttr([]KernelAttr{
		{Scope: "core.count", Kernel: "mps", Buckets: []AttrBucket{{MinDegLen: 1, Count: 1}}},
	})
	if len(s.Attribution) != 1 {
		t.Error("earlier snapshot aliased the collector's rows")
	}
	if s2 := c.Snapshot(); len(s2.Attribution) != 2 {
		t.Errorf("second snapshot rows = %d, want 2", len(s2.Attribution))
	}
}

// TestRecordKernelAttrNilSafe pins the disabled-collector contract.
func TestRecordKernelAttrNilSafe(t *testing.T) {
	var c *Collector
	c.RecordKernelAttr([]KernelAttr{{Kernel: "merge", Buckets: []AttrBucket{{MinDegLen: 1, Count: 1}}}})
	if s := c.Snapshot(); s.Attribution != nil {
		t.Errorf("nil collector snapshot = %+v", s)
	}
}

// TestAttributionJSONRoundTrip checks the snapshot's attribution encodes
// and decodes losslessly (cnc -metrics writes it in the JSON snapshot).
func TestAttributionJSONRoundTrip(t *testing.T) {
	in := []KernelAttr{{Scope: "core.count", Kernel: "gallop", Buckets: []AttrBucket{
		{MinDegLen: 2, Count: 7},
		{MinDegLen: 9, Count: 3, SampledNanos: 123, Samples: 1},
	}}}
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out []KernelAttr
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || len(out[0].Buckets) != 2 || out[0].Buckets[1] != in[0].Buckets[1] {
		t.Errorf("round trip: %+v", out)
	}
}
