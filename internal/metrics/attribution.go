package metrics

// AttrBucket is one cell of a kernel's attribution matrix: every
// intersection whose smaller endpoint degree has bit length MinDegLen,
// plus a sampled wall-time total over Samples of those calls. The sampled
// mean (SampledNanos / Samples) is the kernel's measured per-call cost in
// this degree class — the quantity the paper's degree-skew cost model
// predicts.
type AttrBucket struct {
	// MinDegLen is the bit length of min(d_u, d_v), with degrees < 1
	// counted as 1 (1..64).
	MinDegLen int `json:"min_deg_len"`
	// Count is the number of kernel calls that landed in this bucket.
	Count uint64 `json:"count"`
	// SampledNanos totals the wall time of the Samples timed calls.
	SampledNanos uint64 `json:"sampled_nanos,omitempty"`
	// Samples is how many of the calls were timed.
	Samples uint64 `json:"samples,omitempty"`
}

// KernelAttr is one kernel's per-degree-bucket attribution: which degree
// classes the kernel ran on and what it cost there. Buckets are ordered
// by ascending MinDegLen and omit empty cells.
type KernelAttr struct {
	// Scope names the recording region (e.g. "core.count").
	Scope string `json:"scope"`
	// Kernel is the stable kernel name ("merge", "mps", "bitmap", ...).
	Kernel string `json:"kernel"`
	// Buckets holds the non-empty degree-class cells, ascending MinDegLen.
	Buckets []AttrBucket `json:"buckets"`
}

// RecordKernelAttr appends kernel attribution rows to the collector.
// Rows with no buckets are dropped. Nil-safe like every recording method.
func (c *Collector) RecordKernelAttr(rows []KernelAttr) {
	if c == nil {
		return
	}
	c.mu.Lock()
	for _, r := range rows {
		if len(r.Buckets) > 0 {
			c.attribution = append(c.attribution, r)
		}
	}
	c.mu.Unlock()
}
