package core

import "cncount/internal/metrics"

// attrSampleEvery is the per-bucket sampling stride of the attribution
// timing: within each degree bucket, every 256th kernel call is timed
// with a time.Now pair. Power of two so the stride test is a mask.
const attrSampleEvery = 256

// attrBuckets bounds the degree-bucket axis: a bucket is the bit length
// of an int64 degree, 1..64, indexed directly.
const attrBuckets = 65

// attrCell is one degree-bucket accumulator.
type attrCell struct {
	count        uint64
	sampledNanos uint64
	samples      uint64
}

// attrRow is one worker's attribution state, one cell per degree bucket.
// Each worker owns a separately allocated row, so per-edge writes never
// share cache lines across workers.
type attrRow [attrBuckets]attrCell

// attrKernelName returns the attribution row label of an algorithm.
func attrKernelName(alg Algorithm) string {
	switch alg {
	case AlgoM:
		return "merge"
	case AlgoMPS:
		return "mps"
	case AlgoBMP:
		return "bitmap"
	case AlgoBMPRF:
		return "bitmap-rf"
	}
	return alg.String()
}

// foldAttribution sums the per-worker rows into one metrics row for the
// kernel that ran, with empty buckets omitted and the rest ordered by
// ascending MinDegLen.
func foldAttribution(alg Algorithm, contexts []workerCtx) []metrics.KernelAttr {
	if len(contexts) == 0 || contexts[0].attr == nil {
		return nil
	}
	row := metrics.KernelAttr{Scope: "core.count", Kernel: attrKernelName(alg)}
	for b := 0; b < attrBuckets; b++ {
		var cell attrCell
		for i := range contexts {
			c := &contexts[i].attr[b]
			cell.count += c.count
			cell.sampledNanos += c.sampledNanos
			cell.samples += c.samples
		}
		if cell.count == 0 {
			continue
		}
		row.Buckets = append(row.Buckets, metrics.AttrBucket{
			MinDegLen:    b,
			Count:        cell.count,
			SampledNanos: cell.sampledNanos,
			Samples:      cell.samples,
		})
	}
	return []metrics.KernelAttr{row}
}
