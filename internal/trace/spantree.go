package trace

import (
	"math"
	"sort"
)

// This file turns a tracer's recorded spans into a nested span tree —
// the per-request view behind the serving layer's /debug/requests
// inspector. Where WriteJSON serializes the flat Chrome trace-event
// timeline for Perfetto, SpanRecords + Tree reconstruct parent/child
// structure by time containment, which is all the information complete
// events carry (the recorder deliberately stores no explicit parent to
// keep the hot path allocation-free).

// SpanRecord is one completed span snapshotted out of a tracer's rings:
// its timeline row, name, and timing relative to the tracer's epoch.
type SpanRecord struct {
	// TID is the timeline row (MainTID for the caller's goroutine,
	// w+1 for scheduler worker w).
	TID int `json:"tid"`
	// Row is the row's display name ("main", "worker 3").
	Row string `json:"row"`
	// Name is the span name ("core.count", "core.count.BMP.worker").
	Name string `json:"name"`
	// StartNanos is the span start relative to the tracer epoch.
	StartNanos int64 `json:"start_nanos"`
	// DurNanos is the span duration.
	DurNanos int64 `json:"dur_nanos"`
}

// SpanRecords snapshots every complete span recorded so far, sorted by
// (tid, start, -dur) so enclosing spans precede the spans they contain.
// Instant and metadata events are skipped. Like WriteJSON it requires
// quiesced ring writers unless the tracer is in live mode; the serving
// path calls it after the handler (and any scheduler join) returned.
// Nil-safe: the disabled tracer yields nil.
func (t *Tracer) SpanRecords() []SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var recs []SpanRecord
	for _, r := range t.rings {
		if r.mu != nil {
			r.mu.Lock()
		}
		chron := r.chronological()
		if r.mu != nil {
			r.mu.Unlock()
		}
		for _, ev := range chron {
			if ev.ph != phComplete {
				continue
			}
			recs = append(recs, SpanRecord{
				TID:        r.tid,
				Row:        t.tidNames[r.tid],
				Name:       ev.name,
				StartNanos: ev.start.Sub(t.epoch).Nanoseconds(),
				DurNanos:   ev.dur.Nanoseconds(),
			})
		}
	}
	sort.SliceStable(recs, func(i, j int) bool {
		if recs[i].TID != recs[j].TID {
			return recs[i].TID < recs[j].TID
		}
		if recs[i].StartNanos != recs[j].StartNanos {
			return recs[i].StartNanos < recs[j].StartNanos
		}
		return recs[i].DurNanos > recs[j].DurNanos
	})
	return recs
}

// SpanNode is one node of a reconstructed span tree. Root nodes carry
// their timeline row name; children inherit the row of their parent.
type SpanNode struct {
	Row        string      `json:"row,omitempty"`
	Name       string      `json:"name"`
	StartNanos int64       `json:"start_nanos"`
	DurNanos   int64       `json:"dur_nanos"`
	Children   []*SpanNode `json:"children,omitempty"`
}

// Tree nests SpanRecords into per-row span trees by time containment: a
// span is a child of the innermost earlier span on the same row whose
// [start, start+dur) interval contains its start and end. Rows are
// independent (a worker span is never a child of a main-row span — the
// cross-row relation is visible from timing, not modeled as nesting).
// Roots are returned in (tid, start) order.
func Tree(recs []SpanRecord) []*SpanNode {
	var roots []*SpanNode
	var stack []*SpanNode // open ancestors on the current row
	curTID := math.MinInt
	for _, rec := range recs {
		if rec.TID != curTID {
			curTID = rec.TID
			stack = stack[:0]
		}
		n := &SpanNode{Name: rec.Name, StartNanos: rec.StartNanos, DurNanos: rec.DurNanos}
		end := rec.StartNanos + rec.DurNanos
		// Pop ancestors the new span does not fit inside. Containment uses
		// a closed interval: spans recorded by a stop() that ran right at
		// the parent's end still nest.
		for len(stack) > 0 {
			p := stack[len(stack)-1]
			if rec.StartNanos >= p.StartNanos && end <= p.StartNanos+p.DurNanos {
				break
			}
			stack = stack[:len(stack)-1]
		}
		if len(stack) == 0 {
			n.Row = rec.Row
			roots = append(roots, n)
		} else {
			p := stack[len(stack)-1]
			p.Children = append(p.Children, n)
		}
		stack = append(stack, n)
	}
	return roots
}

// CountSpans returns the total node count of a span forest — the
// cheap "is there a real tree here" check validators and tests use.
func CountSpans(roots []*SpanNode) int {
	n := 0
	for _, r := range roots {
		n += 1 + CountSpans(r.Children)
	}
	return n
}
