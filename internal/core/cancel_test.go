package core

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"cncount/internal/graph"
	"cncount/internal/metrics"
	"cncount/internal/sched"
)

// TestCountPreCanceled: a context canceled before Count starts returns a
// *CanceledError (nil Partial — nothing was allocated) without running.
func TestCountPreCanceled(t *testing.T) {
	g := randomGraph(t, 10, 100, 500)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Count(g, Options{Algorithm: AlgoMPS, Context: ctx, Threads: 2})
	if res != nil {
		t.Errorf("res = %v, want nil", res)
	}
	var ce *CanceledError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *CanceledError", err)
	}
	if ce.Partial != nil {
		t.Errorf("pre-setup cancel carries Partial = %+v", ce.Partial)
	}
	if !errors.Is(err, sched.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Errorf("err %v missing ErrCanceled/context.Canceled chain", err)
	}
	if ce.Err.RemainingUnits != g.NumEdges() {
		t.Errorf("remaining = %d, want all %d edges", ce.Err.RemainingUnits, g.NumEdges())
	}
}

// TestCountCanceledMidRunPartialStats cancels mid-count and pins the
// acceptance contract: typed error, partial stats (counts array, elapsed,
// threads, committed scheduler tallies), and all workers joined.
func TestCountCanceledMidRunPartialStats(t *testing.T) {
	// The region must outlive several scheduler preemption quanta: on a
	// single-CPU box the canceling goroutine and the scheduler's context
	// watcher only run when a worker is preempted (~10ms slices), so a
	// few-ms region would finish before the flag ever lands. This graph
	// with the instrumented merge kernel runs tens of ms.
	g := randomGraph(t, 11, 2000, 60000)
	before := runtime.NumGoroutine()

	// Cancel as soon as the counting region reports real progress. The
	// cancel flag still races the workers draining the last tasks, and a
	// run that completes despite the cancel legitimately returns nil — so
	// retry until one attempt is caught mid-run. One attempt almost
	// always suffices; the bound only defeats scheduler luck.
	for attempt := 0; attempt < 50; attempt++ {
		ctx, cancel := context.WithCancel(context.Background())
		prog := sched.NewProgress()
		mc := metrics.New()
		done := make(chan struct{})
		go func() {
			defer cancel()
			for {
				select {
				case <-done:
					return
				default:
				}
				if s := prog.Sample(); s.Active && s.DoneUnits > 0 {
					return
				}
				time.Sleep(20 * time.Microsecond)
			}
		}()

		res, err := Count(g, Options{
			Algorithm:   AlgoM,
			CollectWork: true,
			Context:     ctx,
			Threads:     4,
			TaskSize:    1,
			Progress:    prog,
			Metrics:     mc,
		})
		close(done)
		if err == nil {
			cancel()
			continue // drained the range before the flag landed; try again
		}
		if res != nil {
			t.Errorf("canceled Count returned a result")
		}
		var ce *CanceledError
		if !errors.As(err, &ce) {
			t.Fatalf("err = %v, want *CanceledError", err)
		}
		if ce.Partial == nil {
			t.Fatal("mid-run cancel lost the partial result")
		}
		if ce.Partial.Threads != 4 || ce.Partial.Elapsed <= 0 {
			t.Errorf("partial stats = threads %d elapsed %v", ce.Partial.Threads, ce.Partial.Elapsed)
		}
		if int64(len(ce.Partial.Counts)) != g.NumEdges() {
			t.Fatalf("partial counts len %d, want %d", len(ce.Partial.Counts), g.NumEdges())
		}
		// The partial counts stay symmetric: a reordered run's canceled
		// path maps them back with graph.MapCounts, which relies on it.
		for u := 0; u < g.NumVertices(); u++ {
			for i := g.Off[u]; i < g.Off[u+1]; i++ {
				v := g.Dst[i]
				rev, _ := g.EdgeOffset(v, graph.VertexID(u))
				if ce.Partial.Counts[i] != ce.Partial.Counts[rev] {
					t.Fatalf("partial cnt[e(%d,%d)]=%d != cnt[e(%d,%d)]=%d",
						u, v, ce.Partial.Counts[i], v, u, ce.Partial.Counts[rev])
				}
			}
		}
		if ce.Err.RemainingUnits <= 0 || ce.Err.RemainingUnits > g.NumEdges() {
			t.Errorf("remaining = %d of %d", ce.Err.RemainingUnits, ce.Err.TotalUnits)
		}
		// The scheduler tallies were still committed for the final flush.
		snap := mc.Snapshot()
		if len(snap.Sched) == 0 {
			t.Error("canceled run committed no scheduler tallies")
		}
		waitGoroutines(t, before)
		return
	}
	t.Fatal("no attempt was caught mid-run in 50 tries")
}

// TestCountDeadline: an already-expired deadline classifies as
// ErrDeadline through the whole chain.
func TestCountDeadline(t *testing.T) {
	g := randomGraph(t, 12, 100, 500)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Minute))
	defer cancel()
	_, err := Count(g, Options{Algorithm: AlgoBMP, Context: ctx, Threads: 2})
	if !errors.Is(err, sched.ErrDeadline) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want ErrDeadline/DeadlineExceeded", err)
	}
}

// TestCountNilContextUnchanged: no context means the old contract — run
// to completion, nil error.
func TestCountNilContextUnchanged(t *testing.T) {
	g := randomGraph(t, 13, 100, 500)
	res, err := Count(g, Options{Algorithm: AlgoBMP, Threads: 2})
	if err != nil || res == nil {
		t.Fatalf("Count = %v, %v", res, err)
	}
	if res.Algorithm != AlgoBMP || res.Downgraded {
		t.Errorf("result algorithm = %v downgraded = %v", res.Algorithm, res.Downgraded)
	}
}

// waitGoroutines polls until the goroutine count settles back.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= want {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d alive, want <= %d", runtime.NumGoroutine(), want)
}

// TestCountMemoryBudgetBoundary pins the BMP→MPS downgrade boundary:
// a budget exactly equal to the index footprint keeps BMP; one byte less
// downgrades to MPS, flags the result, bumps the metric — and still
// counts correctly.
func TestCountMemoryBudgetBoundary(t *testing.T) {
	g := randomGraph(t, 14, 300, 2000)
	threads := 2
	for _, tc := range []struct {
		algo Algorithm
		need int64
	}{
		{AlgoBMP, indexBytes(Options{Algorithm: AlgoBMP, Threads: threads}, int64(g.NumVertices()))},
		{AlgoBMPRF, indexBytes(Options{Algorithm: AlgoBMPRF, Threads: threads, RangeScale: 64}, int64(g.NumVertices()))},
	} {
		opts := Options{Algorithm: tc.algo, Threads: threads, RangeScale: 64}
		want, err := Count(g, Options{Algorithm: AlgoMPS, Threads: threads})
		if err != nil {
			t.Fatal(err)
		}

		opts.MemoryBudgetBytes = tc.need // exactly enough: no downgrade
		res, err := Count(g, opts)
		if err != nil {
			t.Fatalf("%v at budget: %v", tc.algo, err)
		}
		if res.Downgraded || res.Algorithm != tc.algo {
			t.Errorf("%v with budget %d downgraded to %v", tc.algo, tc.need, res.Algorithm)
		}

		mc := metrics.New()
		opts.MemoryBudgetBytes = tc.need - 1 // one byte short: downgrade
		opts.Metrics = mc
		res, err = Count(g, opts)
		if err != nil {
			t.Fatalf("%v under budget: %v", tc.algo, err)
		}
		if !res.Downgraded || res.Algorithm != AlgoMPS {
			t.Errorf("%v with budget %d ran %v downgraded=%v, want MPS downgrade",
				tc.algo, tc.need-1, res.Algorithm, res.Downgraded)
		}
		if got := mc.Snapshot().Counters["core.bmp_downgrades"]; got != 1 {
			t.Errorf("core.bmp_downgrades = %d, want 1", got)
		}
		for i := range want.Counts {
			if res.Counts[i] != want.Counts[i] {
				t.Fatalf("downgraded run count[%d] = %d, want %d", i, res.Counts[i], want.Counts[i])
			}
		}
	}
}

// TestCountBudgetIgnoredForMergeAlgorithms: MPS allocates no index, so
// even a one-byte budget never downgrades or fails.
func TestCountBudgetIgnoredForMergeAlgorithms(t *testing.T) {
	g := randomGraph(t, 15, 100, 500)
	res, err := Count(g, Options{Algorithm: AlgoMPS, Threads: 2, MemoryBudgetBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Downgraded {
		t.Error("merge algorithm reported a downgrade")
	}
}
