package sched

import (
	"sync"
	"sync/atomic"
	"time"
)

// workerSlot is one worker's live-observation cell: the last-heartbeat
// timestamp plus cumulative task tallies, all atomically written by the
// owning worker and atomically read by samplers. Unlike the
// metrics.SchedRecorder tallies (plain stores, readable only after the
// join), these are safe to read mid-run — /progress serves them per
// worker, and the dashboard differences them into busy/wait/steal
// shares. The struct is padded to its own cache line so worker w's
// stores never bounce the line under worker w+1's.
type workerSlot struct {
	// beat is the unix-nano timestamp of the worker's last completed task.
	beat atomic.Int64
	// units is the cumulative unit count completed this region.
	units atomic.Int64
	// busyNanos / waitNanos / stealNanos accumulate task body time,
	// claim→start queue wait, and successful-steal hunt time.
	busyNanos  atomic.Int64
	waitNanos  atomic.Int64
	stealNanos atomic.Int64
	// steals counts successful steals.
	steals atomic.Int64
	_      [128 - 6*8]byte
}

// Progress is the live progress source of a parallel region: the total and
// remaining unit counts plus per-worker heartbeat and cumulative tallies
// written from the task loop. It is the substrate of the observability
// plane's /progress endpoint — "is it stuck or just slow?" and "who is
// doing the work?" answered while the run is in flight, without waiting
// for the join.
//
// A Progress is attached to a region through Obs.Prog. Workers update it
// once per completed task (a handful of atomic adds and stores, all on
// worker-owned cache lines), so the cost is amortized over |T| units
// exactly like the tally and trace writes. A nil *Progress is the
// disabled source: every method is nil-safe and records nothing.
//
// One Progress observes one region at a time; a new Begin resets it for
// the next region while Sample keeps serving the final state of the last
// one in between (so a scrape after the run still reads 100% done).
type Progress struct {
	mu      sync.Mutex
	scope   string
	total   int64
	workers int
	// startNanos/endNanos are unix nanos; endNanos is 0 while the region
	// is active.
	startNanos int64
	endNanos   int64
	runs       uint64

	remaining atomic.Int64
	// slots points at the per-worker observation cells of the current
	// region; swapped wholesale by Begin so a concurrent Sample never
	// reads a half-built slice.
	slots atomic.Pointer[[]workerSlot]
}

// NewProgress returns an enabled progress source.
func NewProgress() *Progress { return &Progress{} }

// Begin resets the source for a region of `total` units run by `workers`
// workers under the given scope name. Called by the scheduler entry points
// before any worker starts.
func (p *Progress) Begin(scope string, total int64, workers int) {
	if p == nil {
		return
	}
	now := time.Now().UnixNano()
	slots := make([]workerSlot, workers)
	for i := range slots {
		slots[i].beat.Store(now)
	}
	p.mu.Lock()
	p.scope = scope
	p.total = total
	p.workers = workers
	p.startNanos = now
	p.endNanos = 0
	p.runs++
	p.mu.Unlock()
	p.remaining.Store(total)
	p.slots.Store(&slots)
}

// TaskDone records one task of `units` units finished by `worker`: the
// remaining count drops, the worker's heartbeat advances to now, and its
// cumulative busy/wait tallies grow by the task's body duration and
// claim→start queue wait.
func (p *Progress) TaskDone(worker int, units int64, busy, wait time.Duration) {
	if p == nil {
		return
	}
	p.remaining.Add(-units)
	if slots := p.slots.Load(); slots != nil && worker < len(*slots) {
		s := &(*slots)[worker]
		s.beat.Store(time.Now().UnixNano())
		s.units.Add(units)
		s.busyNanos.Add(int64(busy))
		s.waitNanos.Add(int64(wait))
	}
}

// StealDone records one successful steal by `worker` whose victim hunt
// took d.
func (p *Progress) StealDone(worker int, d time.Duration) {
	if p == nil {
		return
	}
	if slots := p.slots.Load(); slots != nil && worker < len(*slots) {
		s := &(*slots)[worker]
		s.steals.Add(1)
		s.stealNanos.Add(int64(d))
	}
}

// End marks the region finished. Sample keeps serving its final state.
func (p *Progress) End() {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.endNanos = time.Now().UnixNano()
	p.mu.Unlock()
}

// WorkerLive is one worker's cumulative tallies within the current region,
// safe to read while the region runs. /progress serves them per worker;
// a poller differences consecutive readings of one region to get
// per-interval busy/wait/steal shares.
type WorkerLive struct {
	// Units is the cumulative unit count the worker has completed.
	Units int64 `json:"units"`
	// BusyNanos is cumulative task-body time.
	BusyNanos int64 `json:"busy_nanos"`
	// WaitNanos is cumulative claim→start queue wait.
	WaitNanos int64 `json:"wait_nanos"`
	// StealNanos is cumulative successful-steal hunt time.
	StealNanos int64 `json:"steal_nanos"`
	// Steals counts successful steals.
	Steals int64 `json:"steals"`
}

// ProgressSample is one point-in-time reading of a Progress source. It
// carries the raw facts; rates, ETA and stall verdicts are derived by the
// consumer (internal/obs), which owns the stall threshold.
type ProgressSample struct {
	// Active reports whether a region is between Begin and End.
	Active bool `json:"active"`
	// Scope names the observed region (e.g. "core.count.BMP").
	Scope string `json:"scope,omitempty"`
	// Runs counts Begin calls, so a poller can detect region turnover.
	Runs uint64 `json:"runs"`
	// Workers is the region's worker count.
	Workers int `json:"workers"`
	// TotalUnits, RemainingUnits and DoneUnits partition the iteration
	// space; RemainingUnits only ever decreases within one region.
	TotalUnits     int64 `json:"total_units"`
	RemainingUnits int64 `json:"remaining_units"`
	DoneUnits      int64 `json:"done_units"`
	// ElapsedNanos is time since Begin (frozen at End for finished
	// regions).
	ElapsedNanos int64 `json:"elapsed_nanos"`
	// BeatAgeNanos[w] is how long ago worker w last completed a task
	// (capped below at 0); nil when no region has begun.
	BeatAgeNanos []int64 `json:"beat_age_nanos,omitempty"`
	// WorkerTallies[w] is worker w's cumulative live tallies; nil when no
	// region has begun. Index-aligned with BeatAgeNanos.
	WorkerTallies []WorkerLive `json:"worker_tallies,omitempty"`
}

// Sample reads the source. Safe to call concurrently with workers
// recording; the reading is consistent enough for monitoring (remaining
// and per-worker cells are each atomically read, not mutually
// snapshotted). The nil source returns the zero sample.
func (p *Progress) Sample() ProgressSample {
	if p == nil {
		return ProgressSample{}
	}
	now := time.Now().UnixNano()
	p.mu.Lock()
	s := ProgressSample{
		Active:     p.runs > 0 && p.endNanos == 0,
		Scope:      p.scope,
		Runs:       p.runs,
		Workers:    p.workers,
		TotalUnits: p.total,
	}
	if p.runs > 0 {
		end := p.endNanos
		if end == 0 {
			end = now
		}
		s.ElapsedNanos = end - p.startNanos
	}
	p.mu.Unlock()

	rem := p.remaining.Load()
	if rem < 0 {
		rem = 0
	}
	if rem > s.TotalUnits {
		rem = s.TotalUnits
	}
	s.RemainingUnits = rem
	s.DoneUnits = s.TotalUnits - rem
	if slots := p.slots.Load(); slots != nil {
		s.BeatAgeNanos = make([]int64, len(*slots))
		s.WorkerTallies = make([]WorkerLive, len(*slots))
		for i := range *slots {
			c := &(*slots)[i]
			age := now - c.beat.Load()
			if age < 0 {
				age = 0
			}
			s.BeatAgeNanos[i] = age
			s.WorkerTallies[i] = WorkerLive{
				Units:      c.units.Load(),
				BusyNanos:  c.busyNanos.Load(),
				WaitNanos:  c.waitNanos.Load(),
				StealNanos: c.stealNanos.Load(),
				Steals:     c.steals.Load(),
			}
		}
	}
	return s
}
