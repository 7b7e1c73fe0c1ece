package obs

import (
	"time"

	"cncount/internal/sched"
)

// ProgressStatus is the /progress payload: the raw sched.ProgressSample
// facts plus the derived operational view — percent complete, throughput,
// ETA, and per-worker stall verdicts and tallies.
type ProgressStatus struct {
	// Active reports whether a parallel region is currently in flight;
	// after the run the final (100%) state keeps being served.
	Active bool `json:"active"`
	// Scope names the observed region (e.g. "core.count.BMP").
	Scope string `json:"scope,omitempty"`
	// Runs counts observed regions, so pollers can detect turnover.
	Runs uint64 `json:"runs"`
	// TotalUnits/RemainingUnits/DoneUnits partition the iteration space;
	// within one region RemainingUnits only ever decreases.
	TotalUnits     int64 `json:"total_units"`
	RemainingUnits int64 `json:"remaining_units"`
	DoneUnits      int64 `json:"done_units"`
	// PercentDone is 100·done/total (0 when no region has begun).
	PercentDone float64 `json:"percent_done"`
	// ElapsedSeconds is time since the region began (frozen at its end).
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	// UnitsPerSec is the region-average throughput so far.
	UnitsPerSec float64 `json:"units_per_sec"`
	// ETASeconds extrapolates the remaining time at the average rate;
	// 0 when done or when no rate is observable yet. Always finite.
	ETASeconds float64 `json:"eta_seconds"`
	// StallAfterSeconds is the heartbeat-age threshold behind Stalled.
	StallAfterSeconds float64 `json:"stall_after_seconds"`
	// Workers holds one entry per region worker.
	Workers []WorkerStatus `json:"workers,omitempty"`
	// StalledWorkers counts workers currently flagged as stalled.
	StalledWorkers int `json:"stalled_workers"`
}

// WorkerStatus is one worker's live view.
type WorkerStatus struct {
	Worker int `json:"worker"`
	// LastBeatSecondsAgo is how long ago the worker last completed a
	// task (its heartbeat, written from the task loop).
	LastBeatSecondsAgo float64 `json:"last_beat_seconds_ago"`
	// Stalled is set while the region is active and the heartbeat age
	// exceeds the configured threshold: the worker has been inside one
	// task body (or starved) for suspiciously long.
	Stalled bool `json:"stalled"`
	// WorkerLive holds the worker's cumulative tallies within the region
	// (units, busy/wait/steal nanos, steals); Begin resets them, so a
	// poller differences two readings only while Runs is unchanged.
	sched.WorkerLive
}

// BuildProgress derives the operational view from one progress sample.
// It is a pure function of its inputs, so the ETA and stall math is unit
// testable against synthetic samples. stallAfter <= 0 disables stall
// flags.
func BuildProgress(s sched.ProgressSample, stallAfter time.Duration) ProgressStatus {
	st := ProgressStatus{
		Active:            s.Active,
		Scope:             s.Scope,
		Runs:              s.Runs,
		TotalUnits:        s.TotalUnits,
		RemainingUnits:    s.RemainingUnits,
		DoneUnits:         s.DoneUnits,
		ElapsedSeconds:    float64(s.ElapsedNanos) / 1e9,
		StallAfterSeconds: stallAfter.Seconds(),
	}
	if s.TotalUnits > 0 {
		st.PercentDone = 100 * float64(s.DoneUnits) / float64(s.TotalUnits)
	}
	if s.ElapsedNanos > 0 && s.DoneUnits > 0 {
		st.UnitsPerSec = float64(s.DoneUnits) / (float64(s.ElapsedNanos) / 1e9)
	}
	if st.UnitsPerSec > 0 && s.RemainingUnits > 0 {
		st.ETASeconds = float64(s.RemainingUnits) / st.UnitsPerSec
	}
	for w, age := range s.BeatAgeNanos {
		ws := WorkerStatus{Worker: w, LastBeatSecondsAgo: float64(age) / 1e9}
		if w < len(s.WorkerTallies) {
			ws.WorkerLive = s.WorkerTallies[w]
		}
		if s.Active && s.RemainingUnits > 0 && stallAfter > 0 &&
			age > stallAfter.Nanoseconds() {
			ws.Stalled = true
			st.StalledWorkers++
		}
		st.Workers = append(st.Workers, ws)
	}
	return st
}
