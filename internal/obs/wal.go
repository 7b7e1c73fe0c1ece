package obs

import (
	"fmt"
	"io"
	"time"
)

// recovery is the plane's view of an in-progress WAL replay: /healthz
// reports 503 with its live status line until EndRecovery, so
// orchestrators do not route traffic at a daemon still reconciling
// disk with memory.
type recovery struct {
	status func() string
}

// BeginRecovery flips /healthz to 503 "recovering" until EndRecovery.
// status, when non-nil, supplies the live detail line appended to the
// healthz body (replay progress); it must be safe to call from any
// goroutine. Nil-safe.
func (p *Plane) BeginRecovery(status func() string) {
	if p == nil {
		return
	}
	p.recovering.Store(&recovery{status: status})
	p.opts.Logf("obs: recovery started (healthz now 503)")
}

// EndRecovery restores /healthz to 200. Nil-safe and idempotent.
func (p *Plane) EndRecovery() {
	if p == nil {
		return
	}
	if p.recovering.Swap(nil) != nil {
		p.opts.Logf("obs: recovery finished (healthz now 200)")
	}
}

// Recovering reports whether the plane is between BeginRecovery and
// EndRecovery. Nil-safe.
func (p *Plane) Recovering() bool { return p != nil && p.recovering.Load() != nil }

// healthzRecovery writes the 503 recovery body when recovery is in
// progress, reporting whether it did.
func (p *Plane) healthzRecovery(w io.Writer) bool {
	rec := p.recovering.Load()
	if rec == nil {
		return false
	}
	line := "recovering"
	if rec.status != nil {
		if detail := rec.status(); detail != "" {
			line = "recovering: " + detail
		}
	}
	io.WriteString(w, line+"\n")
	return true
}

// writeWALProm appends the WAL gauge families to the /metrics
// exposition, nothing when no WAL is configured.
func (p *Plane) writeWALProm(w io.Writer, now time.Time) error {
	if p.opts.WALStats == nil {
		return nil
	}
	st, ok := p.opts.WALStats()
	if !ok {
		return nil
	}
	age := -1.0
	if st.LastSyncUnixNanos > 0 {
		age = now.Sub(time.Unix(0, st.LastSyncUnixNanos)).Seconds()
		if age < 0 {
			age = 0
		}
	}
	_, err := fmt.Fprintf(w,
		"# HELP cncd_wal_segments Number of WAL segment files, the open one included.\n"+
			"# TYPE cncd_wal_segments gauge\n"+
			"cncd_wal_segments %d\n"+
			"# HELP cncd_wal_bytes Total size of all WAL segments in bytes.\n"+
			"# TYPE cncd_wal_bytes gauge\n"+
			"cncd_wal_bytes %d\n"+
			"# HELP cncd_wal_appended_batches_total Batches appended to the WAL since boot.\n"+
			"# TYPE cncd_wal_appended_batches_total counter\n"+
			"cncd_wal_appended_batches_total %d\n"+
			"# HELP cncd_wal_last_fsync_age_seconds Seconds since the WAL's last successful fsync; -1 before the first.\n"+
			"# TYPE cncd_wal_last_fsync_age_seconds gauge\n"+
			"cncd_wal_last_fsync_age_seconds %g\n"+
			"# HELP cncd_wal_next_seq Sequence number the next WAL append will assign.\n"+
			"# TYPE cncd_wal_next_seq gauge\n"+
			"cncd_wal_next_seq %d\n",
		st.Segments, st.Bytes, st.Appended, age, st.NextSeq)
	return err
}
