package serve

import (
	"context"
	"errors"
	"fmt"

	"cncount/internal/dynamic"
	"cncount/internal/wal"
)

// ErrIngestBroken marks an ingestion layer that hit a post-validation
// failure and refuses further batches. The only safe recovery is a
// restart: when the failure happened after the WAL commit point the
// batch is on disk but not in memory, and replay reconciles the two.
var ErrIngestBroken = errors.New("ingestion layer is broken; restart to recover from the WAL")

// IngestOptions configures an Ingester.
type IngestOptions struct {
	// WAL is the durability log; every batch is appended (and synced per
	// the log's policy) before it mutates memory. Nil runs memory-only —
	// updates work but do not survive a restart.
	WAL *wal.Log
	// Workers is the worker count for the batch repair pass; < 1 uses
	// all cores.
	Workers int
	// Name is the graph name installed with each swapped epoch.
	Name string
}

// Ingester is the serialized write path: one batch at a time runs
// validate → WAL append (the commit point) → in-memory batch apply →
// publish → epoch swap, all under one lock, so the WAL order, the
// in-memory state, and the epoch sequence can never disagree. The
// publish hands the swap an overlay of the rows the batch changed; only
// when the overlay has grown large does it compact the CSR. Reads are
// never blocked: queries keep serving the last installed epoch while a
// batch is in flight.
type Ingester struct {
	sem     chan struct{} // 1-buffered: the write lock, acquirable with a context
	srv     *Server
	dyn     *dynamic.Graph
	opts    IngestOptions
	seq     uint64 // last assigned sequence number (memory-only mode)
	lastSeq uint64
	batches uint64
	ops     uint64
	applied uint64
	// compactions counts the batches whose publish compacted the CSR.
	compactions uint64
	broken      error
}

// NewIngester builds the write path over a dynamic graph whose state
// matches the server's resident epoch (cncd guarantees this by
// replaying the WAL into dyn before calling). nextSeq seeds sequence
// numbering at the first unused number — replay's LastSeq+1, or 1 on a
// fresh log.
func NewIngester(srv *Server, dyn *dynamic.Graph, nextSeq uint64, opts IngestOptions) *Ingester {
	if nextSeq < 1 {
		nextSeq = 1
	}
	return &Ingester{
		sem:     make(chan struct{}, 1),
		srv:     srv,
		dyn:     dyn,
		opts:    opts,
		seq:     nextSeq - 1,
		lastSeq: nextSeq - 1, // a replayed log resumes reporting at its last committed seq
	}
}

// IngestResult reports one accepted batch.
type IngestResult struct {
	// Seq is the batch's WAL sequence number.
	Seq uint64
	// Epoch is the graph epoch the batch's state was installed under.
	Epoch uint64
	dynamic.BatchResult
}

// Apply runs one batch through the write path. The context bounds only
// the wait for the write lock — once a batch holds the lock it runs to
// completion, because abandoning a batch between the WAL commit and the
// epoch swap is exactly the divergence this type exists to prevent.
//
// A *dynamic.BadOpError return rejected the batch before the commit
// point: nothing was logged, nothing changed. Any other error wraps
// ErrIngestBroken and poisons the ingester.
func (in *Ingester) Apply(ctx context.Context, ops []dynamic.Op) (IngestResult, error) {
	select {
	case in.sem <- struct{}{}:
	case <-ctx.Done():
		return IngestResult{}, deadlineErr(ctx)
	}
	defer func() { <-in.sem }()

	if in.broken != nil {
		return IngestResult{}, fmt.Errorf("%w: %v", ErrIngestBroken, in.broken)
	}
	// Validate before the WAL append so the log never holds a batch
	// replay would refuse.
	if err := dynamic.ValidateOps(in.dyn.NumVertices(), ops); err != nil {
		return IngestResult{}, err
	}

	var seq uint64
	if in.opts.WAL != nil {
		var err error
		seq, err = in.opts.WAL.Append(ops)
		if err != nil {
			// The append did not commit, but the log is poisoned (a torn
			// record mid-log would become corruption if appends continued),
			// so durability is gone: stop accepting writes.
			in.broken = err
			return IngestResult{}, fmt.Errorf("%w: wal append: %v", ErrIngestBroken, err)
		}
	} else {
		in.seq++
		seq = in.seq
	}

	// Past the commit point: the batch is durable. A failure below
	// leaves disk ahead of memory, which only a replay may reconcile.
	res, err := in.dyn.ApplyBatch(ops, in.opts.Workers)
	if err != nil {
		in.broken = err
		return IngestResult{}, fmt.Errorf("%w: apply after commit: %v", ErrIngestBroken, err)
	}
	view, compacted := in.dyn.Publish()
	if compacted {
		in.compactions++
	}
	epoch := in.srv.install(view, in.opts.Name)

	in.lastSeq = seq
	in.batches++
	in.ops += uint64(len(ops))
	in.applied += uint64(res.Applied)
	return IngestResult{Seq: seq, Epoch: epoch, BatchResult: res}, nil
}

// IngestInfo is the ingestion section of /v1/info — including the
// maintained triangle total, which the crash-recovery tests compare
// against a fresh /v1/count recount to prove replay reached the exact
// pre-crash state.
type IngestInfo struct {
	Batches uint64 `json:"batches"`
	Ops     uint64 `json:"ops"`
	Applied uint64 `json:"applied"`
	// Compactions counts the batches whose publish spliced a fresh CSR;
	// the others installed an overlay of their changed rows.
	Compactions uint64 `json:"compactions"`
	LastSeq     uint64 `json:"last_seq"`
	Epoch       uint64 `json:"epoch"`
	Triangles   uint64 `json:"triangles"`
	Durable     bool   `json:"durable"`
	Broken      bool   `json:"broken"`
}

// Info snapshots the ingester under the write lock; every field,
// the triangle total included, is a running value, so the lock is held
// for O(1). The epoch is the server's own: once updates are enabled only
// Apply swaps the graph, under the same lock, so it always names the
// epoch the reported state is served under.
func (in *Ingester) Info() IngestInfo {
	in.sem <- struct{}{}
	defer func() { <-in.sem }()
	return IngestInfo{
		Batches:     in.batches,
		Ops:         in.ops,
		Applied:     in.applied,
		Compactions: in.compactions,
		LastSeq:     in.lastSeq,
		Epoch:       in.srv.Epoch(),
		Triangles:   in.dyn.Triangles(),
		Durable:     in.opts.WAL != nil,
		Broken:      in.broken != nil,
	}
}
