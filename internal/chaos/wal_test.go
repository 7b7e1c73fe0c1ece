package chaos

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"cncount/internal/dynamic"
	"cncount/internal/graph"
	"cncount/internal/wal"
)

const walTestVertices = 32

// randomWALBatches draws n valid batches of up to maxOps ops each over
// walTestVertices vertices.
func randomWALBatches(rng *rand.Rand, n, maxOps int) [][]wal.Op {
	batches := make([][]wal.Op, n)
	for i := range batches {
		ops := make([]wal.Op, 1+rng.Intn(maxOps))
		for j := range ops {
			u := uint32(rng.Intn(walTestVertices))
			v := uint32(rng.Intn(walTestVertices - 1))
			if v >= u {
				v++
			}
			kind := wal.OpInsert
			if rng.Intn(10) >= 6 {
				kind = wal.OpDelete
			}
			ops[j] = wal.Op{Kind: kind, U: u, V: v}
		}
		batches[i] = ops
	}
	return batches
}

// edgeSetAfter applies batches to a plain map — the independent
// reference the recovered graph is compared against.
func edgeSetAfter(batches [][]wal.Op) map[[2]uint32]bool {
	set := make(map[[2]uint32]bool)
	for _, ops := range batches {
		for _, op := range ops {
			u, v := op.U, op.V
			if u > v {
				u, v = v, u
			}
			if op.Kind == wal.OpInsert {
				set[[2]uint32{u, v}] = true
			} else {
				delete(set, [2]uint32{u, v})
			}
		}
	}
	return set
}

// requireRecoveredExact fails unless d's edge set equals the reference
// set and every maintained count equals a brute-force recount of its
// edge's intersection — the "byte-identical to full recount" bar.
func requireRecoveredExact(t *testing.T, trial int, d *dynamic.Graph, want map[[2]uint32]bool) {
	t.Helper()
	if d.NumEdges() != len(want) {
		t.Fatalf("trial %d: recovered %d edges, reference has %d", trial, d.NumEdges(), len(want))
	}
	for e := range want {
		if !d.HasEdge(graph.VertexID(e[0]), graph.VertexID(e[1])) {
			t.Fatalf("trial %d: recovered graph missing edge (%d,%d)", trial, e[0], e[1])
		}
	}
	for u := 0; u < d.NumVertices(); u++ {
		for _, v := range d.Neighbors(graph.VertexID(u)) {
			if graph.VertexID(u) > v {
				continue
			}
			got, ok := d.Count(graph.VertexID(u), v)
			if !ok {
				t.Fatalf("trial %d: edge (%d,%d) has no count", trial, u, v)
			}
			var brute uint32
			a, b := d.Neighbors(graph.VertexID(u)), d.Neighbors(v)
			for i, j := 0, 0; i < len(a) && j < len(b); {
				switch {
				case a[i] < b[j]:
					i++
				case a[i] > b[j]:
					j++
				default:
					brute++
					i++
					j++
				}
			}
			if got != brute {
				t.Fatalf("trial %d: count(%d,%d) = %d, recount = %d", trial, u, v, got, brute)
			}
		}
	}
}

// TestWALRecoveryUnderChaos is the seeded write-path recovery stress:
// each trial appends a random batch stream through a fault-injecting
// file (short writes that tear the tail, fsync refusals, and crashes —
// the writer stops dead without closing, sometimes with the tail
// physically truncated). Recovery must then replay a contiguous prefix
// containing every committed batch and land on a state byte-identical
// to a full recount — or fail with the typed corruption error. Silent
// divergence, under any seed, is the one forbidden outcome.
func TestWALRecoveryUnderChaos(t *testing.T) {
	for trial := 0; trial < 12; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("seed=%d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(trial)))
			dir := t.TempDir()
			batches := randomWALBatches(rng, 20, 8)

			// Fault mix rotates: short writes, fsync errors, both, none
			// (pure crash). Tiny segments force rotation mid-stream.
			var plan WritePlan
			switch trial % 4 {
			case 0:
				plan = WritePlan{Seed: int64(trial), Writes: 24, ShortWrites: 2}
			case 1:
				plan = WritePlan{Seed: int64(trial), Syncs: 24, SyncErrs: 2}
			case 2:
				plan = WritePlan{Seed: int64(trial), Writes: 24, ShortWrites: 1, Syncs: 24, SyncErrs: 1}
			}
			inj := NewWrite(plan)
			log, err := wal.Open(dir, wal.Options{
				SegmentBytes: 512,
				Sync:         wal.SyncBatch,
				WrapFile:     func(f wal.File) wal.File { return inj.WrapFile(f) },
			})
			committed := 0
			if err != nil {
				// The fault landed on the fresh segment's header write:
				// the daemon would die right here, leaving a sub-header
				// file recovery must shrug off. Nothing committed.
				if !errors.Is(err, ErrInjectedWrite) && !errors.Is(err, ErrInjectedSync) {
					t.Fatal(err)
				}
			} else {
				// The crash point: the writer stops dead here, mid-stream,
				// without Close — before the later batches ever commit.
				crashAt := 5 + rng.Intn(15)
				for i, ops := range batches {
					if i == crashAt {
						break
					}
					if _, err := log.Append(ops); err != nil {
						// The injected fault poisoned the log: every later
						// append must refuse too, not half-commit.
						if _, err2 := log.Append(ops); err2 == nil {
							t.Fatal("append succeeded on a poisoned log")
						}
						break
					}
					committed++
				}
			}
			// No Close: a crash never gets to flush. In some trials the
			// crash also tears the tail mid-record at the disk level.
			tornByHand := false
			if trial%3 == 0 && committed > 0 {
				segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
				if err != nil || len(segs) == 0 {
					t.Fatalf("globbing segments: %v (%d found)", err, len(segs))
				}
				sort.Strings(segs)
				last := segs[len(segs)-1]
				fi, err := os.Stat(last)
				if err != nil {
					t.Fatal(err)
				}
				if cut := fi.Size() - int64(1+rng.Intn(6)); cut > 0 {
					if err := os.Truncate(last, cut); err != nil {
						t.Fatal(err)
					}
					tornByHand = true
				}
			}

			// Recover.
			recovered := dynamic.New(walTestVertices)
			var replayed []uint64
			info, err := wal.Replay(dir, func(b wal.Batch) error {
				replayed = append(replayed, b.Seq)
				_, err := recovered.ApplyBatch(b.Ops, 2)
				return err
			}, nil)
			if err != nil {
				t.Fatalf("replay after crash must succeed (torn tails truncate): %v", err)
			}

			// Replay must be a contiguous prefix of the attempted stream
			// that contains every committed batch. One uncommitted batch
			// may legitimately appear (fsync refused after a complete
			// write: commit reported failed, bytes are whole on disk) —
			// and a hand-torn tail may drop the last committed batch's
			// bytes, which replay reports as a torn tail, never silently.
			minWant := committed
			if tornByHand {
				minWant--
			}
			if len(replayed) < minWant || len(replayed) > committed+1 {
				t.Fatalf("replayed %d batches, committed %d (torn_by_hand=%v)", len(replayed), committed, tornByHand)
			}
			if len(replayed) < committed && !info.TornTail {
				t.Fatal("replay dropped a committed batch without reporting a torn tail")
			}
			for i, seq := range replayed {
				if seq != uint64(i+1) {
					t.Fatalf("replayed seq[%d] = %d; not a contiguous prefix", i, seq)
				}
			}

			// The recovered state must match the independent reference
			// for exactly the replayed prefix, counts recounted exactly.
			requireRecoveredExact(t, trial, recovered, edgeSetAfter(batches[:len(replayed)]))

			// Recovery must be re-runnable: a second replay (the next
			// boot) sees the truncated, self-consistent log.
			n := 0
			info2, err := wal.Replay(dir, func(wal.Batch) error { n++; return nil }, nil)
			if err != nil {
				t.Fatalf("second replay: %v", err)
			}
			if n != len(replayed) || info2.TornTail {
				t.Fatalf("second replay saw %d batches (torn=%v), first saw %d", n, info2.TornTail, len(replayed))
			}
		})
	}
}

// TestWALMidLogCorruptionTyped pins the other half of the recovery
// contract: damage that is not a final-segment tail — here a byte
// flipped inside an earlier, fsynced segment — must fail replay with
// the typed corruption error, never truncate-and-continue.
func TestWALMidLogCorruptionTyped(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	dir := t.TempDir()
	log, err := wal.Open(dir, wal.Options{SegmentBytes: 256, Sync: wal.SyncBatch})
	if err != nil {
		t.Fatal(err)
	}
	for _, ops := range randomWALBatches(rng, 30, 8) {
		if _, err := log.Append(ops); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(segs) < 2 {
		t.Fatalf("want >= 2 segments for a mid-log flip, got %d (%v)", len(segs), err)
	}
	sort.Strings(segs)
	first := segs[0]
	data, err := os.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(first, data, 0o644); err != nil {
		t.Fatal(err)
	}

	_, err = wal.Replay(dir, func(wal.Batch) error { return nil }, nil)
	if !errors.Is(err, wal.ErrCorrupt) {
		t.Fatalf("mid-log corruption returned %v, want wal.ErrCorrupt", err)
	}
	var ce *wal.CorruptionError
	if !errors.As(err, &ce) {
		t.Fatalf("corruption error is not typed: %T %v", err, err)
	}
	if ce.Segment == "" || ce.Reason == "" {
		t.Fatalf("corruption error lacks location detail: %+v", ce)
	}
}
