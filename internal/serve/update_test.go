package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"cncount"
	"cncount/internal/dynamic"
	"cncount/internal/wal"
)

// enableUpdates wires a fresh ingestion layer (dyn built from the
// server's resident graph) behind /v1/update, the way cncd does after
// recovery.
func enableUpdates(t *testing.T, s *Server, g *cncount.Graph, log *wal.Log) *dynamic.Graph {
	t.Helper()
	res, err := cncount.Count(g, cncount.Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	dyn, err := dynamic.FromCSR(g, res.Counts)
	if err != nil {
		t.Fatal(err)
	}
	s.EnableUpdates(NewIngester(s, dyn, 1, IngestOptions{WAL: log, Workers: 2, Name: "WI"}))
	return dyn
}

// postJSON posts body to path and decodes the JSON response.
func postJSON(t *testing.T, ts *httptest.Server, path, body string, out any) (int, http.Header) {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("POST %s: not JSON: %v\n%s", path, err, raw)
		}
	}
	return resp.StatusCode, resp.Header
}

// nonEdge finds a vertex pair of g that is not an edge.
func nonEdge(t *testing.T, g *cncount.Graph) (u, v cncount.VertexID) {
	t.Helper()
	for uu := 0; uu < g.NumVertices(); uu++ {
		for vv := uu + 1; vv < g.NumVertices(); vv++ {
			if !g.HasEdge(cncount.VertexID(uu), cncount.VertexID(vv)) {
				return cncount.VertexID(uu), cncount.VertexID(vv)
			}
		}
	}
	t.Fatal("graph is complete")
	return 0, 0
}

func TestUpdateEndpointLifecycle(t *testing.T) {
	g := testGraph(t)
	s, ts := newTestServer(t, g, Options{})

	// Before EnableUpdates the endpoint is 503 with a typed code.
	var errBody struct {
		Code      string `json:"code"`
		RequestID string `json:"request_id"`
	}
	status, _ := postJSON(t, ts, "/v1/update", `{"ops":[{"op":"insert","u":0,"v":1}]}`, &errBody)
	if status != http.StatusServiceUnavailable || errBody.Code != "updates_unavailable" {
		t.Fatalf("pre-enable update = %d code %q, want 503 updates_unavailable", status, errBody.Code)
	}
	if errBody.RequestID == "" {
		t.Error("error body missing request_id")
	}

	enableUpdates(t, s, g, nil)

	// Before the first batch the ingest section already names the epoch
	// the server is serving.
	var boot struct {
		Epoch  uint64      `json:"epoch"`
		Ingest *IngestInfo `json:"ingest"`
	}
	if st, _ := getJSON(t, ts, "/v1/info", &boot); st != http.StatusOK || boot.Ingest == nil {
		t.Fatalf("info = %d ingest=%v, want 200 with ingest section", st, boot.Ingest)
	}
	if boot.Ingest.Epoch != boot.Epoch {
		t.Errorf("pre-batch ingest epoch = %d, server epoch = %d", boot.Ingest.Epoch, boot.Epoch)
	}

	// GET on the update endpoint is 405 (POST-only), and the GET
	// endpoints still reject POST.
	if st, _ := getJSON(t, ts, "/v1/update", nil); st != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/update = %d, want 405", st)
	}
	if st, _ := postJSON(t, ts, "/v1/info", `{}`, nil); st != http.StatusMethodNotAllowed {
		t.Errorf("POST /v1/info = %d, want 405", st)
	}

	u, v := nonEdge(t, g)
	var acc struct {
		Epoch   uint64 `json:"epoch"`
		Seq     uint64 `json:"seq"`
		Applied int    `json:"applied"`
	}
	status, _ = postJSON(t, ts, "/v1/update",
		fmt.Sprintf(`{"ops":[{"op":"insert","u":%d,"v":%d}]}`, u, v), &acc)
	if status != http.StatusAccepted {
		t.Fatalf("update = %d, want 202", status)
	}
	if acc.Epoch != 2 || acc.Seq != 1 || acc.Applied != 1 {
		t.Fatalf("accepted = %+v, want epoch 2 seq 1 applied 1", acc)
	}
	if s.Epoch() != 2 {
		t.Fatalf("server epoch = %d, want 2", s.Epoch())
	}

	// The inserted edge is immediately queryable on the new epoch.
	var pair struct {
		Epoch  uint64 `json:"epoch"`
		IsEdge bool   `json:"is_edge"`
	}
	if st, _ := getJSON(t, ts, fmt.Sprintf("/v1/pair?u=%d&v=%d", u, v), &pair); st != http.StatusOK {
		t.Fatalf("pair after insert = %d", st)
	}
	if !pair.IsEdge || pair.Epoch != 2 {
		t.Fatalf("pair after insert = %+v, want is_edge on epoch 2", pair)
	}

	// /v1/info carries the ingest section.
	var info struct {
		Ingest *IngestInfo `json:"ingest"`
	}
	if st, _ := getJSON(t, ts, "/v1/info", &info); st != http.StatusOK || info.Ingest == nil {
		t.Fatalf("info = %d ingest=%v, want 200 with ingest section", st, info.Ingest)
	}
	if info.Ingest.Batches != 1 || info.Ingest.LastSeq != 1 || info.Ingest.Epoch != 2 || info.Ingest.Durable {
		t.Fatalf("ingest info = %+v", *info.Ingest)
	}
}

// TestUpdateRejectsBadBatches is the 409 regression test: a batch with
// an out-of-range vertex id (or self-loop) is rejected whole with a
// typed, machine-readable JSON error, the graph and epoch stay
// untouched, and nothing about the rejection is cached.
func TestUpdateRejectsBadBatches(t *testing.T) {
	g := testGraph(t)
	s, ts := newTestServer(t, g, Options{})
	enableUpdates(t, s, g, nil)
	u, v := nonEdge(t, g)

	var errBody struct {
		Code  string `json:"code"`
		Error string `json:"error"`
	}
	cases := []struct {
		name, body string
		status     int
		code       string
	}{
		{"out-of-range vertex", fmt.Sprintf(`{"ops":[{"op":"insert","u":%d,"v":%d},{"op":"insert","u":%d,"v":0}]}`,
			u, v, g.NumVertices()), http.StatusConflict, "invalid_op"},
		{"self-loop", `{"ops":[{"op":"insert","u":3,"v":3}]}`, http.StatusConflict, "invalid_op"},
		{"unknown op name", `{"ops":[{"op":"upsert","u":0,"v":1}]}`, http.StatusBadRequest, "invalid_op"},
		{"empty batch", `{"ops":[]}`, http.StatusBadRequest, ""},
		{"malformed body", `{"ops":`, http.StatusBadRequest, ""},
	}
	for _, tc := range cases {
		errBody = struct {
			Code  string `json:"code"`
			Error string `json:"error"`
		}{}
		status, hdr := postJSON(t, ts, "/v1/update", tc.body, &errBody)
		if status != tc.status || errBody.Code != tc.code {
			t.Errorf("%s = %d code %q, want %d code %q (error: %s)",
				tc.name, status, errBody.Code, tc.status, tc.code, errBody.Error)
		}
		if hdr.Get("X-Cache") != "" {
			t.Errorf("%s: rejection carried X-Cache %q; rejections must never touch the cache", tc.name, hdr.Get("X-Cache"))
		}
	}
	// The valid leading op of the out-of-range batch must not have
	// leaked: batches are atomic.
	if s.Epoch() != 1 {
		t.Fatalf("epoch after rejections = %d, want 1 (no batch committed)", s.Epoch())
	}
	var pair struct {
		IsEdge bool `json:"is_edge"`
	}
	getJSON(t, ts, fmt.Sprintf("/v1/pair?u=%d&v=%d", u, v), &pair)
	if pair.IsEdge {
		t.Fatal("rejected batch partially applied: its first op is visible")
	}
}

// TestUpdateInvalidatesCache pins the epoch-keyed invalidation story:
// a cached pair result stops being served the moment an update batch
// installs a new epoch, with no explicit invalidation call.
func TestUpdateInvalidatesCache(t *testing.T) {
	g := testGraph(t)
	s, ts := newTestServer(t, g, Options{})
	enableUpdates(t, s, g, nil)
	u, v := nonEdge(t, g)
	q := fmt.Sprintf("/v1/pair?u=%d&v=%d", u, v)

	var pair struct {
		IsEdge bool `json:"is_edge"`
	}
	if _, xc := getJSON(t, ts, q, &pair); xc != "MISS" {
		t.Fatalf("first query X-Cache = %q, want MISS", xc)
	}
	if _, xc := getJSON(t, ts, q, &pair); xc != "HIT" {
		t.Fatalf("second query X-Cache = %q, want HIT", xc)
	}
	if pair.IsEdge {
		t.Fatal("pair is an edge before the update")
	}

	status, _ := postJSON(t, ts, "/v1/update",
		fmt.Sprintf(`{"ops":[{"op":"insert","u":%d,"v":%d}]}`, u, v), nil)
	if status != http.StatusAccepted {
		t.Fatalf("update = %d", status)
	}

	if _, xc := getJSON(t, ts, q, &pair); xc != "MISS" {
		t.Fatalf("post-update query X-Cache = %q, want MISS (new epoch)", xc)
	}
	if !pair.IsEdge {
		t.Fatal("post-update query served the stale cached body")
	}
}

// TestUpdateEpochAndSeqMonotonic pins that concurrent-free sequential
// batches get strictly increasing sequence numbers and epochs, and
// that the WAL records them in exactly that order.
func TestUpdateEpochAndSeqMonotonic(t *testing.T) {
	g := testGraph(t)
	s, ts := newTestServer(t, g, Options{})
	dir := t.TempDir()
	log, err := wal.Open(dir, wal.Options{Sync: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	enableUpdates(t, s, g, log)

	u, v := nonEdge(t, g)
	var lastSeq, lastEpoch uint64
	for i := 0; i < 5; i++ {
		op := "insert"
		if i%2 == 1 {
			op = "delete"
		}
		var acc struct {
			Epoch uint64 `json:"epoch"`
			Seq   uint64 `json:"seq"`
		}
		status, _ := postJSON(t, ts, "/v1/update",
			fmt.Sprintf(`{"ops":[{"op":%q,"u":%d,"v":%d}]}`, op, u, v), &acc)
		if status != http.StatusAccepted {
			t.Fatalf("batch %d = %d", i, status)
		}
		if acc.Seq != lastSeq+1 || acc.Epoch != lastEpoch+1 && lastEpoch != 0 {
			t.Fatalf("batch %d: seq %d epoch %d after seq %d epoch %d", i, acc.Seq, acc.Epoch, lastSeq, lastEpoch)
		}
		if acc.Epoch <= lastEpoch {
			t.Fatalf("batch %d: epoch %d not monotonic after %d", i, acc.Epoch, lastEpoch)
		}
		lastSeq, lastEpoch = acc.Seq, acc.Epoch
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	// The WAL holds exactly those batches in order.
	var seqs []uint64
	info, err := wal.Replay(dir, func(b wal.Batch) error {
		seqs = append(seqs, b.Seq)
		return nil
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if info.Batches != 5 || info.TornTail {
		t.Fatalf("replay info = %+v, want 5 clean batches", info)
	}
	for i, seq := range seqs {
		if seq != uint64(i+1) {
			t.Fatalf("replayed seq[%d] = %d", i, seq)
		}
	}
}

// TestUpdateRecoveryRoundTrip replays a WAL written through the HTTP
// surface into a fresh dynamic graph and requires the maintained
// triangle total to match the recovered server's fresh recount — the
// package-level version of the crash-recovery contract.
func TestUpdateRecoveryRoundTrip(t *testing.T) {
	g := testGraph(t)
	s, ts := newTestServer(t, g, Options{})
	dir := t.TempDir()
	log, err := wal.Open(dir, wal.Options{Sync: wal.SyncBatch})
	if err != nil {
		t.Fatal(err)
	}
	dyn := enableUpdates(t, s, g, log)

	u, v := nonEdge(t, g)
	batches := [][2]string{
		{fmt.Sprintf(`{"ops":[{"op":"insert","u":%d,"v":%d}]}`, u, v), "insert"},
		{`{"ops":[{"op":"insert","u":0,"v":1},{"op":"insert","u":0,"v":2},{"op":"insert","u":1,"v":2}]}`, "triangle"},
		{fmt.Sprintf(`{"ops":[{"op":"delete","u":%d,"v":%d}]}`, u, v), "delete"},
	}
	for _, b := range batches {
		if status, _ := postJSON(t, ts, "/v1/update", b[0], nil); status != http.StatusAccepted {
			t.Fatalf("%s batch = %d", b[1], status)
		}
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	// Recover: fresh dyn from the original graph + WAL replay.
	res, err := cncount.Count(g, cncount.Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	recovered, err := dynamic.FromCSR(g, res.Counts)
	if err != nil {
		t.Fatal(err)
	}
	info, err := wal.Replay(dir, func(b wal.Batch) error {
		_, err := recovered.ApplyBatch(b.Ops, 2)
		return err
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if info.Batches != 3 {
		t.Fatalf("replayed %d batches, want 3", info.Batches)
	}
	if got, want := recovered.Triangles(), dyn.Triangles(); got != want {
		t.Fatalf("recovered triangles = %d, live = %d", got, want)
	}
	if recovered.NumEdges() != dyn.NumEdges() {
		t.Fatalf("recovered edges = %d, live = %d", recovered.NumEdges(), dyn.NumEdges())
	}
}
