package server

import (
	"context"
	"net/http"
	"testing"
	"time"

	mstsearch "mstsearch"
	"mstsearch/internal/gstd"
	"mstsearch/internal/shard"
	"mstsearch/internal/testutil"
)

// The Engine contract behind the default serving path: a query reaches a
// cluster through the coalescer and Cluster.KMostSimilarBatch, and must
// answer exactly what the engine answers directly — its metric, its
// errors, each slot's own deadline.

// newTestCluster builds a 2-shard in-memory cluster of the given kind over
// the synthetic fleet newTestDB serves.
func newTestCluster(t testing.TB, kind mstsearch.IndexKind, objects int) *shard.Cluster {
	t.Helper()
	data := gstd.Generate(gstd.Config{NumObjects: objects, SamplesPerObject: 48, Seed: 7})
	c, err := shard.New(kind, 2, shard.HashPlacement{}, shard.Options{})
	if err != nil {
		t.Fatalf("shard.New: %v", err)
	}
	for i := range data.Trajs {
		if err := c.Add(data.Trajs[i]); err != nil {
			t.Fatalf("Add: %v", err)
		}
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestQueryMetricThroughCoalescedCluster sends a DTW /v1/query to a
// cluster behind DefaultConfig (so through the coalescer): an N-tree
// cluster must answer the cluster's own DTW top-k, and an RTree3D cluster,
// which cannot serve DTW, must refuse with 400 bad_request.
func TestQueryMetricThroughCoalescedCluster(t *testing.T) {
	testutil.CheckGoroutines(t)
	body := queryBody(5, 0)
	body.Metric = "dtw"
	q := mstsearch.Trajectory{ID: 0}
	for _, s := range body.Query.Samples {
		q.Samples = append(q.Samples, mstsearch.Sample{X: s[0], Y: s[1], T: s[2]})
	}

	c := newTestCluster(t, mstsearch.NTree, 60)
	want, err := c.Query(context.Background(), mstsearch.Request{
		Q: &q, Interval: mstsearch.Interval{T1: body.T1, T2: body.T2}, K: body.K,
		Metric: mstsearch.MetricDTW,
	})
	if err != nil {
		t.Fatalf("cluster DTW query: %v", err)
	}
	ts := newHTTPServer(t, NewEngine(c, DefaultConfig()))
	var resp QueryResponse
	if status, _ := postJSON(t, ts.URL+"/v1/query", body, &resp, nil); status != http.StatusOK {
		t.Fatalf("N-tree cluster: status %d, want 200", status)
	}
	if len(resp.Results) != len(want.Results) {
		t.Fatalf("N-tree cluster: %d results, want %d", len(resp.Results), len(want.Results))
	}
	for i, r := range want.Results {
		if resp.Results[i].ID != uint32(r.TrajID) {
			t.Fatalf("N-tree cluster rank %d: served id %d, DTW answer %d", i, resp.Results[i].ID, r.TrajID)
		}
	}

	ts = newHTTPServer(t, NewEngine(newTestCluster(t, mstsearch.RTree3D, 60), DefaultConfig()))
	var env ErrorEnvelope
	status, _ := postJSON(t, ts.URL+"/v1/query", body, &env, nil)
	if status != http.StatusBadRequest || env.Error.Code != CodeBadRequest {
		t.Fatalf("RTree3D cluster: status %d code %q, want 400 %q", status, env.Error.Code, CodeBadRequest)
	}
}

// TestBatchSlotDeadline sends a /v1/batch whose middle slot carries a 1 ms
// deadline that a 20 ms handler stall has already spent: that slot alone
// must report deadline_exceeded (not canceled), and its neighbours must
// answer, on a single DB and on a cluster alike.
func TestBatchSlotDeadline(t *testing.T) {
	testutil.CheckGoroutines(t)
	engines := map[string]Engine{
		"db":      newTestDB(t, 60),
		"cluster": newTestCluster(t, mstsearch.RTree3D, 60),
	}
	for name, eng := range engines {
		t.Run(name, func(t *testing.T) {
			srv := NewEngine(eng, DefaultConfig())
			srv.testHookPreHandle = func(string) { time.Sleep(20 * time.Millisecond) }
			ts := newHTTPServer(t, srv)
			tight := queryBody(3, 1)
			var resp BatchResponse
			status, _ := postJSON(t, ts.URL+"/v1/batch",
				BatchRequest{Queries: []QueryRequest{queryBody(3, 0), tight, queryBody(3, 0)}}, &resp, nil)
			if status != http.StatusOK || len(resp.Results) != 3 {
				t.Fatalf("status %d with %d slots, want 200 with 3", status, len(resp.Results))
			}
			for i, slot := range resp.Results {
				got := "ok"
				if slot.Error != nil {
					got = slot.Error.Code
				}
				want := "ok"
				if i == 1 {
					want = CodeDeadlineExceeded
				}
				if got != want {
					t.Fatalf("slot %d: %s, want %s (%+v)", i, got, want, slot.Error)
				}
			}
		})
	}
}
