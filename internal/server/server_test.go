package server

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	mstsearch "mstsearch"
	"mstsearch/internal/gstd"
	"mstsearch/internal/testutil"
)

// newTestDB builds an in-memory fleet DB, the way mstserve serves it.
func newTestDB(t testing.TB, objects int) *mstsearch.DB {
	t.Helper()
	data := gstd.Generate(gstd.Config{NumObjects: objects, SamplesPerObject: 48, Seed: 7})
	db, err := mstsearch.NewDB(mstsearch.RTree3D, data.Trajs)
	if err != nil {
		t.Fatalf("NewDB: %v", err)
	}
	return db
}

// newTestServer wires a DB into a Server plus an httptest listener; both
// are torn down with the test, leak-checked.
func newTestServer(t testing.TB, db *mstsearch.DB, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	testutil.CheckGoroutines(t)
	srv := New(db, cfg)
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

// queryBody builds a valid query request against the synthetic fleet's
// unit workspace.
func queryBody(k int, deadlineMS int64) QueryRequest {
	rng := rand.New(rand.NewSource(42))
	samples := make([][3]float64, 8)
	x, y := 0.5, 0.5
	for i := range samples {
		x += (rng.Float64() - 0.5) * 0.05
		y += (rng.Float64() - 0.5) * 0.05
		samples[i] = [3]float64{x, y, 0.1 + float64(i)*0.1}
	}
	return QueryRequest{
		Query: TrajectoryJSON{ID: 0, Samples: samples},
		T1:    0.1, T2: 0.8, K: k, DeadlineMS: deadlineMS,
	}
}

// postJSON POSTs a value and decodes the response body.
func postJSON(t testing.TB, url string, req any, resp any, headers map[string]string) (int, http.Header) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	httpReq, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatalf("new request: %v", err)
	}
	httpReq.Header.Set("Content-Type", "application/json")
	for k, v := range headers {
		httpReq.Header.Set(k, v)
	}
	res, err := http.DefaultClient.Do(httpReq)
	if err != nil {
		t.Fatalf("do: %v", err)
	}
	defer res.Body.Close()
	if resp != nil {
		if err := json.NewDecoder(res.Body).Decode(resp); err != nil {
			t.Fatalf("decode %s (status %d): %v", url, res.StatusCode, err)
		}
	}
	return res.StatusCode, res.Header
}

func TestQueryEndpoint(t *testing.T) {
	db := newTestDB(t, 60)
	_, ts := newTestServer(t, db, DefaultConfig())

	var resp QueryResponse
	status, _ := postJSON(t, ts.URL+"/v1/query", queryBody(5, 0), &resp, nil)
	if status != http.StatusOK {
		t.Fatalf("status = %d, want 200", status)
	}
	if len(resp.Results) != 5 {
		t.Fatalf("got %d results, want 5", len(resp.Results))
	}
	if resp.Degraded {
		t.Fatalf("unbudgeted query reported degraded")
	}
	for i := 1; i < len(resp.Results); i++ {
		if resp.Results[i].Dissim < resp.Results[i-1].Dissim {
			t.Fatalf("results not sorted by dissimilarity")
		}
	}
	// The answers must match the library running the same query directly.
	q := queryBody(5, 0)
	tr := mstsearch.Trajectory{ID: 0}
	for _, s := range q.Query.Samples {
		tr.Samples = append(tr.Samples, mstsearch.Sample{X: s[0], Y: s[1], T: s[2]})
	}
	want, err := db.Query(context.Background(), mstsearch.Request{
		Q: &tr, Interval: mstsearch.Interval{T1: q.T1, T2: q.T2}, K: q.K,
	})
	if err != nil {
		t.Fatalf("library query: %v", err)
	}
	if len(want.Results) != len(resp.Results) {
		t.Fatalf("server %d results, library %d", len(resp.Results), len(want.Results))
	}
	for i, r := range want.Results {
		got := resp.Results[i]
		if got.ID != uint32(r.TrajID) || math.Float64bits(got.Dissim) != math.Float64bits(r.Dissim) {
			t.Fatalf("result %d: server traj %d (%v), library traj %d (%v)", i, got.ID, got.Dissim, r.TrajID, r.Dissim)
		}
	}
}

func TestQueryBudgetDegrades(t *testing.T) {
	db := newTestDB(t, 80)
	cfg := DefaultConfig()
	cfg.Budgets = Budget{MaxNodeAccesses: 2} // starve it
	_, ts := newTestServer(t, db, cfg)

	var resp QueryResponse
	status, _ := postJSON(t, ts.URL+"/v1/query", queryBody(5, 0), &resp, nil)
	if status != http.StatusOK {
		t.Fatalf("status = %d, want 200 (budget exhaustion degrades, not fails)", status)
	}
	if !resp.Degraded {
		t.Fatalf("2-node budget did not degrade the response")
	}
	for _, r := range resp.Results {
		if r.Certified {
			t.Fatalf("degraded response certified result %d", r.ID)
		}
	}
}

func TestTenantBudgetOverride(t *testing.T) {
	db := newTestDB(t, 80)
	cfg := DefaultConfig()
	cfg.TenantBudgets = map[string]Budget{"starved": {MaxNodeAccesses: 2}}
	_, ts := newTestServer(t, db, cfg)

	var starved, free QueryResponse
	postJSON(t, ts.URL+"/v1/query", queryBody(5, 0), &starved, map[string]string{"X-Tenant": "starved"})
	postJSON(t, ts.URL+"/v1/query", queryBody(5, 0), &free, map[string]string{"X-Tenant": "other"})
	if !starved.Degraded {
		t.Fatalf("starved tenant not degraded")
	}
	if free.Degraded {
		t.Fatalf("unbudgeted tenant degraded")
	}
}

func TestQueryDeadlineExceeded(t *testing.T) {
	db := newTestDB(t, 200)
	cfg := DefaultConfig()
	cfg.CoalesceWindow = 0 // direct path; deadline must still propagate
	srv, ts := newTestServer(t, db, cfg)
	// Stall inside the handler so even a fast query overruns a 1 ms
	// deadline deterministically.
	srv.testHookPreHandle = func(route string) { time.Sleep(20 * time.Millisecond) }

	var env ErrorEnvelope
	status, _ := postJSON(t, ts.URL+"/v1/query", queryBody(5, 1), &env, nil)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504", status)
	}
	if env.Error.Code != CodeDeadlineExceeded {
		t.Fatalf("code = %q, want %q", env.Error.Code, CodeDeadlineExceeded)
	}
	if !env.Error.Retryable {
		t.Fatalf("deadline_exceeded must be retryable")
	}
}

func TestQueryCoalescing(t *testing.T) {
	db := newTestDB(t, 60)
	cfg := DefaultConfig()
	cfg.CoalesceWindow = 5 * time.Millisecond
	cfg.CoalesceMax = 8
	cfg.MaxConcurrent = 32
	cfg.QueueDepth = 32
	_, ts := newTestServer(t, db, cfg)

	before := ctrCoalesceBatch.Load()
	const n = 16
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var resp QueryResponse
			status, _ := postJSON(t, ts.URL+"/v1/query", queryBody(3, 0), &resp, nil)
			if status != http.StatusOK {
				t.Errorf("status = %d", status)
			}
		}()
	}
	wg.Wait()
	batches := ctrCoalesceBatch.Load() - before
	if batches == 0 {
		t.Fatalf("no coalesced batches ran")
	}
	if batches >= n {
		t.Fatalf("no coalescing happened: %d batches for %d queries", batches, n)
	}
}

func TestBatchEndpointSlotIsolation(t *testing.T) {
	db := newTestDB(t, 60)
	_, ts := newTestServer(t, db, DefaultConfig())

	good := queryBody(3, 0)
	bad := queryBody(3, 0)
	bad.T1, bad.T2 = 0.8, 0.1 // inverted interval: ErrBadQuery for this slot only
	var resp BatchResponse
	status, _ := postJSON(t, ts.URL+"/v1/batch", BatchRequest{Queries: []QueryRequest{good, bad, good}}, &resp, nil)
	if status != http.StatusOK {
		t.Fatalf("status = %d, want 200", status)
	}
	if len(resp.Results) != 3 {
		t.Fatalf("got %d slots, want 3", len(resp.Results))
	}
	if resp.Results[0].Error != nil || resp.Results[2].Error != nil {
		t.Fatalf("good slots failed: %+v", resp.Results)
	}
	if resp.Results[1].Error == nil || resp.Results[1].Error.Code != CodeBadRequest {
		t.Fatalf("bad slot not isolated: %+v", resp.Results[1])
	}
}

func TestRangeNearestTopology(t *testing.T) {
	db := newTestDB(t, 40)
	_, ts := newTestServer(t, db, DefaultConfig())

	w := WindowJSON{MinX: 0.2, MinY: 0.2, MaxX: 0.8, MaxY: 0.8}
	var rresp RangeResponse
	if status, _ := postJSON(t, ts.URL+"/v1/range", RangeRequest{Window: w, T1: 0, T2: 1}, &rresp, nil); status != 200 {
		t.Fatalf("range status = %d", status)
	}
	if len(rresp.Segments) == 0 {
		t.Fatalf("range over most of the workspace found nothing")
	}

	var nresp NearestResponse
	if status, _ := postJSON(t, ts.URL+"/v1/nearest", NearestRequest{X: 0.5, Y: 0.5, T: 0.5, K: 3}, &nresp, nil); status != 200 {
		t.Fatalf("nearest status = %d", status)
	}
	if len(nresp.Neighbors) != 3 {
		t.Fatalf("nearest got %d, want 3", len(nresp.Neighbors))
	}

	var tresp TopologyResponse
	if status, _ := postJSON(t, ts.URL+"/v1/topology", TopologyRequest{Window: w, T1: 0, T2: 1}, &tresp, nil); status != 200 {
		t.Fatalf("topology status = %d", status)
	}
	if len(tresp.Entries) == 0 {
		t.Fatalf("topology found nothing")
	}
}

func TestIngestAppendAndIdempotency(t *testing.T) {
	db := newTestDB(t, 10)
	_, ts := newTestServer(t, db, DefaultConfig())

	tr := TrajectoryJSON{ID: 9001, Samples: [][3]float64{{0.1, 0.1, 0}, {0.2, 0.2, 0.5}, {0.3, 0.3, 1}}}
	key := map[string]string{"Idempotency-Key": "ing-1"}

	var first IngestResponse
	if status, _ := postJSON(t, ts.URL+"/v1/ingest", IngestRequest{Trajectory: tr}, &first, key); status != 200 {
		t.Fatalf("ingest status = %d", status)
	}
	if first.Replayed {
		t.Fatalf("first ingest claims replayed")
	}

	// A retry with the same key replays instead of failing with conflict.
	var second IngestResponse
	if status, _ := postJSON(t, ts.URL+"/v1/ingest", IngestRequest{Trajectory: tr}, &second, key); status != 200 {
		t.Fatalf("retried ingest status = %d, want 200 replay", status)
	}
	if !second.Replayed || second.ID != first.ID {
		t.Fatalf("retry not replayed: %+v", second)
	}

	// The same body without a key is a genuine duplicate: 409.
	var env ErrorEnvelope
	if status, _ := postJSON(t, ts.URL+"/v1/ingest", IngestRequest{Trajectory: tr}, &env, nil); status != http.StatusConflict {
		t.Fatalf("duplicate ingest status = %d, want 409", status)
	}
	if env.Error.Code != CodeConflict {
		t.Fatalf("duplicate code = %q", env.Error.Code)
	}

	var app AppendResponse
	if status, _ := postJSON(t, ts.URL+"/v1/append", AppendRequest{ID: 9001, Sample: [3]float64{0.4, 0.4, 1.5}}, &app, nil); status != 200 {
		t.Fatalf("append status = %d", status)
	}
	if app.Samples != 4 {
		t.Fatalf("append samples = %d, want 4", app.Samples)
	}
	var env2 ErrorEnvelope
	if status, _ := postJSON(t, ts.URL+"/v1/append", AppendRequest{ID: 40404, Sample: [3]float64{0, 0, 9}}, &env2, nil); status != http.StatusNotFound {
		t.Fatalf("append to unknown id status = %d, want 404", status)
	}
}

func TestShedWhenSaturated(t *testing.T) {
	db := newTestDB(t, 40)
	cfg := DefaultConfig()
	cfg.MaxConcurrent = 1
	cfg.QueueDepth = 1
	cfg.QueueWait = 50 * time.Millisecond
	srv, ts := newTestServer(t, db, cfg)

	// Pin the single slot with a stalled request.
	block := make(chan struct{})
	var once sync.Once
	srv.testHookPreHandle = func(string) { once.Do(func() { <-block }) }
	defer close(block)

	go func() {
		var resp QueryResponse
		postJSON(t, ts.URL+"/v1/query", queryBody(3, 0), &resp, nil)
	}()
	// Wait until the blocker owns the slot.
	deadline := time.Now().Add(2 * time.Second)
	for len(srv.adm.sem) == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("blocker never took the slot")
		}
		time.Sleep(time.Millisecond)
	}

	// One request fills the queue; more must shed with 429 + Retry-After.
	statuses := make(chan int, 8)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var env ErrorEnvelope
			status, hdr := postJSON(t, ts.URL+"/v1/query", queryBody(3, 0), &env, nil)
			statuses <- status
			if status == 429 {
				if env.Error.Code != CodeOverloaded {
					t.Errorf("shed code = %q, want %q", env.Error.Code, CodeOverloaded)
				}
				if hdr.Get("Retry-After") == "" {
					t.Errorf("shed response missing Retry-After")
				}
				if !env.Error.Retryable {
					t.Errorf("shed response not retryable")
				}
			}
		}()
	}
	wg.Wait()
	close(statuses)
	sheds := 0
	for s := range statuses {
		if s == 429 {
			sheds++
		}
	}
	if sheds < 7 { // 8 requests, ≤1 queue slot ⇒ at least 7 shed
		t.Fatalf("only %d/8 requests shed with one slot and queue depth 1", sheds)
	}
}

func TestTenantRateLimit(t *testing.T) {
	db := newTestDB(t, 20)
	cfg := DefaultConfig()
	cfg.TenantRPS = 1
	cfg.TenantBurst = 2
	_, ts := newTestServer(t, db, cfg)

	hdr := map[string]string{"X-Tenant": "chatty"}
	codes := make([]int, 0, 4)
	for i := 0; i < 4; i++ {
		var raw json.RawMessage
		status, _ := postJSON(t, ts.URL+"/v1/query", queryBody(2, 0), &raw, hdr)
		codes = append(codes, status)
	}
	limited := 0
	for _, c := range codes {
		if c == 429 {
			limited++
		}
	}
	if limited == 0 {
		t.Fatalf("burst-2 bucket never limited 4 back-to-back requests: %v", codes)
	}
	// A different tenant is unaffected.
	var resp QueryResponse
	if status, _ := postJSON(t, ts.URL+"/v1/query", queryBody(2, 0), &resp, map[string]string{"X-Tenant": "quiet"}); status != 200 {
		t.Fatalf("other tenant limited too: %d", status)
	}
}

func TestBadRequestsAreTyped(t *testing.T) {
	db := newTestDB(t, 10)
	_, ts := newTestServer(t, db, DefaultConfig())

	cases := []struct {
		name string
		body string
	}{
		{"malformed json", `{"query":`},
		{"unknown field", `{"qwery": {}}`},
		{"k missing", `{"query":{"id":0,"samples":[[0,0,0],[1,1,1]]},"t1":0,"t2":1}`},
		{"one sample", `{"query":{"id":0,"samples":[[0,0,0]]},"t1":0,"t2":1,"k":1}`},
		{"inverted interval", `{"query":{"id":0,"samples":[[0,0,0],[1,1,1]]},"t1":1,"t2":0,"k":1}`},
	}
	for _, tc := range cases {
		res, err := http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var env ErrorEnvelope
		if err := json.NewDecoder(res.Body).Decode(&env); err != nil {
			t.Fatalf("%s: undecodable error body: %v", tc.name, err)
		}
		res.Body.Close()
		if res.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", tc.name, res.StatusCode)
		}
		if env.Error.Code != CodeBadRequest {
			t.Errorf("%s: code = %q, want %q", tc.name, env.Error.Code, CodeBadRequest)
		}
	}
}

func TestHealthAndMetrics(t *testing.T) {
	db := newTestDB(t, 20)
	_, ts := newTestServer(t, db, DefaultConfig())

	res, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	var h HealthResponse
	if err := json.NewDecoder(res.Body).Decode(&h); err != nil {
		t.Fatalf("healthz decode: %v", err)
	}
	res.Body.Close()
	if h.Status != "ok" || h.Trajectories != 20 {
		t.Fatalf("healthz = %+v", h)
	}

	// Run one query, then confirm the route counters show up in /metrics.
	var qr QueryResponse
	postJSON(t, ts.URL+"/v1/query", queryBody(2, 0), &qr, nil)
	res, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	var snap map[string]any
	if err := json.NewDecoder(res.Body).Decode(&snap); err != nil {
		t.Fatalf("metrics decode: %v", err)
	}
	res.Body.Close()
	found := false
	for k := range snap {
		if strings.Contains(k, "server.requests.query") || k == "counters" || k == "Counters" {
			found = true
		}
	}
	if !found {
		// The expvar shape nests; just require the body mention the family.
		buf, _ := json.Marshal(snap)
		if !bytes.Contains(buf, []byte("server.requests.query.total")) {
			t.Fatalf("metrics body lacks server.requests.query.total: %s", buf[:min(len(buf), 400)])
		}
	}
}

func TestExplainEndpoint(t *testing.T) {
	db := newTestDB(t, 30)
	_, ts := newTestServer(t, db, DefaultConfig())

	var resp ExplainResponse
	status, _ := postJSON(t, ts.URL+"/v1/explain", queryBody(3, 0), &resp, nil)
	if status != 200 {
		t.Fatalf("explain status = %d", status)
	}
	if !strings.Contains(resp.Transcript, "EXPLAIN") && len(resp.Transcript) == 0 {
		t.Fatalf("empty explain transcript")
	}
	if resp.ResultCount != 3 {
		t.Fatalf("explain result count = %d, want 3", resp.ResultCount)
	}
}

func TestServerCloseRefusesNewWork(t *testing.T) {
	db := newTestDB(t, 20)
	testutil.CheckGoroutines(t)
	srv := New(db, DefaultConfig())
	ts := httptest.NewServer(srv)
	defer ts.Close()

	srv.Close()
	var env ErrorEnvelope
	status, _ := postJSON(t, ts.URL+"/v1/query", queryBody(2, 0), &env, nil)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("post-Close status = %d, want 503", status)
	}
	if env.Error.Code != CodeUnavailable {
		t.Fatalf("post-Close code = %q", env.Error.Code)
	}
	srv.Close() // idempotent
}
