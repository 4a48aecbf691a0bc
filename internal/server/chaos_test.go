package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	mstsearch "mstsearch"
	"mstsearch/internal/gstd"
	"mstsearch/internal/storage"
	"mstsearch/internal/testutil"
)

// TestChaosSoak is the serving layer's acceptance soak: a saturating mix
// of clients — normal queries, deadline storms, mid-request hang-ups,
// keyed ingest retries — against a server whose storage injects
// transient read faults and whose handlers are randomly slowed. The
// server must come out clean:
//
//   - never deadlocks (the soak completes; requests don't wedge)
//   - never leaks goroutines (testutil.CheckGoroutines)
//   - /healthz answers throughout, even at full saturation
//   - every failure is a typed, documented envelope — no bare 500 prose
//
// Run normally it soaks ~2s; under -race in CI it is the server's
// concurrency gauntlet.
func TestChaosSoak(t *testing.T) {
	testutil.CheckGoroutines(t)

	data := gstd.Generate(gstd.Config{NumObjects: 60, SamplesPerObject: 40, Seed: 11})
	db, err := mstsearch.NewDB(mstsearch.RTree3D, data.Trajs)
	if err != nil {
		t.Fatal(err)
	}
	var pagerSeq atomic.Int64
	db.SetPagerWrapper(func(p mstsearch.Pager) mstsearch.Pager {
		return &storage.FaultyPager{
			Inner:         p,
			Seed:          pagerSeq.Add(1),
			ReadFaultRate: 0.02,
			Transient:     true,
		}
	})

	cfg := DefaultConfig()
	cfg.MaxConcurrent = 4
	cfg.QueueDepth = 4
	cfg.QueueWait = 20 * time.Millisecond
	cfg.DefaultDeadline = 250 * time.Millisecond
	cfg.CoalesceWindow = 2 * time.Millisecond
	cfg.Budgets = Budget{MaxNodeAccesses: 500}
	srv := New(db, cfg)

	// Chaos seam: some requests stall inside the handler, long enough to
	// saturate the limiter and overrun short deadlines.
	var hookSeq atomic.Int64
	srv.testHookPreHandle = func(route string) {
		n := hookSeq.Add(1)
		if n%7 == 0 {
			time.Sleep(time.Duration(n%4) * 10 * time.Millisecond)
		}
	}
	ts := httptest.NewServer(srv)
	defer func() {
		ts.Close()
		srv.Close()
	}()

	const (
		soakDuration = 2 * time.Second
		clients      = 12
	)
	ctx, cancel := context.WithTimeout(context.Background(), soakDuration)
	defer cancel()

	var (
		mu        sync.Mutex
		outcomes  = map[string]int{}
		anomalies []string
	)
	record := func(outcome string) {
		mu.Lock()
		outcomes[outcome]++
		mu.Unlock()
	}
	anomaly := func(format string, args ...any) {
		mu.Lock()
		if len(anomalies) < 20 {
			anomalies = append(anomalies, fmt.Sprintf(format, args...))
		}
		mu.Unlock()
	}

	// knownCodes is the documented taxonomy; anything else is a bug.
	knownCodes := map[string]bool{
		CodeBadRequest: true, CodeNotFound: true, CodeConflict: true,
		CodeRateLimited: true, CodeOverloaded: true, CodeDeadlineExceeded: true,
		CodeCanceled: true, CodeCorrupt: true, CodeUnavailable: true,
		CodeNotDurable: true, CodeInternal: true,
	}

	// checkResponse enforces the envelope contract on one response.
	checkResponse := func(kind string, res *http.Response) {
		defer func() {
			_, _ = io.Copy(io.Discard, res.Body)
			_ = res.Body.Close()
		}()
		body, err := io.ReadAll(res.Body)
		if err != nil {
			record(kind + ".readerr") // client-side disconnects cut bodies short
			return
		}
		if res.StatusCode < 400 {
			record(kind + ".ok")
			return
		}
		var env ErrorEnvelope
		if err := json.Unmarshal(body, &env); err != nil || env.Error.Code == "" {
			anomaly("%s: status %d with non-envelope body %q", kind, res.StatusCode, truncate(body))
			return
		}
		if !knownCodes[env.Error.Code] {
			anomaly("%s: undocumented error code %q", kind, env.Error.Code)
			return
		}
		if env.Error.Code == CodeInternal {
			anomaly("%s: internal error leaked: %s", kind, env.Error.Message)
			return
		}
		record(kind + "." + env.Error.Code)
	}

	post := func(ctx context.Context, path string, v any, headers map[string]string) (*http.Response, error) {
		buf, _ := json.Marshal(v)
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+path, bytes.NewReader(buf))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		for k, val := range headers {
			req.Header.Set(k, val)
		}
		return http.DefaultClient.Do(req)
	}

	var wg sync.WaitGroup

	// Client population 1: steady queriers, generous deadlines.
	for c := 0; c < clients/2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + c)))
			for ctx.Err() == nil {
				req := chaosQuery(rng, 3)
				res, err := post(ctx, "/v1/query", req, map[string]string{"X-Tenant": fmt.Sprintf("steady-%d", c)})
				if err != nil {
					record("query.transport")
					continue
				}
				checkResponse("query", res)
			}
		}(c)
	}

	// Client population 2: the deadline storm — 1 ms deadlines that will
	// mostly time out; must come back as typed 504s, never wedge.
	for c := 0; c < clients/4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(200 + c)))
			for ctx.Err() == nil {
				req := chaosQuery(rng, 5)
				req.DeadlineMS = 1
				res, err := post(ctx, "/v1/query", req, nil)
				if err != nil {
					record("storm.transport")
					continue
				}
				checkResponse("storm", res)
			}
		}(c)
	}

	// Client population 3: hanger-uppers — cancel mid-request. The server
	// must absorb the disconnects without leaking the abandoned work.
	for c := 0; c < clients/4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(300 + c)))
			for ctx.Err() == nil {
				reqCtx, reqCancel := context.WithTimeout(ctx, time.Duration(1+rng.Intn(10))*time.Millisecond)
				req := chaosQuery(rng, 3)
				res, err := post(reqCtx, "/v1/query", req, nil)
				if err == nil {
					checkResponse("hangup", res)
				} else {
					record("hangup.aborted")
				}
				reqCancel()
			}
		}(c)
	}

	// Client population 4: keyed ingest retries against the faulty store.
	wg.Add(1)
	go func() {
		defer wg.Done()
		cl := &Client{BaseURL: ts.URL, Tenant: "writer", MaxAttempts: 3, BaseBackoff: time.Millisecond}
		id := uint32(50_000)
		for ctx.Err() == nil {
			id++
			tr := TrajectoryJSON{ID: id, Samples: [][3]float64{{0.1, 0.1, 0}, {0.2, 0.2, 0.5}, {0.3, 0.3, 1}}}
			_, err := cl.Ingest(ctx, IngestRequest{Trajectory: tr}, fmt.Sprintf("soak-%d", id))
			switch {
			case err == nil:
				record("ingest.ok")
			case ctx.Err() != nil:
				// soak over
			default:
				var apiErr *APIError
				if !errors.As(err, &apiErr) && !errors.Is(err, context.DeadlineExceeded) {
					anomaly("ingest: untyped failure: %v", err)
				} else {
					record("ingest.err")
				}
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	// The liveness probe: /healthz polled hard for the whole soak. It
	// bypasses admission, so saturation is no excuse.
	healthFailures := make(chan string, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for ctx.Err() == nil {
			probeCtx, probeCancel := context.WithTimeout(context.Background(), time.Second)
			req, _ := http.NewRequestWithContext(probeCtx, http.MethodGet, ts.URL+"/healthz", nil)
			res, err := http.DefaultClient.Do(req)
			if err != nil {
				select {
				case healthFailures <- fmt.Sprintf("healthz unreachable: %v", err):
				default:
				}
			} else {
				if res.StatusCode != http.StatusOK {
					select {
					case healthFailures <- fmt.Sprintf("healthz status %d", res.StatusCode):
					default:
					}
				}
				_, _ = io.Copy(io.Discard, res.Body)
				_ = res.Body.Close()
			}
			probeCancel()
			record("health.probe")
			time.Sleep(5 * time.Millisecond)
		}
	}()

	// The deadlock guard: if the soak wedges, fail loudly instead of
	// hanging the suite.
	doneCh := make(chan struct{})
	go func() {
		wg.Wait()
		close(doneCh)
	}()
	select {
	case <-doneCh:
	case <-time.After(soakDuration + 30*time.Second):
		t.Fatal("chaos soak deadlocked: clients did not finish after the run window")
	}

	select {
	case msg := <-healthFailures:
		t.Errorf("liveness violated: %s", msg)
	default:
	}
	mu.Lock()
	defer mu.Unlock()
	for _, a := range anomalies {
		t.Errorf("anomaly: %s", a)
	}
	if outcomes["query.ok"] == 0 {
		t.Errorf("no steady query ever succeeded: %v", outcomes)
	}
	if outcomes["health.probe"] == 0 {
		t.Errorf("health prober never ran")
	}
	t.Logf("chaos outcomes: %v", outcomes)
}

// truncate clips a body for an anomaly message.
func truncate(b []byte) string {
	if len(b) > 120 {
		b = b[:120]
	}
	return string(b)
}

// chaosQuery builds a random valid query inside the GSTD unit workspace.
func chaosQuery(rng *rand.Rand, k int) QueryRequest {
	const samples = 6
	x, y := rng.Float64(), rng.Float64()
	t1 := rng.Float64() * 0.4
	span := 0.3 + rng.Float64()*0.3
	q := TrajectoryJSON{Samples: make([][3]float64, samples)}
	for i := 0; i < samples; i++ {
		x += (rng.Float64() - 0.5) * 0.05
		y += (rng.Float64() - 0.5) * 0.05
		q.Samples[i] = [3]float64{x, y, t1 + span*float64(i)/(samples-1)}
	}
	// Anchor the interval on the sample times themselves; recomputing
	// t1+span can land an ulp past the last sample and flip the query
	// into a coverage rejection.
	return QueryRequest{Query: q, T1: q.Samples[0][2], T2: q.Samples[samples-1][2], K: k}
}
