// Package server is the serving layer of the trajectory store: a
// stdlib-only net/http JSON API over the canonical DB.Query surface,
// engineered to survive overload and faults rather than to win
// benchmarks. Every request walks the same ladder:
//
//	admission (tenant token bucket → global concurrency limiter with a
//	bounded wait queue; full queue ⇒ shed with 429 + Retry-After)
//	→ deadline (per-request or server default, clamped, propagated as a
//	  context so the engine's ErrCanceled/ErrDeadlineExceeded machinery
//	  fires mid-search)
//	→ budget (per-tenant node/IO budgets; exhaustion degrades the
//	  response — partial results, degraded: true — instead of failing)
//	→ execution (single k-MST queries coalesce onto the batch executor
//	  and its shared warm striped pool).
//
// Failures always surface as one documented JSON envelope with a typed
// code; see envelope.go for the taxonomy.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"time"

	mstsearch "mstsearch"
)

// Config sizes the server. The zero value is not useful; start from
// DefaultConfig.
type Config struct {
	// DefaultDeadline bounds requests that carry no deadline_ms field;
	// MaxDeadline clamps the ones that do.
	DefaultDeadline time.Duration
	MaxDeadline     time.Duration

	// MaxConcurrent is the global in-flight request cap; QueueDepth
	// bounds how many requests may wait for a slot, and QueueWait how
	// long any one of them waits before being shed.
	MaxConcurrent int
	QueueDepth    int
	QueueWait     time.Duration

	// TenantRPS / TenantBurst shape each tenant's token bucket
	// (requests per second and burst size; TenantRPS <= 0 disables
	// per-tenant rate limiting). Tenants are named by the X-Tenant
	// header; requests without one share the "anonymous" bucket.
	TenantRPS   float64
	TenantBurst float64

	// Budgets caps the index work any single query may do, per tenant
	// (the engine's MaxNodeAccesses/MaxIOReads graceful-degradation
	// machinery): a query over budget returns its best-effort top-k with
	// degraded: true instead of running unboundedly. TenantBudgets
	// overrides the default for named tenants, so one heavy tenant can
	// be boxed in without squeezing everyone.
	Budgets       Budget
	TenantBudgets map[string]Budget

	// CoalesceWindow/CoalesceMax tune single-query coalescing onto the
	// batch executor: queries arriving within the window (up to the max)
	// share one index snapshot and warm striped pool. A zero window
	// disables coalescing — each query runs by itself.
	CoalesceWindow time.Duration
	CoalesceMax    int

	// Parallelism sizes the query engine's batch worker pool. <= 0 means
	// GOMAXPROCS.
	Parallelism int

	// MaxBodyBytes bounds request bodies (default 8 MiB).
	MaxBodyBytes int64
}

// Budget is a per-query work cap (0 fields = unlimited).
type Budget struct {
	MaxNodeAccesses int
	MaxIOReads      uint64
}

// DefaultConfig returns serving defaults sized for a small host: 2 s
// default / 30 s max deadlines, 2×GOMAXPROCS concurrent requests with a
// queue of the same size, 1 ms coalescing window.
func DefaultConfig() Config {
	n := runtime.GOMAXPROCS(0)
	return Config{
		DefaultDeadline: 2 * time.Second,
		MaxDeadline:     30 * time.Second,
		MaxConcurrent:   2 * n,
		QueueDepth:      2 * n,
		QueueWait:       500 * time.Millisecond,
		TenantRPS:       0, // rate limiting off unless configured
		TenantBurst:     10,
		CoalesceWindow:  time.Millisecond,
		CoalesceMax:     16,
		MaxBodyBytes:    8 << 20,
	}
}

// Server serves the trajectory-search API over an Engine — a single DB
// (New) or any other implementation such as a shard.Cluster (NewEngine).
// Mount as an http.Handler, Close on shutdown.
type Server struct {
	db   Engine
	cfg  Config
	adm  *admission
	coal *coalescer // nil when coalescing is disabled
	mux  *http.ServeMux
	idem idemCache // ingest idempotency (Idempotency-Key replays)

	base     context.Context // done ⇒ server closing; parents all work
	cancel   context.CancelFunc
	inflight sync.WaitGroup

	closeOnce sync.Once

	// testHookPreHandle, when set, runs at the top of every admitted
	// request — the chaos tests' slow-handler injection seam.
	testHookPreHandle func(route string)
}

// New builds a Server over a single DB. The DB keeps working as a library
// alongside the server, and its queries share the DB's buffer pool.
func New(db *mstsearch.DB, cfg Config) *Server {
	return NewEngine(db, cfg)
}

// NewEngine builds a Server over any Engine — the entry point for serving
// a shard.Cluster (or a test double) behind the same admission ladder,
// deadline propagation, and coalescing a single DB gets.
func NewEngine(db Engine, cfg Config) *Server {
	def := DefaultConfig()
	if cfg.DefaultDeadline <= 0 {
		cfg.DefaultDeadline = def.DefaultDeadline
	}
	if cfg.MaxDeadline <= 0 {
		cfg.MaxDeadline = def.MaxDeadline
	}
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = def.MaxConcurrent
	}
	if cfg.QueueDepth < 0 {
		cfg.QueueDepth = 0
	}
	if cfg.QueueWait <= 0 {
		cfg.QueueWait = def.QueueWait
	}
	if cfg.CoalesceMax <= 0 {
		cfg.CoalesceMax = def.CoalesceMax
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = def.MaxBodyBytes
	}
	if cfg.TenantBurst <= 0 {
		cfg.TenantBurst = def.TenantBurst
	}

	base, cancel := context.WithCancel(context.Background())
	s := &Server{
		db:     db,
		cfg:    cfg,
		adm:    newAdmission(cfg),
		base:   base,
		cancel: cancel,
	}
	if cfg.CoalesceWindow > 0 {
		o := mstsearch.Options{Parallelism: cfg.Parallelism}
		s.coal = newCoalescer(db, base, o, cfg.CoalesceWindow, cfg.CoalesceMax)
	}

	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/query", s.admitted(metQuery, "query", s.handleQuery))
	mux.HandleFunc("POST /v1/batch", s.admitted(metBatch, "batch", s.handleBatch))
	mux.HandleFunc("POST /v1/range", s.admitted(metRange, "range", s.handleRange))
	mux.HandleFunc("POST /v1/nearest", s.admitted(metNearest, "nearest", s.handleNearest))
	mux.HandleFunc("POST /v1/topology", s.admitted(metTopology, "topology", s.handleTopology))
	mux.HandleFunc("POST /v1/ingest", s.admitted(metIngest, "ingest", s.handleIngest))
	mux.HandleFunc("POST /v1/append", s.admitted(metAppend, "append", s.handleAppend))
	mux.HandleFunc("POST /v1/explain", s.admitted(metExplain, "explain", s.handleExplain))
	mux.HandleFunc("POST /admin/checkpoint", s.admitted(metCheckpoint, "checkpoint", s.handleCheckpoint))
	// Health and metrics bypass admission: they must answer precisely
	// when the server is too busy to do anything else.
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux = mux
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	select {
	case <-s.base.Done():
		writeShaped(w, http.StatusServiceUnavailable, ErrorBody{
			Code: CodeUnavailable, Message: "server shutting down", Retryable: true, RetryAfterMS: 1000,
		})
		return
	default:
	}
	s.mux.ServeHTTP(w, r)
}

// Close stops the server: new requests are refused, in-flight requests
// are canceled through the base context and waited for, and the
// coalescer drains. Safe to call more than once.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		s.cancel()
		if s.coal != nil {
			s.coal.close()
		}
		s.inflight.Wait()
	})
}

// handler is an admitted route's body: runs with the request-scoped
// (deadline-bearing) context and returns either a (status, payload)
// success or an error the envelope layer types.
type handler func(ctx context.Context, tenant string, r *http.Request) (int, any, error)

// admitted wraps a handler with the full serving ladder: metrics,
// admission, deadline derivation, typed error envelopes, and inflight
// accounting for Close.
func (s *Server) admitted(m *routeMetrics, route string, h handler) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		s.inflight.Add(1)
		defer s.inflight.Done()

		tenant := r.Header.Get("X-Tenant")
		if tenant == "" {
			tenant = "anonymous"
		}

		release, shed := s.adm.admit(r.Context(), tenant)
		if shed != nil {
			writeShaped(w, shed.status, shed.body)
			m.finish(start, shed.status, shed)
			return
		}
		defer release()

		if hook := s.testHookPreHandle; hook != nil {
			hook(route)
		}

		// Deadlines bound the request's lifetime from arrival, not from
		// wherever in the handler the context happens to be derived —
		// time spent queued or parsing counts against the budget.
		r = r.WithContext(context.WithValue(r.Context(), arrivalKey{}, start))
		r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
		status, payload, err := h(r.Context(), tenant, r)
		if err != nil {
			status, _ := writeError(w, err)
			m.finish(start, status, err)
			return
		}
		writeJSON(w, status, payload)
		m.finish(start, status, nil)
	}
}

// arrivalKey carries the request's arrival instant through its context,
// so deadlines anchor at arrival rather than at context derivation.
type arrivalKey struct{}

// deadlineCtx derives the request's bounded context: requested deadline
// (clamped to MaxDeadline) or the server default, anchored at the
// request's arrival and layered over both the HTTP request context
// (client disconnect) and the server's base context (shutdown). The
// returned cancel must be called when the request ends.
func (s *Server) deadlineCtx(reqCtx context.Context, deadlineMS int64) (context.Context, context.CancelFunc) {
	d := s.cfg.DefaultDeadline
	if deadlineMS > 0 {
		d = time.Duration(deadlineMS) * time.Millisecond
		if d > s.cfg.MaxDeadline {
			d = s.cfg.MaxDeadline
		}
	}
	anchor, ok := reqCtx.Value(arrivalKey{}).(time.Time)
	if !ok {
		anchor = time.Now()
	}
	ctx, cancel := context.WithDeadline(reqCtx, anchor.Add(d))
	unlink := context.AfterFunc(s.base, cancel)
	return ctx, func() {
		unlink()
		cancel()
	}
}

// budgetFor resolves the tenant's per-query budget.
func (s *Server) budgetFor(tenant string) Budget {
	if b, ok := s.cfg.TenantBudgets[tenant]; ok {
		return b
	}
	return s.cfg.Budgets
}

// optionsFor builds the engine options for one request of a tenant: the
// tenant's budget caps and the server's batch parallelism.
func (s *Server) optionsFor(tenant string) mstsearch.Options {
	b := s.budgetFor(tenant)
	return mstsearch.Options{
		MaxNodeAccesses: b.MaxNodeAccesses,
		MaxIOReads:      b.MaxIOReads,
		Parallelism:     s.cfg.Parallelism,
	}
}

// decode parses a JSON body into v, typing failures as bad_request.
func decode(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var maxErr *http.MaxBytesError
		if errors.As(err, &maxErr) {
			return badRequestf("request body over %d bytes", maxErr.Limit)
		}
		return badRequestf("malformed JSON body: %v", err)
	}
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return badRequestf("trailing data after JSON body")
	}
	return nil
}

// toTrajectory converts a wire trajectory, validating shape only (the
// DB re-validates semantics).
func toTrajectory(tj TrajectoryJSON) (mstsearch.Trajectory, error) {
	if len(tj.Samples) < 2 {
		return mstsearch.Trajectory{}, badRequestf("trajectory %d: need at least 2 samples, got %d", tj.ID, len(tj.Samples))
	}
	tr := mstsearch.Trajectory{ID: mstsearch.ID(tj.ID), Samples: make([]mstsearch.Sample, len(tj.Samples))}
	for i, s := range tj.Samples {
		tr.Samples[i] = mstsearch.Sample{X: s[0], Y: s[1], T: s[2]}
	}
	return tr, nil
}

// parseMetric resolves a wire metric name ("" = DISSIM) to the engine's
// typed selector, mapping unknown names to a 400.
func parseMetric(name string) (mstsearch.Metric, error) {
	m, err := mstsearch.ParseMetric(name)
	if err != nil {
		return 0, badRequestf("unknown metric %q (want dissim, dtw, lcss, or edr)", name)
	}
	return m, nil
}

// --- route handlers -----------------------------------------------------

// handleQuery answers one k-MST query, through the coalescer when it is
// enabled.
func (s *Server) handleQuery(_ context.Context, tenant string, r *http.Request) (int, any, error) {
	var req QueryRequest
	if err := decode(r, &req); err != nil {
		return 0, nil, err
	}
	if req.K <= 0 {
		return 0, nil, badRequestf("k must be positive, got %d", req.K)
	}
	q, err := toTrajectory(req.Query)
	if err != nil {
		return 0, nil, err
	}
	metric, err := parseMetric(req.Metric)
	if err != nil {
		return 0, nil, err
	}
	ctx, cancel := s.deadlineCtx(r.Context(), req.DeadlineMS)
	defer cancel()

	opts := s.optionsFor(tenant)
	var (
		results []mstsearch.Result
		stats   mstsearch.SearchStats
	)
	if s.coal != nil {
		res, err := s.coal.do(ctx, mstsearch.BatchQuery{
			Q: &q, T1: req.T1, T2: req.T2, K: req.K,
			Metric: metric, MetricEps: req.MetricEps, Opts: &opts,
		})
		if err == nil {
			err = res.Err
		}
		if err != nil {
			return 0, nil, err
		}
		results, stats = res.Results, res.Stats
	} else {
		resp, err := s.db.Query(ctx, mstsearch.Request{
			Q: &q, Interval: mstsearch.Interval{T1: req.T1, T2: req.T2}, K: req.K,
			Metric: metric, MetricEps: req.MetricEps, Options: opts,
		})
		if err != nil {
			return 0, nil, err
		}
		results, stats = resp.Results, resp.Stats
	}
	return http.StatusOK, queryResponse(results, stats), nil
}

// queryResponse shapes engine results for the wire.
func queryResponse(results []mstsearch.Result, stats mstsearch.SearchStats) *QueryResponse {
	out := &QueryResponse{
		Results:  make([]ResultJSON, len(results)),
		Degraded: stats.Degraded,
		Stats: QueryStatsJSON{
			NodesAccessed: stats.NodesAccessed,
			PageReads:     stats.PageReads,
			BufferHits:    stats.BufferHits,
			PruningPower:  stats.PruningPower,
		},
	}
	for i, res := range results {
		out.Results[i] = ResultJSON{
			ID: uint32(res.TrajID), Dissim: res.Dissim, Certified: res.Certified,
		}
	}
	return out
}

// handleBatch answers many k-MST queries as one admission unit on the
// batch executor, with per-slot deadlines and isolated failures.
func (s *Server) handleBatch(_ context.Context, tenant string, r *http.Request) (int, any, error) {
	var req BatchRequest
	if err := decode(r, &req); err != nil {
		return 0, nil, err
	}
	if len(req.Queries) == 0 {
		return 0, nil, badRequestf("batch with no queries")
	}
	batchCtx, cancel := s.deadlineCtx(r.Context(), req.DeadlineMS)
	defer cancel()
	opts := s.optionsFor(tenant)

	queries := make([]mstsearch.BatchQuery, len(req.Queries))
	cancels := make([]context.CancelFunc, 0, len(req.Queries))
	defer func() {
		for _, c := range cancels {
			c()
		}
	}()
	for i, qr := range req.Queries {
		if qr.K <= 0 {
			return 0, nil, badRequestf("query %d: k must be positive, got %d", i, qr.K)
		}
		q, err := toTrajectory(qr.Query)
		if err != nil {
			return 0, nil, err
		}
		metric, err := parseMetric(qr.Metric)
		if err != nil {
			return 0, nil, err
		}
		queries[i] = mstsearch.BatchQuery{
			Q: &q, T1: qr.T1, T2: qr.T2, K: qr.K,
			Metric: metric, MetricEps: qr.MetricEps,
		}
		if qr.DeadlineMS > 0 {
			slotCtx, slotCancel := s.deadlineCtx(r.Context(), qr.DeadlineMS)
			cancels = append(cancels, slotCancel)
			queries[i].Ctx = slotCtx
		}
	}
	results := s.db.KMostSimilarBatch(batchCtx, queries, opts)
	resp := &BatchResponse{Results: make([]BatchSlotJSON, len(results))}
	for i, res := range results {
		if res.Err != nil {
			_, body := envelopeFor(res.Err)
			resp.Results[i] = BatchSlotJSON{Error: &body}
			continue
		}
		resp.Results[i] = BatchSlotJSON{Response: queryResponse(res.Results, res.Stats)}
	}
	return http.StatusOK, resp, nil
}

// handleRange answers a window/interval range query.
func (s *Server) handleRange(_ context.Context, _ string, r *http.Request) (int, any, error) {
	var req RangeRequest
	if err := decode(r, &req); err != nil {
		return 0, nil, err
	}
	ctx, cancel := s.deadlineCtx(r.Context(), req.DeadlineMS)
	defer cancel()
	hits, err := s.db.Range(ctx,
		mstsearch.Window{MinX: req.Window.MinX, MinY: req.Window.MinY, MaxX: req.Window.MaxX, MaxY: req.Window.MaxY},
		mstsearch.Interval{T1: req.T1, T2: req.T2})
	if err != nil {
		return 0, nil, err
	}
	resp := &RangeResponse{Segments: make([]SegmentJSON, len(hits))}
	for i, h := range hits {
		resp.Segments[i] = SegmentJSON{
			ID: uint32(h.TrajID), SeqNo: h.SeqNo,
			A: [3]float64{h.X1, h.Y1, h.T1},
			B: [3]float64{h.X2, h.Y2, h.T2},
		}
	}
	return http.StatusOK, resp, nil
}

// handleNearest answers a historical point-NN query.
func (s *Server) handleNearest(_ context.Context, _ string, r *http.Request) (int, any, error) {
	var req NearestRequest
	if err := decode(r, &req); err != nil {
		return 0, nil, err
	}
	if req.K <= 0 {
		return 0, nil, badRequestf("k must be positive, got %d", req.K)
	}
	ctx, cancel := s.deadlineCtx(r.Context(), req.DeadlineMS)
	defer cancel()
	res, err := s.db.Nearest(ctx, req.X, req.Y, req.T, req.K)
	if err != nil {
		return 0, nil, err
	}
	resp := &NearestResponse{Neighbors: make([]NeighborJSON, len(res))}
	for i, n := range res {
		resp.Neighbors[i] = NeighborJSON{ID: uint32(n.TrajID), Dist: n.Dist}
	}
	return http.StatusOK, resp, nil
}

// handleTopology answers a topological classification query.
func (s *Server) handleTopology(_ context.Context, _ string, r *http.Request) (int, any, error) {
	var req TopologyRequest
	if err := decode(r, &req); err != nil {
		return 0, nil, err
	}
	ctx, cancel := s.deadlineCtx(r.Context(), req.DeadlineMS)
	defer cancel()
	res, err := s.db.Topology(ctx,
		mstsearch.Window{MinX: req.Window.MinX, MinY: req.Window.MinY, MaxX: req.Window.MaxX, MaxY: req.Window.MaxY},
		mstsearch.Interval{T1: req.T1, T2: req.T2})
	if err != nil {
		return 0, nil, err
	}
	resp := &TopologyResponse{Entries: make([]TopologyEntryJSON, len(res))}
	for i, e := range res {
		resp.Entries[i] = TopologyEntryJSON{ID: uint32(e.TrajID), Relation: e.Relation, InsideDuration: e.InsideDuration}
	}
	return http.StatusOK, resp, nil
}

// handleIngest stores one new trajectory through the durable write path
// (journaled + fsynced on a durable DB). Retries must carry an
// Idempotency-Key header; the server replays the recorded outcome for a
// key it has seen, so a retried ingest whose first attempt actually
// committed does not fail with conflict.
func (s *Server) handleIngest(_ context.Context, _ string, r *http.Request) (int, any, error) {
	var req IngestRequest
	if err := decode(r, &req); err != nil {
		return 0, nil, err
	}
	tr, err := toTrajectory(req.Trajectory)
	if err != nil {
		return 0, nil, err
	}

	key := r.Header.Get("Idempotency-Key")
	if key != "" {
		if resp, ok := s.idem.lookup(key); ok {
			replay := *resp
			replay.Replayed = true
			return http.StatusOK, &replay, nil
		}
	}
	// The mutation path has no context seam (it must not be torn
	// mid-apply), so the deadline governs only the admission above.
	if err := s.db.Add(tr); err != nil {
		return 0, nil, err
	}
	resp := &IngestResponse{ID: req.Trajectory.ID, Segments: tr.NumSegments()}
	if key != "" {
		s.idem.store(key, resp)
	}
	return http.StatusOK, resp, nil
}

// handleAppend extends a stored trajectory with one sample.
func (s *Server) handleAppend(_ context.Context, _ string, r *http.Request) (int, any, error) {
	var req AppendRequest
	if err := decode(r, &req); err != nil {
		return 0, nil, err
	}
	id := mstsearch.ID(req.ID)
	err := s.db.AppendSample(id, mstsearch.Sample{X: req.Sample[0], Y: req.Sample[1], T: req.Sample[2]})
	if err != nil {
		if s.db.Get(id) == nil {
			return 0, nil, notFoundf("unknown trajectory %d", req.ID)
		}
		return 0, nil, badRequestf("%v", err)
	}
	tr := s.db.Get(id)
	n := 0
	if tr != nil {
		n = len(tr.Samples)
	}
	return http.StatusOK, &AppendResponse{ID: req.ID, Samples: n}, nil
}

// handleExplain runs the request with tracing on and returns the cost
// model's prediction against actuals.
func (s *Server) handleExplain(_ context.Context, tenant string, r *http.Request) (int, any, error) {
	var req QueryRequest
	if err := decode(r, &req); err != nil {
		return 0, nil, err
	}
	if req.K <= 0 {
		return 0, nil, badRequestf("k must be positive, got %d", req.K)
	}
	q, err := toTrajectory(req.Query)
	if err != nil {
		return 0, nil, err
	}
	metric, err := parseMetric(req.Metric)
	if err != nil {
		return 0, nil, err
	}
	ctx, cancel := s.deadlineCtx(r.Context(), req.DeadlineMS)
	defer cancel()
	rep, err := s.db.Explain(ctx, mstsearch.Request{
		Q: &q, Interval: mstsearch.Interval{T1: req.T1, T2: req.T2}, K: req.K,
		Metric: metric, MetricEps: req.MetricEps,
		Options: s.optionsFor(tenant),
	})
	if err != nil {
		return 0, nil, err
	}
	return http.StatusOK, &ExplainResponse{
		Transcript:        rep.String(),
		PredictedLeafIO:   rep.Estimate.ExpectedLeafPages,
		ActualLeafIO:      rep.Stats.LeavesAccessed,
		NodesAccessed:     rep.Stats.NodesAccessed,
		PruningPower:      rep.Stats.PruningPower,
		DurationMicros:    rep.Duration.Microseconds(),
		Degraded:          rep.Stats.Degraded,
		ResultCount:       len(rep.Results),
		TraceEventCount:   rep.Trace.Events,
		EstimatedSegments: rep.Estimate.ExpectedSegments,
	}, nil
}

// handleCheckpoint folds the WAL into a snapshot under the request's
// deadline (CheckpointContext aborts between state-machine steps).
func (s *Server) handleCheckpoint(_ context.Context, _ string, r *http.Request) (int, any, error) {
	deadlineMS := int64(0)
	if v := r.URL.Query().Get("deadline_ms"); v != "" {
		if _, err := fmt.Sscanf(v, "%d", &deadlineMS); err != nil {
			return 0, nil, badRequestf("bad deadline_ms %q", v)
		}
	}
	ctx, cancel := s.deadlineCtx(r.Context(), deadlineMS)
	defer cancel()
	if err := s.db.CheckpointContext(ctx); err != nil {
		return 0, nil, err
	}
	return http.StatusOK, &CheckpointResponse{Status: "ok"}, nil
}

// replicaReporter is the optional Engine facet a replicated cluster
// implements; /healthz discovers it structurally so the server never
// has to know which engine it fronts.
type replicaReporter interface {
	NumShards() int
	ReplicaStatuses() []mstsearch.ReplicaStatus
}

// handleHealth answers liveness without touching the admission ladder or
// the index: it must stay responsive precisely when the server is
// saturated. On an engine that reports replica health, the body carries
// the per-shard/per-replica breakdown and Status degrades to "degraded"
// when any replica is suspect or quarantined; `?quick=1` keeps the bare
// three-field contract for probes that poll tightly.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	resp := &HealthResponse{
		Status:       "ok",
		Trajectories: s.db.Len(),
		Segments:     s.db.NumSegments(),
	}
	if rr, ok := s.db.(replicaReporter); ok && r.URL.Query().Get("quick") == "" {
		resp.Shards = rr.NumShards()
		for _, st := range rr.ReplicaStatuses() {
			rh := ReplicaHealth{
				Shard:        st.Shard,
				Replica:      st.Replica,
				State:        st.State,
				Trajectories: st.Trajectories,
				LastError:    st.LastError,
			}
			if !st.LastRepair.IsZero() {
				rh.LastRepair = st.LastRepair.UTC().Format(time.RFC3339)
			}
			resp.Replicas = append(resp.Replicas, rh)
			if st.State != "healthy" {
				resp.Status = "degraded"
			}
		}
	}
	writeJSON(w, http.StatusOK, resp)
	metHealth.total.Inc()
}

// handleMetrics renders the process-wide metrics registry (the same
// snapshot the expvar export publishes) as JSON.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	v := mstsearch.MetricsVar()
	w.Header().Set("Content-Type", "application/json")
	_, _ = io.WriteString(w, v.String())
}

// idem is the bounded idempotency cache (ingest replays).
type idemCache struct {
	mu    sync.Mutex // lockrank: 51 — leaf: held only for map bookkeeping
	seen  map[string]*IngestResponse
	order []string
	cap   int
}

// lookup returns the stored outcome for key.
func (c *idemCache) lookup(key string) (*IngestResponse, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.seen[key]
	return r, ok
}

// store records an outcome, evicting the oldest past capacity.
func (c *idemCache) store(key string, r *IngestResponse) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.seen == nil {
		c.seen = make(map[string]*IngestResponse)
		c.cap = 4096
	}
	if _, dup := c.seen[key]; dup {
		return
	}
	c.seen[key] = r
	c.order = append(c.order, key)
	for len(c.order) > c.cap {
		delete(c.seen, c.order[0])
		c.order = c.order[1:]
	}
}
