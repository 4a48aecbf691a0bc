package mstsearch

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"
	"time"

	"mstsearch/internal/debugassert"
	"mstsearch/internal/gstd"
)

// obsFleet builds the fixed workload the observability tests and the
// allocation guard share: 40 random-walk trajectories over [0, 50].
func obsFleet(seed int64) []Trajectory {
	rng := rand.New(rand.NewSource(seed))
	trajs := make([]Trajectory, 40)
	for i := range trajs {
		tr := Trajectory{ID: ID(i + 1)}
		x, y := rng.Float64()*100, rng.Float64()*100
		for j := 0; j < 51; j++ {
			tr.Samples = append(tr.Samples, Sample{X: x, Y: y, T: float64(j)})
			x += rng.NormFloat64() * 2
			y += rng.NormFloat64() * 2
		}
		trajs[i] = tr
	}
	return trajs
}

// TestQueryTraceSummaryReconciles checks the public trace contract: the
// summary DB.Query builds over the hook agrees with the events actually
// delivered AND with the SearchStats of the same run.
func TestQueryTraceSummaryReconciles(t *testing.T) {
	db, err := NewDB(RTree3D, obsFleet(42))
	if err != nil {
		t.Fatal(err)
	}
	q := obsFleet(43)[0]
	q.ID = 0

	delivered := 0
	perKind := map[EventKind]int{}
	var o Options
	o.Trace = func(ev TraceEvent) {
		delivered++
		perKind[ev.Kind]++
	}
	resp, err := db.Query(context.Background(), Request{
		Q: &q, Interval: Interval{T1: 5, T2: 45}, K: 3, Options: o,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Trace == nil {
		t.Fatal("traced query returned nil Trace summary")
	}
	if resp.Trace.Events != delivered {
		t.Errorf("summary counts %d events, hook received %d", resp.Trace.Events, delivered)
	}
	for k, n := range perKind {
		if resp.Trace.ByKind[k] != n {
			t.Errorf("summary counts %d %s events, hook received %d", resp.Trace.ByKind[k], k, n)
		}
	}
	st := resp.Stats
	if got := resp.Trace.ByKind[EventNodeVisit]; got != st.NodesAccessed {
		t.Errorf("node-visit events %d != NodesAccessed %d", got, st.NodesAccessed)
	}
	if got := resp.Trace.ByKind[EventNodeEnqueue]; got != st.Enqueued {
		t.Errorf("node-enqueue events %d != Enqueued %d", got, st.Enqueued)
	}
	// With the trajectory store at hand (the default options), every
	// admitted candidate is decided exactly on first sight: it completes
	// once, and nothing is rejected.
	if got := resp.Trace.ByKind[EventCandidateComplete]; got != st.ExactRefined || got != resp.Trace.ByKind[EventCandidateAdmit] {
		t.Errorf("complete events %d, admit events %d, ExactRefined %d; want all equal",
			got, resp.Trace.ByKind[EventCandidateAdmit], st.ExactRefined)
	}
	if got := resp.Trace.ByKind[EventCandidatePrune]; got != 0 || st.ExactRefined == 0 {
		t.Errorf("prune events %d, ExactRefined %d; want 0 and > 0", got, st.ExactRefined)
	}
	if st.NodesAccessed == 0 || st.Enqueued == 0 {
		t.Errorf("degenerate run: stats %+v", st)
	}

	// Untraced query: no summary, same answers.
	plain, err := db.Query(context.Background(), Request{Q: &q, Interval: Interval{T1: 5, T2: 45}, K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Trace != nil {
		t.Error("untraced query returned a Trace summary")
	}
	if len(plain.Results) != len(resp.Results) {
		t.Fatalf("tracing changed the result count: %d vs %d", len(resp.Results), len(plain.Results))
	}
	for i := range plain.Results {
		if plain.Results[i] != resp.Results[i] {
			t.Errorf("rank %d: traced %+v != untraced %+v", i, resp.Results[i], plain.Results[i])
		}
	}
}

// TestQueryNoAllocRegression is the allocation guard of the untraced
// query path: a warm-buffer query with tracing off. The search must
// allocate per node read and per candidate, never per segment folded.
// Assembling candidates segment by segment across leaves and refining the
// top ones exactly afterwards, this query made 186 allocations; deciding
// each candidate exactly from the trajectory store on first sight, it
// makes 104.
//
// The long legs query a quarter of the time axis over 40 trajectories of
// 1001 samples on each MBB kind, k = 10. There most leaves hold one
// trajectory's segments, and a leaf whose trajectory is already decided
// is skipped unread. Reading every such leaf, these queries made 336
// (R-tree), 265 (TB-tree) and 387 (STR-tree) allocations; skipping them,
// 108, 103 and 129.
func TestQueryNoAllocRegression(t *testing.T) {
	if debugassert.Enabled {
		t.Skip("sanitizer assertions allocate; the baseline holds for release builds only")
	}
	q := obsFleet(43)[0]
	q.ID = 0
	queryAllocCeiling(t, RTree3D, obsFleet(42), Request{Q: &q, Interval: Interval{T1: 5, T2: 45}, K: 3}, 130)

	long := gstd.Generate(gstd.Config{NumObjects: 40, SamplesPerObject: 1001, Seed: 5}).Trajs
	src := gstd.Generate(gstd.Config{NumObjects: 1, SamplesPerObject: 1001, Seed: 6}).Trajs[0]
	lq := Trajectory{Samples: src.Samples[300:551]}
	iv := Interval{T1: lq.StartTime(), T2: lq.EndTime()}
	for _, kind := range []IndexKind{RTree3D, TBTree, STRTree} {
		t.Run("long/"+kind.String(), func(t *testing.T) {
			queryAllocCeiling(t, kind, long, Request{Q: &lq, Interval: iv, K: 10}, 170)
		})
	}
}

// queryAllocCeiling fails the test when one warm, untraced run of req on a
// kind DB over fleet allocates more than ceiling times.
func queryAllocCeiling(t *testing.T, kind IndexKind, fleet []Trajectory, req Request, ceiling float64) {
	t.Helper()
	db, err := NewDB(kind, fleet)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// Warm the shared pool and the lazily built dataset cache first.
	if _, err := db.Query(ctx, req); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := db.Query(ctx, req); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > ceiling {
		t.Errorf("untraced %s query allocates %.0f times/run, ceiling %.0f", kind, allocs, ceiling)
	}
	t.Logf("untraced %s query allocates %.0f times/run", kind, allocs)
}

// TestMetricQueryNoAllocRegression is the same guard for an exact DTW
// query on the N-tree. The search slices every candidate into scratch and
// runs the kernel on rows it keeps, so the query's allocations do not grow
// with the candidates it decides. Slicing or allocating rows per candidate
// again adds about ten per candidate: this query made 215 allocations that
// way, and makes 36 without.
func TestMetricQueryNoAllocRegression(t *testing.T) {
	if debugassert.Enabled {
		t.Skip("sanitizer assertions allocate; the ceiling holds for release builds only")
	}
	db, err := NewDB(NTree, obsFleet(42))
	if err != nil {
		t.Fatal(err)
	}
	q := obsFleet(43)[0]
	q.ID = 0
	req := Request{Q: &q, Interval: Interval{T1: 5, T2: 45}, K: 3, Metric: MetricDTW}
	ctx := context.Background()
	if _, err := db.Query(ctx, req); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := db.Query(ctx, req); err != nil {
			t.Fatal(err)
		}
	})
	const ceiling = 45
	if allocs > ceiling {
		t.Errorf("untraced DTW query allocates %.0f times/run, ceiling %d", allocs, ceiling)
	}
}

// TestMetricsSnapshot verifies queries feed the process-wide registry:
// search-loop counters, per-kind latency, and pool I/O all move.
func TestMetricsSnapshot(t *testing.T) {
	db, err := NewDB(RTree3D, obsFleet(44))
	if err != nil {
		t.Fatal(err)
	}
	q := obsFleet(45)[0]
	q.ID = 0

	before := db.Metrics()
	if _, err := db.Query(context.Background(), Request{Q: &q, Interval: Interval{T1: 5, T2: 45}, K: 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Range(context.Background(), Window{MinX: 0, MinY: 0, MaxX: 50, MaxY: 50}, Interval{T1: 0, T2: 50}); err != nil {
		t.Fatal(err)
	}
	after := db.Metrics()

	for _, name := range []string{
		"mst.searches",
		"mst.nodes_visited",
		"mst.heap_pushes",
		"db.query.kmst.total",
		"db.query.range.total",
		"storage.pool.misses",
	} {
		if after.Counters[name] <= before.Counters[name] {
			t.Errorf("counter %q did not advance: %d -> %d", name, before.Counters[name], after.Counters[name])
		}
	}
	h, ok := after.Histograms["db.query.kmst.seconds"]
	if !ok {
		t.Fatal("latency histogram db.query.kmst.seconds missing from snapshot")
	}
	if h.Count <= before.Histograms["db.query.kmst.seconds"].Count {
		t.Errorf("latency histogram did not record the query")
	}
	if _, ok := after.Histograms["mst.nodes_per_query"]; !ok {
		t.Error("mst.nodes_per_query histogram missing from snapshot")
	}
	if s := MetricsVar().String(); !strings.Contains(s, "db.query.kmst.total") {
		t.Errorf("expvar rendering lacks db.query.kmst.total: %.120s", s)
	}
}

// TestSlowQueryLog exercises the bounded slow-query ring: disarmed by
// default, records over-threshold queries newest first, bounded at the
// ring capacity.
func TestSlowQueryLog(t *testing.T) {
	db, err := NewDB(RTree3D, obsFleet(46))
	if err != nil {
		t.Fatal(err)
	}
	q := obsFleet(47)[0]
	q.ID = 0
	req := Request{Q: &q, Interval: Interval{T1: 5, T2: 45}, K: 2}
	ctx := context.Background()

	if _, err := db.Query(ctx, req); err != nil {
		t.Fatal(err)
	}
	if got := db.SlowQueries(); len(got) != 0 {
		t.Fatalf("disarmed log recorded %d queries", len(got))
	}

	db.SetSlowQueryThreshold(time.Nanosecond) // every query is "slow"
	for i := 0; i < slowLogCapacity+10; i++ {
		if _, err := db.Query(ctx, req); err != nil {
			t.Fatal(err)
		}
	}
	got := db.SlowQueries()
	if len(got) != slowLogCapacity {
		t.Fatalf("log holds %d entries, want the ring capacity %d", len(got), slowLogCapacity)
	}
	for i, e := range got {
		if e.Kind != "kmst" {
			t.Errorf("entry %d kind %q, want kmst", i, e.Kind)
		}
		if e.K != 2 || e.Interval != (Interval{T1: 5, T2: 45}) {
			t.Errorf("entry %d lost the request shape: %+v", i, e)
		}
		if e.Duration <= 0 || e.Stats.NodesAccessed == 0 {
			t.Errorf("entry %d lacks latency/stats: %+v", i, e)
		}
		if i > 0 && got[i-1].When.Before(e.When) {
			t.Errorf("entries not newest-first at %d", i)
		}
	}

	db.SetSlowQueryThreshold(0) // disarm again
	n := len(db.SlowQueries())
	if _, err := db.Query(ctx, req); err != nil {
		t.Fatal(err)
	}
	if len(db.SlowQueries()) != n {
		t.Error("disarmed log kept recording")
	}
}

// TestWindowIntervalValidate pins the typed-value validation the redesign
// introduced.
func TestWindowIntervalValidate(t *testing.T) {
	db, err := NewDB(RTree3D, obsFleet(48))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	if _, err := db.Range(ctx, Window{MinX: 10, MinY: 0, MaxX: 0, MaxY: 10}, Interval{T1: 0, T2: 1}); !errors.Is(err, ErrBadWindow) {
		t.Errorf("inverted window: err = %v, want ErrBadWindow", err)
	}
	if _, err := db.Topology(ctx, Window{MinX: 0, MinY: 0, MaxX: 10, MaxY: 10}, Interval{T1: 5, T2: 1}); !errors.Is(err, ErrBadQuery) {
		t.Errorf("reversed interval: err = %v, want ErrBadQuery", err)
	}
	if _, err := db.EstimateRange(Window{MinX: 0, MinY: 0, MaxX: 10, MaxY: 10}, Interval{T1: 5, T2: 1}); !errors.Is(err, ErrBadQuery) {
		t.Errorf("EstimateRange reversed interval: err = %v, want ErrBadQuery", err)
	}
	// Degenerate-but-valid values: a point window at one instant.
	if _, err := db.Range(ctx, Window{MinX: 5, MinY: 5, MaxX: 5, MaxY: 5}, Interval{T1: 2, T2: 2}); err != nil {
		t.Errorf("degenerate window/interval should be valid: %v", err)
	}

	w := Window{MinX: 1, MinY: 2, MaxX: 3, MaxY: 4}
	box := w.MBB(Interval{T1: 5, T2: 6})
	if box.MinX != 1 || box.MinY != 2 || box.MinT != 5 || box.MaxX != 3 || box.MaxY != 4 || box.MaxT != 6 {
		t.Errorf("Window.MBB misassembled: %+v", box)
	}
}

// TestSegmentHitAccessors checks the typed endpoint accessors agree with
// the flat fields.
func TestSegmentHitAccessors(t *testing.T) {
	h := SegmentHit{X1: 1, Y1: 2, T1: 3, X2: 4, Y2: 5, T2: 6}
	if h.Start() != (STPoint{X: 1, Y: 2, T: 3}) {
		t.Errorf("Start() = %+v", h.Start())
	}
	if h.End() != (STPoint{X: 4, Y: 5, T: 6}) {
		t.Errorf("End() = %+v", h.End())
	}
}

// TestExplainReconciles runs EXPLAIN and cross-checks its three views of
// the same query: cost estimate, stats, and trace.
func TestExplainReconciles(t *testing.T) {
	db, err := NewDB(RTree3D, obsFleet(49))
	if err != nil {
		t.Fatal(err)
	}
	q := obsFleet(50)[0]
	q.ID = 0
	rep, err := db.Explain(context.Background(), Request{Q: &q, Interval: Interval{T1: 5, T2: 45}, K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Trace.ByKind[EventNodeVisit] != rep.Stats.NodesAccessed {
		t.Errorf("trace node visits %d != stats %d",
			rep.Trace.ByKind[EventNodeVisit], rep.Stats.NodesAccessed)
	}
	if rep.Trace.ByKind[EventLeafSkip] != rep.Stats.LeavesSkipped {
		t.Errorf("trace leaf skips %d != stats %d",
			rep.Trace.ByKind[EventLeafSkip], rep.Stats.LeavesSkipped)
	}
	nodes, leaves := 0, 0
	for _, lv := range rep.Levels {
		nodes += lv.Nodes
		leaves += lv.Leaves
	}
	if nodes != rep.Stats.NodesAccessed || leaves != rep.Stats.LeavesAccessed {
		t.Errorf("per-level sums %d/%d != stats %d/%d",
			nodes, leaves, rep.Stats.NodesAccessed, rep.Stats.LeavesAccessed)
	}
	if rep.Estimate.ExpectedLeafPages <= 0 {
		t.Errorf("estimate missing: %+v", rep.Estimate)
	}
	if rep.Trajectories != db.Len() {
		t.Errorf("report sized against %d trajectories, store has %d", rep.Trajectories, db.Len())
	}
	s := rep.String()
	for _, want := range []string{"EXPLAIN k-MST", "cost model:", "actuals:", "leaf pages skipped", "per-level node accesses", "results:"} {
		if !strings.Contains(s, want) {
			t.Errorf("transcript lacks %q:\n%s", want, s)
		}
	}

	// A caller hook still sees every event under Explain.
	seen := 0
	var o Options
	o.Trace = func(TraceEvent) { seen++ }
	rep2, err := db.Explain(context.Background(), Request{
		Q: &q, Interval: Interval{T1: 5, T2: 45}, K: 3, Options: o,
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen != rep2.Trace.Events {
		t.Errorf("caller hook saw %d events, report counts %d", seen, rep2.Trace.Events)
	}
}

// BenchmarkQueryTraceOff and BenchmarkQueryTraceOn measure the cost of
// the observability layer around one warm-buffer query; compare
// allocs/op between the two to see the disabled path stays free.
func BenchmarkQueryTraceOff(b *testing.B) {
	benchmarkQuery(b, false)
}

func BenchmarkQueryTraceOn(b *testing.B) {
	benchmarkQuery(b, true)
}

func benchmarkQuery(b *testing.B, traced bool) {
	db, err := NewDB(RTree3D, obsFleet(42))
	if err != nil {
		b.Fatal(err)
	}
	q := obsFleet(43)[0]
	q.ID = 0
	var o Options
	if traced {
		o.Trace = func(TraceEvent) {}
	}
	req := Request{Q: &q, Interval: Interval{T1: 5, T2: 45}, K: 3, Options: o}
	ctx := context.Background()
	if _, err := db.Query(ctx, req); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Query(ctx, req); err != nil {
			b.Fatal(err)
		}
	}
}
