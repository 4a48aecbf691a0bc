package mstsearch

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"mstsearch/internal/baselines"
	"mstsearch/internal/geom"
	"mstsearch/internal/index"
	"mstsearch/internal/mst"
	"mstsearch/internal/topology"
)

// ErrBadWindow reports a malformed spatial window: a NaN coordinate or a
// minimum exceeding its maximum.
var ErrBadWindow = errors.New("mstsearch: malformed window")

// Window is a spatial query extent [MinX, MaxX] × [MinY, MaxY].
type Window struct {
	MinX, MinY, MaxX, MaxY float64
}

// Validate reports whether the window is well-formed: no NaN coordinates
// and each minimum not exceeding its maximum. Degenerate (zero-area)
// windows are valid — a line or point query is meaningful against segment
// data.
func (w Window) Validate() error {
	for _, v := range [...]float64{w.MinX, w.MinY, w.MaxX, w.MaxY} {
		if math.IsNaN(v) {
			return fmt.Errorf("%w: NaN coordinate", ErrBadWindow)
		}
	}
	if w.MinX > w.MaxX || w.MinY > w.MaxY {
		return fmt.Errorf("%w: min exceeds max", ErrBadWindow)
	}
	return nil
}

// Interval is a closed time period [T1, T2].
type Interval struct {
	T1, T2 float64
}

// Validate reports whether the interval is well-formed: no NaN endpoint
// and T1 <= T2. An instantaneous interval (T1 == T2) is valid for range
// and topology queries; k-MST additionally requires a positive duration,
// which the search itself enforces as ErrBadQuery.
func (iv Interval) Validate() error {
	if math.IsNaN(iv.T1) || math.IsNaN(iv.T2) {
		return fmt.Errorf("%w: NaN endpoint", ErrBadQuery)
	}
	if iv.T1 > iv.T2 {
		return fmt.Errorf("%w: interval [%g, %g] reversed", ErrBadQuery, iv.T1, iv.T2)
	}
	return nil
}

// Duration returns T2 - T1.
func (iv Interval) Duration() float64 { return iv.T2 - iv.T1 }

// MBB combines the window with a time interval into the 3D bounding box
// the index layer searches with.
func (w Window) MBB(iv Interval) MBB {
	return MBB{
		MinX: w.MinX, MinY: w.MinY, MinT: iv.T1,
		MaxX: w.MaxX, MaxY: w.MaxY, MaxT: iv.T2,
	}
}

// rect is the window as a purely spatial region (topology predicates).
func (w Window) rect() geom.Rect {
	return geom.Rect{MinX: w.MinX, MinY: w.MinY, MaxX: w.MaxX, MaxY: w.MaxY}
}

// DefaultOptions returns the zero Options: no exclusions, no budgets,
// GOMAXPROCS batch workers, no trace.
//
// Deprecated: use Options{}.
func DefaultOptions() Options {
	return Options{}
}

// Request is a k-MST query: the k stored trajectories with the smallest
// DISSIM from Q over Interval. Both Q and the answers must be defined
// throughout the period.
type Request struct {
	// Q is the query trajectory.
	Q *Trajectory
	// Interval is the query period; the search requires a positive
	// duration.
	Interval Interval
	// K is how many answers to return.
	K int
	// Metric selects the distance function. The zero value is the paper's
	// DISSIM — every index kind serves it; the baseline metrics
	// (DTW/LCSS/EDR) need distance-based pruning and are served exactly by
	// the metric (NTree) kind only. A metric the backing kind cannot serve
	// is rejected as an error wrapping ErrBadQuery.
	Metric Metric
	// MetricEps is the per-axis matching tolerance MetricLCSS and
	// MetricEDR require (must be positive for those metrics; ignored by
	// the others).
	MetricEps float64
	// Options tunes the search: exclusions, budgets, batch parallelism and
	// the trace hook. The zero value runs the full exact search.
	Options Options
}

// Response carries everything one query produced.
type Response struct {
	// Results are the answers, most similar first.
	Results []Result
	// Stats is the query's work profile.
	Stats SearchStats
	// Trace summarizes the events delivered to Options.Trace; nil when the
	// query ran untraced.
	Trace *TraceSummary
}

// TraceSummary aggregates the trace events one query emitted. It is built
// by DB.Query on top of the caller's Options.Trace hook, so the caller
// sees every event and still gets the totals for free.
type TraceSummary struct {
	// Events is the total number of events delivered.
	Events int
	// ByKind counts events per kind.
	ByKind map[EventKind]int
}

// wrapTrace interposes a summary-building hook in front of the user's
// trace hook. It returns nil (and leaves o untouched) when the query runs
// untraced, so the untraced path allocates nothing.
func wrapTrace(o *Options) *TraceSummary {
	user := o.Trace
	if user == nil {
		return nil
	}
	sum := &TraceSummary{ByKind: make(map[EventKind]int)}
	o.Trace = func(ev TraceEvent) {
		sum.Events++
		sum.ByKind[ev.Kind]++
		user(ev)
	}
	return sum
}

// Query is the k-MST entry point: context-first, one Request in, one
// Response out. A canceled or expired context aborts the search between
// node visits with an error wrapping ErrCanceled, Options carries every
// tuning knob, and the Response bundles results, stats, and the optional
// trace summary.
func (db *DB) Query(ctx context.Context, req Request) (Response, error) {
	start := time.Now()
	o := req.Options
	sum := wrapTrace(&o)
	db.mu.RLock()
	results, stats, err := db.kMostSimilar(ctx, req.Q, req.Interval.T1, req.Interval.T2, req.K, req.Metric, req.MetricEps, o)
	db.mu.RUnlock()
	db.finishQuery("kmst", metKMST, start, req, stats, err)
	return Response{Results: results, Stats: stats, Trace: sum}, err
}

// QueryLowerBound returns a certified lower bound on req.Metric between
// req.Q and EVERY stored trajectory over req.Interval, from a single
// root-page read — for the default DISSIM, MINDIST(q, root MBB) ·
// duration, the speed-independent OPTDISSIM bound applied to the index
// root; for the baseline metrics on a metric index, the corresponding
// root-aggregate bound. +Inf means the database provably holds no
// trajectory covering the period. A scatter-gather coordinator
// (internal/shard) calls this per shard to prune shards whose bound
// already exceeds the k-th smallest DISSIM collected so far; req.K and
// req.Options are ignored.
func (db *DB) QueryLowerBound(ctx context.Context, req Request) (float64, error) {
	if err := index.Canceled(ctx); err != nil {
		return 0, err
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	switch tree := db.view().(type) {
	case index.MetricTree:
		return mst.MetricLowerBound(tree, req.Q, req.Interval.T1, req.Interval.T2, req.Metric, req.MetricEps)
	case index.Tree:
		if req.Metric != MetricDISSIM {
			return 0, fmt.Errorf("%w: metric %s is not supported by the %s index (use an %s database)",
				ErrBadQuery, req.Metric, db.kind, NTree)
		}
		return mst.LowerBound(tree, req.Q, req.Interval.T1, req.Interval.T2)
	default:
		return 0, fmt.Errorf("mstsearch: index kind %s exposes no searchable view", db.kind)
	}
}

// QueryAuto answers the request through whichever execution plan the
// selectivity cost model predicts is cheaper: the index-backed best-first
// search when the predicted result corridor is selective, a linear scan of
// the trajectory store when the corridor spans most of the segment mass
// (the index can no longer prune, but still pays traversal overhead). The
// bool reports whether the index was used.
//
// The plan decision, the store statistics it depends on, and the query
// itself all run under one read snapshot of the store, so a concurrent
// Add/AppendSample can never make the estimator price one version of the
// data and the search run against another.
func (db *DB) QueryAuto(ctx context.Context, req Request) (Response, bool, error) {
	start := time.Now()
	o := req.Options
	sum := wrapTrace(&o)
	resp, usedIndex, err := db.queryAutoLocked(ctx, req, o)
	resp.Trace = sum
	db.finishQuery("kmst", metKMST, start, req, resp.Stats, err)
	return resp, usedIndex, err
}

// queryAutoLocked holds the read lock across plan choice and execution.
func (db *DB) queryAutoLocked(ctx context.Context, req Request, o Options) (Response, bool, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	est, err := db.estimateQueryCostLocked(req.Q, req.Interval.T1, req.Interval.T2, req.K)
	if err != nil {
		return Response{}, false, err
	}
	// The linear-scan plan evaluates DISSIM only; a baseline-metric query
	// always runs through the index (which validates kind support).
	if req.Metric != MetricDISSIM || est.ExpectedSegments < 0.5*float64(db.numSegments()) {
		results, stats, err := db.kMostSimilar(ctx, req.Q, req.Interval.T1, req.Interval.T2, req.K, req.Metric, req.MetricEps, o)
		return Response{Results: results, Stats: stats}, true, err
	}
	ds, err := db.dataset()
	if err != nil {
		return Response{}, false, err
	}
	scan := baselines.LinearScanMST(ds, req.Q, req.Interval.T1, req.Interval.T2, req.K)
	out := make([]Result, len(scan))
	for i, r := range scan {
		out[i] = Result{TrajID: r.TrajID, Dissim: r.Dissim, Certified: true}
	}
	return Response{Results: out}, false, nil
}

// Range returns every stored segment intersecting the window during the
// interval.
func (db *DB) Range(ctx context.Context, w Window, iv Interval) ([]SegmentHit, error) {
	start := time.Now()
	hits, err := db.rangeLocked(ctx, w, iv)
	db.finishAux("range", metRange, start, err)
	return hits, err
}

func (db *DB) rangeLocked(ctx context.Context, w Window, iv Interval) ([]SegmentHit, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	if err := iv.Validate(); err != nil {
		return nil, err
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	entries, err := db.segmentsInBox(ctx, w.MBB(iv))
	if err != nil {
		return nil, err
	}
	out := make([]SegmentHit, len(entries))
	for i, e := range entries {
		out[i] = SegmentHit{
			TrajID: e.TrajID, SeqNo: e.SeqNo,
			X1: e.Seg.A.X, Y1: e.Seg.A.Y, T1: e.Seg.A.T,
			X2: e.Seg.B.X, Y2: e.Seg.B.Y, T2: e.Seg.B.T,
		}
	}
	return out, nil
}

// Nearest returns the k moving objects closest to point (x, y) at time
// instant t.
func (db *DB) Nearest(ctx context.Context, x, y, t float64, k int) ([]Neighbor, error) {
	start := time.Now()
	res, err := db.nearestLocked(ctx, x, y, t, k)
	db.finishAux("nn", metNN, start, err)
	return res, err
}

func (db *DB) nearestLocked(ctx context.Context, x, y, t float64, k int) ([]Neighbor, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	p := geom.Point{X: x, Y: y}
	var (
		res []index.NNResult
		err error
	)
	view := db.view()
	if tree, ok := view.(index.Tree); ok {
		res, err = index.NearestAtContext(ctx, tree, p, t, k)
	} else {
		res, err = db.scanNearest(ctx, p, t, k)
	}
	if err != nil {
		return nil, err
	}
	out := make([]Neighbor, len(res))
	for i, r := range res {
		out[i] = Neighbor{TrajID: r.TrajID, Dist: r.Dist}
	}
	return out, nil
}

// scanNearest answers the historical point-NN query from the store — the
// fallback for index kinds whose pages hold no segment geometry (the
// metric N-tree). The semantics mirror index.NearestAtContext exactly:
// each object is reported once at its interpolated position's distance,
// results ordered by (distance, id). Callers must hold db.mu (either
// side): it scans the trajectory store.
func (db *DB) scanNearest(ctx context.Context, p geom.Point, t float64, k int) ([]index.NNResult, error) {
	if k < 1 {
		k = 1
	}
	best := map[ID]float64{}
	for i := range db.trajs {
		if err := index.Canceled(ctx); err != nil {
			return nil, err
		}
		tr := &db.trajs[i]
		for s := 0; s < tr.NumSegments(); s++ {
			seg := tr.Segment(s)
			if t < seg.A.T || t > seg.B.T {
				continue
			}
			d := seg.At(t).Spatial().Dist(p)
			if cur, ok := best[tr.ID]; !ok || d < cur {
				best[tr.ID] = d
			}
		}
	}
	out := make([]index.NNResult, 0, len(best))
	for id, d := range best {
		out = append(out, index.NNResult{TrajID: id, Dist: d})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Dist != out[j].Dist {
			return out[i].Dist < out[j].Dist
		}
		return out[i].TrajID < out[j].TrajID
	})
	if len(out) > k {
		out = out[:k]
	}
	return out, nil
}

// segmentsInBox returns every stored segment whose bound intersects box:
// through the index for segment-carrying kinds, by store scan for the
// metric kind. Callers must hold db.mu.
func (db *DB) segmentsInBox(ctx context.Context, box MBB) ([]index.LeafEntry, error) {
	view := db.view()
	if tree, ok := view.(index.Tree); ok {
		return index.RangeSearchContext(ctx, tree, box)
	}
	var out []index.LeafEntry
	for i := range db.trajs {
		if err := index.Canceled(ctx); err != nil {
			return nil, err
		}
		tr := &db.trajs[i]
		for s := 0; s < tr.NumSegments(); s++ {
			e := index.LeafEntry{TrajID: tr.ID, SeqNo: uint32(s), Seg: tr.Segment(s)}
			if e.MBB().Intersects(box) {
				out = append(out, e)
			}
		}
	}
	return out, nil
}

// Topology classifies every stored trajectory that touches the window
// during the interval by its topological relation (enter/leave/cross/…).
func (db *DB) Topology(ctx context.Context, w Window, iv Interval) ([]TopologyResult, error) {
	start := time.Now()
	res, err := db.topologyLocked(ctx, w, iv)
	db.finishAux("topology", metTopology, start, err)
	return res, err
}

func (db *DB) topologyLocked(ctx context.Context, w Window, iv Interval) ([]TopologyResult, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	if err := iv.Validate(); err != nil {
		return nil, err
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	entries, err := db.segmentsInBox(ctx, w.MBB(iv))
	if err != nil {
		return nil, err
	}
	seen := map[ID]bool{}
	region := w.rect()
	var out []TopologyResult
	for _, e := range entries {
		if seen[e.TrajID] {
			continue
		}
		if err := index.Canceled(ctx); err != nil {
			return nil, err
		}
		seen[e.TrajID] = true
		tr := db.get(e.TrajID)
		if tr == nil {
			continue
		}
		rel, eps, ok := topology.Classify(tr, region, iv.T1, iv.T2)
		if !ok || rel == topology.Disjoint {
			continue
		}
		out = append(out, TopologyResult{
			TrajID:         e.TrajID,
			Relation:       rel.String(),
			InsideDuration: topology.InsideDuration(eps),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].TrajID < out[j].TrajID })
	return out, nil
}

// Relaxed answers the Time-Relaxed MST query (the paper's §6 research
// direction): the k trajectories minimizing DISSIM over every feasible
// time shift of the query — similarity of motion regardless of when each
// object set out. Evaluated by an optimizing scan (grid + golden-section
// per candidate); trajectories shorter than the query are skipped.
// Cancellation is checked between candidate optimizations and surfaces as
// an error wrapping ErrCanceled.
func (db *DB) Relaxed(ctx context.Context, q *Trajectory, k int) ([]RelaxedResult, error) {
	start := time.Now()
	res, err := db.relaxedLocked(ctx, q, k)
	db.finishAux("relaxed", metRelaxed, start, err)
	return res, err
}

func (db *DB) relaxedLocked(ctx context.Context, q *Trajectory, k int) ([]RelaxedResult, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	ds, err := db.dataset()
	if err != nil {
		return nil, err
	}
	res, err := mst.RelaxedScanContext(ctx, ds, q, k, mst.RelaxedOptions{})
	if err != nil {
		return nil, err
	}
	out := make([]RelaxedResult, len(res))
	for i, r := range res {
		out[i] = RelaxedResult{TrajID: r.TrajID, Dissim: r.Dissim, Offset: r.Offset}
	}
	return out, nil
}

// EstimateRange predicts how many segments a Range query over the window
// and interval would return, from the selectivity histogram.
func (db *DB) EstimateRange(w Window, iv Interval) (float64, error) {
	if err := w.Validate(); err != nil {
		return 0, err
	}
	if err := iv.Validate(); err != nil {
		return 0, err
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	h, err := db.histogram()
	if err != nil {
		return 0, err
	}
	return h.EstimateRange(w.MBB(iv)), nil
}
