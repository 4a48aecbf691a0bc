package mst

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"mstsearch/internal/baselines"
	"mstsearch/internal/dissim"
	"mstsearch/internal/geom"
	"mstsearch/internal/index"
	"mstsearch/internal/storage"
	"mstsearch/internal/trajectory"
)

// Metric selects the distance function of a kNN query. The zero value is
// the paper's DISSIM, so existing Request literals keep their meaning;
// the other metrics are the baseline distances of the experimental study
// (§5.2), evaluated exactly over the window-sliced trajectories.
type Metric int

const (
	// MetricDISSIM is the paper's dissimilarity: the time integral of the
	// Euclidean distance over the query window (Definition 1).
	MetricDISSIM Metric = iota
	// MetricDTW is Dynamic Time Warping with Euclidean point cost over
	// the window-sliced sample sequences.
	MetricDTW
	// MetricLCSS is the LCSS distance 1 − LCSS/min(n, m) over the
	// window-sliced sample sequences (matching tolerance Eps per axis).
	MetricLCSS
	// MetricEDR is the Edit Distance on Real sequences over the
	// window-sliced sample sequences (matching tolerance Eps per axis).
	MetricEDR
)

// Valid reports whether m is a known metric.
func (m Metric) Valid() bool { return m >= MetricDISSIM && m <= MetricEDR }

// NeedsEps reports whether the metric requires a positive matching
// tolerance.
func (m Metric) NeedsEps() bool { return m == MetricLCSS || m == MetricEDR }

// String returns the canonical metric name.
func (m Metric) String() string {
	switch m {
	case MetricDISSIM:
		return "dissim"
	case MetricDTW:
		return "dtw"
	case MetricLCSS:
		return "lcss"
	case MetricEDR:
		return "edr"
	}
	return fmt.Sprintf("Metric(%d)", int(m))
}

// ErrUnknownMetric reports a metric name ParseMetric does not recognize.
var ErrUnknownMetric = errors.New("mst: unknown metric")

// ErrNoData reports a metric search attempted without a geometry source:
// the metric tree stores no trajectory geometry, so Options.Data must
// resolve member IDs for exact evaluation.
var ErrNoData = errors.New("mst: metric search requires Options.Data (the tree stores no geometry)")

// ParseMetric inverts Metric.String (case-insensitively; the empty string
// is the zero-value DISSIM, mirroring the Request field's zero value).
func ParseMetric(s string) (Metric, error) {
	switch strings.ToLower(s) {
	case "", "dissim":
		return MetricDISSIM, nil
	case "dtw":
		return MetricDTW, nil
	case "lcss":
		return MetricLCSS, nil
	case "edr":
		return MetricEDR, nil
	}
	return 0, fmt.Errorf("%w: %q", ErrUnknownMetric, s)
}

// EvalMetric evaluates metric m between the query and one stored
// trajectory over the window [t1, t2]: DISSIM integrates exactly, the
// baseline metrics run on the window-sliced sample sequences. ok is false
// when either trajectory does not cover the window — exactly the
// trajectories a k-MST query excludes. Every consumer needing the
// reference value (the tree search, the linear-scan oracle, the sharded
// merge) goes through this one function, so their answers are
// bit-identical by construction.
func EvalMetric(m Metric, eps float64, q, tr *trajectory.Trajectory, t1, t2 float64) (float64, bool) {
	if m == MetricDISSIM {
		return dissim.Exact(q, tr, t1, t2)
	}
	if !q.Covers(t1, t2) || !tr.Covers(t1, t2) {
		return 0, false
	}
	qs, ok := q.Slice(t1, t2)
	if !ok {
		return 0, false
	}
	ts, ok := tr.Slice(t1, t2)
	if !ok {
		return 0, false
	}
	return evalSliced(m, eps, &qs, &ts)
}

// evalSliced evaluates a baseline metric on the window-sliced query and
// trajectory; ok is false for DISSIM, which integrates the unsliced pair.
func evalSliced(m Metric, eps float64, qs, ts *trajectory.Trajectory) (float64, bool) {
	switch m {
	case MetricDTW:
		return baselines.DTW(qs, ts), true
	case MetricLCSS:
		return baselines.LCSSDistance(qs, ts, eps, -1), true
	case MetricEDR:
		return float64(baselines.EDR(qs, ts, eps)), true
	}
	return 0, false
}

// validateMetric rejects unusable metric parameters as ErrBadQuery.
func validateMetric(m Metric, eps float64) error {
	if !m.Valid() {
		return fmt.Errorf("%w: invalid metric %d", ErrBadQuery, int(m))
	}
	if m.NeedsEps() && !(eps > 0) {
		return fmt.Errorf("%w: metric %s requires a positive matching tolerance", ErrBadQuery, m)
	}
	return nil
}

// metricBounder computes sound lower bounds on metric m between the query
// and any trajectory summarized by a subtree aggregate (MBB + sample-count
// range). The bounds only ever apply to trajectories covering the query
// window; aggregates proving no member covers it bound to +Inf.
type metricBounder struct {
	m      Metric
	eps    float64
	q      *trajectory.Trajectory
	qs     trajectory.Trajectory // window-sliced query (non-DISSIM metrics)
	t1, t2 float64
}

func newMetricBounder(m Metric, eps float64, q *trajectory.Trajectory, t1, t2 float64) (*metricBounder, error) {
	b := &metricBounder{m: m, eps: eps, q: q, t1: t1, t2: t2}
	if m != MetricDISSIM {
		qs, ok := q.Slice(t1, t2)
		if !ok {
			return nil, fmt.Errorf("%w: query trajectory must cover period [%g, %g]", ErrBadQuery, t1, t2)
		}
		b.qs = qs
	}
	return b, nil
}

// bound lower-bounds metric m for every covering trajectory inside the
// aggregate. maxSamples caps the members' index-time sample counts
// (0 = unknown, disabling the length-difference bound).
func (b *metricBounder) bound(mbb geom.MBB, maxSamples uint32) float64 {
	if mbb.IsEmpty() || mbb.MinT > b.t1 || mbb.MaxT < b.t2 {
		// MinT aggregates the members' start times, MaxT their end times:
		// a subtree whose earliest start is after t1 (or latest end before
		// t2) holds no trajectory covering the window.
		return math.Inf(1)
	}
	switch b.m {
	case MetricDISSIM:
		d, ok := index.MinDistTrajMBB(b.q, mbb, b.t1, b.t2)
		if !ok {
			return math.Inf(1)
		}
		return d * (b.t2 - b.t1)
	case MetricDTW:
		// Every query sample aligns with at least one candidate sample,
		// each at Euclidean cost at least its distance to the box holding
		// every sliced candidate sample (interior samples lie in the MBB;
		// boundary interpolations do too, by convexity of segments).
		r := mbb.Rect()
		var sum float64
		for _, s := range b.qs.Samples {
			sum += r.DistPoint(geom.Point{X: s.X, Y: s.Y})
		}
		return sum
	case MetricLCSS:
		// No query sample within the per-axis eps expansion of the box ⇒
		// no pair can match ⇒ LCSS 0 ⇒ distance 1. Otherwise nothing.
		if b.anyWithinEps(mbb) {
			return 0
		}
		return 1
	case MetricEDR:
		// Without a possible match every aligned pair costs an edit, so
		// EDR ≥ max(n', m') ≥ n'. With matches possible, the length
		// difference still forces EDR ≥ n' − m', and a member's sliced
		// length is at most its sample count + 2 boundary points.
		n := len(b.qs.Samples)
		if !b.anyWithinEps(mbb) {
			return float64(n)
		}
		if maxSamples > 0 {
			if lb := n - int(maxSamples) - 2; lb > 0 {
				return float64(lb)
			}
		}
		return 0
	}
	return 0
}

// anyWithinEps reports whether any sliced query sample lies within the
// per-axis eps expansion of the aggregate's spatial rectangle — the
// necessary condition for an LCSS/EDR match against a member sample.
func (b *metricBounder) anyWithinEps(mbb geom.MBB) bool {
	for _, s := range b.qs.Samples {
		if s.X >= mbb.MinX-b.eps && s.X <= mbb.MaxX+b.eps &&
			s.Y >= mbb.MinY-b.eps && s.Y <= mbb.MaxY+b.eps {
			return true
		}
	}
	return false
}

// metricSearcher carries one metric kNN query's mutable state.
type metricSearcher struct {
	ctx     context.Context
	tree    index.MetricTree
	q       *trajectory.Trajectory
	t1, t2  float64
	m       Metric
	eps     float64
	opts    Options
	bounder *metricBounder
	stats   Stats

	queue    nodeQueue
	exclude  map[trajectory.ID]bool
	hits     []metricHit               // every exactly evaluated candidate
	dists    []float64                 // their distances, kept sorted for τ
	pivotDW  map[trajectory.ID]float64 // cached d_W(q, pivot); NaN = pivot does not cover the window
	heapPops int

	// Per-search scratch, reused at every leaf: the leaf's admissible
	// members, the member being decided sliced to the window, and the DTW
	// cascade's query box, per-row suffix bounds and kernel rows.
	members []leafMember
	xs      trajectory.Trajectory
	qBox    geom.Rect
	suffix  []float64
	dtwRows baselines.DTWScratch

	// unseenBound floors everything the search never evaluated: the queue
	// head at early termination / budget exhaustion, and the smallest
	// lower bound among pruned subtrees and entries.
	unseenBound float64
}

type metricHit struct {
	id trajectory.ID
	d  float64
}

// leafMember is a leaf entry that covers the window, with its entry bound.
type leafMember struct {
	id trajectory.ID
	lb float64
}

// MetricSearchContext answers an exact kNN query under metric m on a
// metric tree: best-first traversal in ascending lower-bound order,
// triangle-inequality pruning against the stored pivot distances and
// covering radii (DISSIM), MBB-derived bounds for the non-metric
// distances, and exact evaluation of every admitted candidate. Results
// are exact (Err 0) and ordered by (distance, TrajID) — bit-identical to
// a linear scan through EvalMetric over the covering trajectories.
//
// Options carry over from the MBB search: budgets degrade the search with
// Stats.Degraded and per-result certification against Stats.CertFloor,
// ExcludeIDs and Trace behave identically, and Options.Data is REQUIRED —
// the tree stores no geometry, so pivots and candidates are fetched from
// the dataset. Candidate evaluation is already exact and ordered, so there
// is no refinement stage.
func MetricSearchContext(ctx context.Context, tree index.MetricTree, q *trajectory.Trajectory, t1, t2 float64, m Metric, eps float64, opts Options) ([]Result, Stats, error) {
	opts.normalize()
	if q == nil || !(t1 < t2) || !q.Covers(t1, t2) {
		return nil, Stats{}, fmt.Errorf("%w: query trajectory must cover period [%g, %g]", ErrBadQuery, t1, t2)
	}
	if err := validateMetric(m, eps); err != nil {
		return nil, Stats{}, err
	}
	if opts.Data == nil {
		return nil, Stats{}, ErrNoData
	}
	bounder, err := newMetricBounder(m, eps, q, t1, t2)
	if err != nil {
		return nil, Stats{}, err
	}
	s := &metricSearcher{
		ctx: ctx, tree: tree, q: q, t1: t1, t2: t2, m: m, eps: eps,
		opts: opts, bounder: bounder,
		exclude:     make(map[trajectory.ID]bool, len(opts.ExcludeIDs)),
		pivotDW:     make(map[trajectory.ID]float64),
		unseenBound: math.Inf(1),
	}
	for _, id := range opts.ExcludeIDs {
		s.exclude[id] = true
	}
	if m == MetricDTW {
		s.qBox = sampleRect(&bounder.qs)
		s.suffix = make([]float64, len(bounder.qs.Samples))
	}
	s.stats.TotalNodes = tree.NumNodes()
	defer func() { flushMetricSearch(&s.stats, s.heapPops) }()
	if err := s.run(); err != nil {
		return nil, s.stats, err
	}
	res := s.finalize()
	if s.stats.TotalNodes > 0 {
		s.stats.PruningPower = 1 - float64(s.stats.NodesAccessed)/float64(s.stats.TotalNodes)
	}
	return res, s.stats, nil
}

// tau is the current k-th smallest exact distance (+Inf with fewer than k
// evaluated candidates): no subtree or entry whose lower bound strictly
// exceeds it can contribute to the final top-k, because a tied distance
// never displaces a strictly smaller one.
func (s *metricSearcher) tau() float64 {
	if len(s.dists) < s.opts.K {
		return math.Inf(1)
	}
	return s.dists[s.opts.K-1]
}

func (s *metricSearcher) run() error {
	if err := index.Canceled(s.ctx); err != nil {
		return err
	}
	root := s.tree.Root()
	if root == storage.NilPage {
		return nil
	}
	rootNode, err := s.tree.ReadMetricNode(root)
	if err != nil {
		return err
	}
	rootBound := s.bounder.bound(rootNode.MBB(), 0)
	if math.IsInf(rootBound, 1) {
		return nil
	}
	s.queue.push(queueItem{page: root, dist: rootBound, level: 0})
	s.stats.Enqueued++
	s.emitMetric(TraceEvent{Kind: EventNodeEnqueue, Page: root, Level: 0, MBB: rootNode.MBB(), MinDist: rootBound})

	for len(s.queue) > 0 {
		if err := index.Canceled(s.ctx); err != nil {
			return err
		}
		if budget := s.budgetExhausted(); budget != "" {
			s.stats.Degraded = true
			s.noteUnseen(s.queue[0].dist)
			s.emitMetric(TraceEvent{Kind: EventBudgetExhausted, Budget: budget, MinDist: s.queue[0].dist})
			return nil
		}
		it := s.queue.pop()
		s.heapPops++
		// Early termination: bounds leave the heap in non-decreasing
		// order (children are clamped to their parent), so once the head
		// cannot beat τ nothing remaining can.
		if !s.opts.DisableHeuristic2 && len(s.dists) >= s.opts.K && it.dist > s.tau() {
			s.stats.TerminatedEarly = true
			s.noteUnseen(it.dist)
			s.emitMetric(TraceEvent{
				Kind: EventEarlyTerminate, Page: it.page, Level: it.level,
				MinDist: it.dist, Lo: it.dist, Heuristic: 2, Threshold: s.tau(),
			})
			return nil
		}
		n, err := s.tree.ReadMetricNode(it.page)
		if err != nil {
			return err
		}
		s.stats.NodesAccessed++
		if s.opts.Trace != nil {
			s.opts.Trace(TraceEvent{
				Kind: EventNodeVisit, Page: it.page, Level: it.level, Leaf: n.Leaf,
				MBB: n.MBB(), MinDist: it.dist,
			})
		}
		if n.Leaf {
			s.stats.LeavesAccessed++
			if err := s.processLeaf(n, it.dist); err != nil {
				return err
			}
			continue
		}
		for _, c := range n.Children {
			lb := s.childBound(c)
			if math.IsInf(lb, 1) {
				continue // provably no covering member below
			}
			if lb < it.dist {
				lb = it.dist // the parent's bound covers the subtree too
			}
			if !s.opts.DisableHeuristic2 && len(s.dists) >= s.opts.K && lb > s.tau() {
				s.noteUnseen(lb)
				s.emitMetric(TraceEvent{
					Kind: EventCandidatePrune, Page: c.Page, Level: it.level + 1,
					Lo: lb, Heuristic: 2, Threshold: s.tau(),
				})
				continue
			}
			s.queue.push(queueItem{page: c.Page, dist: lb, level: it.level + 1})
			s.stats.Enqueued++
			s.emitMetric(TraceEvent{
				Kind: EventNodeEnqueue, Page: c.Page, Level: it.level + 1,
				MBB: c.MBB, MinDist: lb,
			})
		}
	}
	return nil
}

// childBound lower-bounds metric m for every covering trajectory in the
// child's subtree: the aggregate MBB bound, tightened for DISSIM by the
// triangle inequality d_W(q, x) ≥ d_W(q, pivot) − Radius. The triangle
// form is sound because members covering the window W share it with the
// pivot, so their window distance to the pivot is at most their base
// distance (non-negative integrand), which the radius covers.
func (s *metricSearcher) childBound(c index.MetricChildEntry) float64 {
	lb := s.bounder.bound(c.MBB, c.MaxSamples)
	if s.m != MetricDISSIM || math.IsInf(lb, 1) || math.IsInf(c.Radius, 1) {
		return lb
	}
	if dqp, ok := s.pivotWindowDist(c.PivotID); ok {
		if tri := dqp - c.Radius; tri > lb {
			lb = tri
		}
	}
	return lb
}

// pivotWindowDist returns DISSIM(q, pivot) over the query window, cached
// per pivot. ok is false when the pivot does not cover the window (the
// triangle bound then does not apply).
func (s *metricSearcher) pivotWindowDist(id trajectory.ID) (float64, bool) {
	if d, ok := s.pivotDW[id]; ok {
		return d, !math.IsNaN(d)
	}
	p := s.opts.Data.Get(id)
	if p == nil {
		s.pivotDW[id] = math.NaN()
		return 0, false
	}
	d, ok := dissim.Exact(s.q, p, s.t1, s.t2)
	if !ok {
		s.pivotDW[id] = math.NaN()
		return 0, false
	}
	s.pivotDW[id] = d
	return d, true
}

// processLeaf decides the leaf's covering members in ascending entry-bound
// order, so that τ tightens on the likeliest members before the rest are
// tried. A member is rejected when a lower bound proves it cannot reach the
// top-k, and otherwise evaluated exactly.
func (s *metricSearcher) processLeaf(n *index.MetricNode, nodeBound float64) error {
	s.members = s.members[:0]
	for _, e := range n.Leaves {
		if s.exclude[e.TrajID] {
			continue
		}
		if e.MBB.MinT > s.t1 || e.MBB.MaxT < s.t2 {
			continue // this member provably does not cover the window
		}
		lb := s.entryBound(n.PivotID, e)
		if lb < nodeBound {
			lb = nodeBound
		}
		s.members = append(s.members, leafMember{id: e.TrajID, lb: lb})
	}
	slices.SortStableFunc(s.members, func(a, b leafMember) int { return cmp.Compare(a.lb, b.lb) })
	for _, mb := range s.members {
		if s.prunes(mb.lb) {
			s.reject(mb.id, mb.lb)
			continue
		}
		tr := s.opts.Data.Get(mb.id)
		if tr == nil {
			// A leaf naming a trajectory the store cannot resolve is
			// index/store inconsistency — the same class as a torn page.
			return fmt.Errorf("%w: metric index references unknown trajectory %d", index.ErrCorruptNode, mb.id)
		}
		s.emitMetric(TraceEvent{Kind: EventCandidateAdmit, TrajID: mb.id, Lo: mb.lb, Hi: math.Inf(1)})
		d, exact, ok := s.evaluate(tr)
		if !ok {
			continue
		}
		if !exact {
			s.reject(mb.id, d)
			continue
		}
		s.stats.Completed++
		s.stats.ExactRefined++
		s.hits = append(s.hits, metricHit{id: mb.id, d: d})
		i := sort.SearchFloat64s(s.dists, d)
		s.dists = append(s.dists, 0)
		copy(s.dists[i+1:], s.dists[i:])
		s.dists[i] = d
		s.emitMetric(TraceEvent{Kind: EventCandidateComplete, TrajID: mb.id, Lo: d, Hi: d, Exact: d})
	}
	return nil
}

// prunes reports whether Heuristic 1 rejects a member whose distance is at
// least lb: only on strict excess over τ, because a tie may still enter the
// top-k on its TrajID.
func (s *metricSearcher) prunes(lb float64) bool {
	return !s.opts.DisableHeuristic1 && len(s.dists) >= s.opts.K && lb > s.tau()
}

// reject records a member proved outside the top-k by lower bound lb.
func (s *metricSearcher) reject(id trajectory.ID, lb float64) {
	s.stats.Rejected++
	s.noteUnseen(lb)
	s.emitMetric(TraceEvent{
		Kind: EventCandidatePrune, TrajID: id, Lo: lb,
		Heuristic: 1, Threshold: s.tau(),
	})
}

// evaluate decides an admitted member. It returns the exact distance and
// exact = true, or, for DTW, a lower bound strictly above τ and exact =
// false. ok is false when the member does not cover the window.
func (s *metricSearcher) evaluate(tr *trajectory.Trajectory) (d float64, exact, ok bool) {
	if s.m == MetricDISSIM {
		d, ok = dissim.Exact(s.q, tr, s.t1, s.t2)
		return d, true, ok
	}
	if !tr.Covers(s.t1, s.t2) {
		return 0, false, false
	}
	if s.m == MetricDTW {
		d, exact = s.decideDTW(tr)
		return d, exact, true
	}
	s.sliceMember(tr)
	d, ok = evalSliced(s.m, s.eps, &s.bounder.qs, &s.xs)
	return d, true, ok
}

// entryBound lower-bounds metric m for one covering leaf member: the
// entry MBB bound, tightened for DISSIM by the leaf-pivot triangle bound
// d_W(q, x) ≥ d_W(q, pivot) − DistToPivot (the stored base distance upper
// bounds the window distance, never the reverse — so only this direction
// of the triangle inequality is sound).
func (s *metricSearcher) entryBound(pivotID trajectory.ID, e index.MetricLeafEntry) float64 {
	lb := s.bounder.bound(e.MBB, e.Samples)
	if s.m != MetricDISSIM || math.IsInf(lb, 1) || math.IsInf(e.DistToPivot, 1) {
		return lb
	}
	if dqp, ok := s.pivotWindowDist(pivotID); ok {
		if tri := dqp - e.DistToPivot; tri > lb {
			lb = tri
		}
	}
	return lb
}

func (s *metricSearcher) budgetExhausted() string {
	if s.opts.MaxNodeAccesses > 0 && s.stats.NodesAccessed >= s.opts.MaxNodeAccesses {
		return "nodes"
	}
	if s.opts.MaxIOReads > 0 && s.opts.IOReads != nil && s.opts.IOReads() >= s.opts.MaxIOReads {
		return "io"
	}
	return ""
}

func (s *metricSearcher) noteUnseen(lb float64) {
	if lb < s.unseenBound {
		s.unseenBound = lb
	}
}

func (s *metricSearcher) emitMetric(ev TraceEvent) {
	if s.opts.Trace != nil {
		s.opts.Trace(ev)
	}
}

// finalize ranks the exactly evaluated candidates by (distance, TrajID),
// truncates to k, and certifies: a completed search proves every result;
// a degraded one certifies a result only when nothing unseen (queued,
// pruned, or merged out) can lie below it.
func (s *metricSearcher) finalize() []Result {
	sort.Slice(s.hits, func(i, j int) bool {
		if !geom.ExactEq(s.hits[i].d, s.hits[j].d) {
			return s.hits[i].d < s.hits[j].d
		}
		return s.hits[i].id < s.hits[j].id
	})
	floor := s.unseenBound
	hits := s.hits
	if len(hits) > s.opts.K {
		for _, h := range hits[s.opts.K:] {
			if h.d < floor {
				floor = h.d
			}
		}
		hits = hits[:s.opts.K]
	}
	s.stats.CertFloor = floor
	out := make([]Result, len(hits))
	for i, h := range hits {
		out[i] = Result{TrajID: h.id, Dissim: h.d, Err: 0, Certified: true}
		if s.stats.Degraded {
			out[i].Certified = h.d <= floor
		}
	}
	return out
}

// flushMetricSearch publishes a metric search's counters into the same
// process-wide registry the MBB search feeds.
func flushMetricSearch(st *Stats, heapPops int) {
	metSearches.Inc()
	metNodesVisited.Add(uint64(st.NodesAccessed))
	metLeavesRead.Add(uint64(st.LeavesAccessed))
	metHeapPushes.Add(uint64(st.Enqueued))
	metHeapPops.Add(uint64(heapPops))
	metPruneH1.Add(uint64(st.Rejected))
	if st.TerminatedEarly {
		metPruneH2.Inc()
	}
	metExactEvals.Add(uint64(st.ExactRefined))
	if st.Degraded {
		metDegraded.Inc()
	}
	metNodesPerQ.Observe(float64(st.NodesAccessed))
}

// MetricLowerBound returns a certified lower bound on metric m between
// the query and every covering trajectory the tree stores, at the cost of
// one root-page read — the metric-tree analogue of LowerBound, and the
// value a scatter-gather coordinator uses for shard pruning. +Inf means
// provably no stored trajectory covers the period.
func MetricLowerBound(tree index.MetricTree, q *trajectory.Trajectory, t1, t2 float64, m Metric, eps float64) (float64, error) {
	if q == nil || !(t1 < t2) || !q.Covers(t1, t2) {
		return 0, fmt.Errorf("%w: query trajectory must cover period [%g, %g]", ErrBadQuery, t1, t2)
	}
	if err := validateMetric(m, eps); err != nil {
		return 0, err
	}
	root := tree.Root()
	if root == storage.NilPage {
		return math.Inf(1), nil
	}
	n, err := tree.ReadMetricNode(root)
	if err != nil {
		return 0, err
	}
	bounder, err := newMetricBounder(m, eps, q, t1, t2)
	if err != nil {
		return 0, err
	}
	var maxSamples uint32
	if n.Leaf {
		for _, e := range n.Leaves {
			if e.Samples > maxSamples {
				maxSamples = e.Samples
			}
		}
	} else {
		for _, c := range n.Children {
			if c.MaxSamples > maxSamples {
				maxSamples = c.MaxSamples
			}
		}
	}
	return bounder.bound(n.MBB(), maxSamples), nil
}
