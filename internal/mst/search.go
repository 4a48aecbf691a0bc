// Package mst implements BFMSTSearch, the paper's best-first k-Most-
// Similar-Trajectory algorithm (§4) over any index.Tree. The algorithm
// visits tree nodes in increasing MINDIST order, incrementally assembles
// per-candidate dissimilarity state (the Valid / Completed / Rejected
// structures of Fig. 7), and prunes with:
//
//   - Heuristic 1: a candidate whose OPTDISSIM exceeds the current k-th
//     best upper bound can never be an answer → Rejected;
//   - Heuristic 2: once a node's MINDISSIMINC exceeds the k-th best upper
//     bound, that node and — because nodes are reported in MINDIST order —
//     every remaining node can be discarded, terminating the search.
//
// Error management (§4.4) is integrated throughout: every comparison uses
// certified bounds (approximation ± Lemma 1 error).
//
// When the caller hands over the trajectory store (Options.Data), the
// search extends the paper: each trajectory is decided by its exact DISSIM
// the first time a leaf names it, instead of being assembled segment by
// segment across leaves and recomputed in §4.4 post-processing. The
// best-first order and Heuristic 2 stay the paper's.
package mst

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"

	"mstsearch/internal/debugassert"
	"mstsearch/internal/dissim"
	"mstsearch/internal/geom"
	"mstsearch/internal/index"
	"mstsearch/internal/storage"
	"mstsearch/internal/trajectory"
)

// Options configures a search.
type Options struct {
	// K is the number of most similar trajectories to return (default 1).
	K int
	// Vmax is the maximum relative speed — the sum of the maximum speed of
	// indexed trajectories and the query's maximum speed (Table 1). It
	// powers the speed-dependent OPTDISSIM/PESDISSIM bounds; if ≤ 0 those
	// bounds are disabled and only speed-independent pruning is used.
	Vmax float64
	// Refine is the per-interval trapezoid refinement factor (≥ 1;
	// 1 reproduces Lemma 1 exactly as stated).
	Refine int
	// DisableHeuristic1 turns off OPTDISSIM-based candidate rejection
	// (ablation).
	DisableHeuristic1 bool
	// DisableHeuristic2 turns off MINDISSIMINC-based early termination
	// (ablation).
	DisableHeuristic2 bool
	// Data, when non-nil, is the trajectory store the indexed segments
	// came from. The search then decides each trajectory exactly the first
	// time a leaf names it: one covering the period completes at its exact
	// DISSIM, one that does not is dropped for good. Results then carry
	// Err = 0 and no trapezoid is evaluated. Without Data the search is the
	// paper's, with certified trapezoid intervals.
	Data *trajectory.Dataset
	// Owners, when set alongside Data, names the one trajectory of every
	// leaf page that holds segments of one trajectory only. The search then
	// skips such a leaf once its trajectory is decided, without reading it:
	// at enqueue, before its MINDIST is computed, and at pop, before
	// Heuristic 2 and the read. Every entry of a skipped leaf belongs to a
	// trajectory whose exact DISSIM, or out-of-play status, is already
	// recorded, so the answer does not change. Ignored without Data.
	Owners LeafOwners
	// ExcludeIDs are trajectories never reported (nor used to tighten
	// bounds) — typically the query's own stored twin when searching "more
	// like this one".
	ExcludeIDs []trajectory.ID
	// MaxNodeAccesses bounds the number of tree nodes the search may read
	// (0 = unlimited). On exhaustion the search degrades gracefully: it
	// returns the best-effort top-k assembled so far with Stats.Degraded
	// set, never exceeding the budget.
	MaxNodeAccesses int
	// MaxIOReads bounds the physical page reads (buffer misses) the search
	// may cause (0 = unlimited). IOReads must be set for the bound to take
	// effect; it is sampled between node pops, so a single node read may
	// overshoot by one page.
	MaxIOReads uint64
	// IOReads reports the physical reads attributed to this search so far —
	// typically a closure over the query's buffer-pool miss counter.
	IOReads func() uint64
	// Trace, when non-nil, receives one typed TraceEvent per search step
	// (node visits with MBB and MINDIST, candidate admissions and prunes
	// with certified bounds, budget exhaustion),
	// synchronously from the searching goroutine. A nil hook costs one
	// branch per step and allocates nothing. Tracing never changes what
	// the search computes.
	Trace func(TraceEvent)
}

// LeafOwners is the leaf-owner table a search may skip decided leaves by:
// index.LeafOwners, kept by the tree's node store.
type LeafOwners interface {
	// Owner returns the one trajectory whose segments leaf page p holds;
	// ok is false for any other page.
	Owner(p storage.PageID) (id trajectory.ID, ok bool)
}

func (o *Options) normalize() {
	if o.K < 1 {
		o.K = 1
	}
	if o.Data == nil {
		o.Owners = nil
	}
	if o.Refine < 1 {
		o.Refine = 1
	}
}

// Result is one answer of a k-MST query, ordered most similar first.
type Result struct {
	TrajID trajectory.ID
	// Dissim is the trajectory's dissimilarity from the query: exact when
	// the search had the trajectory store (Err == 0), otherwise the
	// trapezoid approximation with Err its certified bound.
	Dissim float64
	Err    float64
	// Certified reports whether the result is provably a member of the
	// true top-k. Searches that run to completion certify every result;
	// a budget-degraded search certifies a result only when no unexplored
	// or partially-explored trajectory can beat it (its upper bound lies
	// below every unexplored lower bound). Uncertified results are the
	// best effort seen so far and may be displaced by unexplored data.
	Certified bool
}

// Stats reports the work a search performed.
type Stats struct {
	NodesAccessed   int     // tree nodes popped and read
	LeavesAccessed  int     // of which leaves
	LeavesSkipped   int     // leaves never read: their one trajectory was already decided (Options.Owners)
	TotalNodes      int     // nodes in the tree
	PruningPower    float64 // 1 − NodesAccessed/TotalNodes
	Enqueued        int     // heap insertions
	Completed       int     // candidates fully assembled or decided exactly
	Rejected        int     // candidates pruned by Heuristic 1
	TerminatedEarly bool    // Heuristic 2 fired before queue exhaustion
	ExactRefined    int     // candidates decided by exact DISSIM from Options.Data
	TrapezoidEvals  int     // Lemma 1 trapezoid interval evaluations
	// Degraded reports that a budget (MaxNodeAccesses / MaxIOReads) ran out
	// before the search could finish: the results are the best effort
	// assembled so far, with per-result Certified flags separating proven
	// answers from provisional ones.
	Degraded bool
	// CertFloor is a certified lower bound on the DISSIM of every
	// trajectory covering the query period that is NOT among the returned
	// results: unexplored subtrees are floored by the MINDIST of the next
	// unprocessed node, partially assembled and rejected candidates by
	// their certified lo. +Inf when the search can prove nothing was left
	// behind (every covering trajectory was returned). A distributed
	// coordinator merges per-shard answers soundly by comparing a result's
	// pessimistic bound against the other shards' floors. Only meaningful
	// on a nil-error search.
	CertFloor float64
}

// ErrBadQuery reports an unusable query: a trajectory not covering the
// query period, an inverted period, or metric parameters the target
// index cannot serve. Wrap sites append the specific complaint.
var ErrBadQuery = errors.New("mst: bad query")

// ErrCanceled reports a search abandoned because its context was canceled
// or its deadline expired (it also wraps the context's own error).
var ErrCanceled = index.ErrCanceled

// ErrDeadlineExceeded refines ErrCanceled for the deadline case; errors
// wrapping it also wrap ErrCanceled and context.DeadlineExceeded.
var ErrDeadlineExceeded = index.ErrDeadlineExceeded

// queueItem is a tree node awaiting processing, keyed by MINDIST. level is
// the node's depth below the root (root = 0), carried for tracing.
type queueItem struct {
	page  storage.PageID
	dist  float64
	level int
}

// nodeQueue is the best-first queue, a binary min-heap on dist. push and
// pop are container/heap's sift-up and sift-down written out for this one
// element type: nodes of equal MINDIST leave in the same order as through
// container/heap, and no item is boxed in an interface on the way in or
// out.
type nodeQueue []queueItem

func (q *nodeQueue) push(it queueItem) {
	*q = append(*q, it)
	h := *q
	for j := len(h) - 1; j > 0; {
		i := (j - 1) / 2
		if !(h[j].dist < h[i].dist) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (q *nodeQueue) pop() queueItem {
	h := *q
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && h[j2].dist < h[j].dist {
			j = j2
		}
		if !(h[j].dist < h[i].dist) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	it := h[n]
	*q = h[:n]
	return it
}

type candState int

const (
	stateValid candState = iota
	stateCompleted
	stateRejected
)

// candidate is the per-trajectory search state: its Partial interval list
// plus the certified [lo, hi] interval its exact DISSIM must lie in.
type candidate struct {
	id      trajectory.ID
	partial *dissim.Partial
	state   candState
	lo, hi  float64
	inLeaf  bool // listed in searcher.touched for the leaf being swept
}

// outOfPlay is the placeholder every trajectory that can never be an
// answer maps to in searcher.cands: the ExcludeIDs, and on the store path
// the trajectories not covering the period. It is never live, so it never
// counts toward τ, the certification floor or Heuristic 2.
var outOfPlay = &candidate{state: stateRejected, hi: math.Inf(1)}

// searcher carries one query's mutable state.
type searcher struct {
	ctx   context.Context
	tree  index.Tree
	q     *trajectory.Trajectory
	t1    float64
	t2    float64
	opts  Options
	stats Stats

	queue nodeQueue
	cands map[trajectory.ID]*candidate // admitted candidates and outOfPlay placeholders
	live  []*candidate                 // admitted candidates, in admission order

	// Scratch reused at every leaf and every τ refresh: the leaf's entries
	// when they need sorting, the candidates the leaf touched, and the
	// live upper bounds τ is picked from.
	sorted  []index.LeafEntry
	touched []*candidate
	his     []float64

	tau      float64 // cached k-th smallest hi over candidates
	tauDirty bool

	// unseenDist is the MINDIST of the next unprocessed node at the moment
	// the search stopped visiting nodes — set when a budget runs out or
	// Heuristic 2 terminates early, +Inf when the queue drained naturally.
	// No trajectory confined to unexplored subtrees can have DISSIM below
	// unseenDist · (t2 − t1): the speed-independent half of Stats.CertFloor
	// and the certification floor of degraded results.
	unseenDist float64

	segTraj    trajectory.Trajectory // reusable 2-sample wrapper over segSamples
	segSamples [2]trajectory.Sample

	heapPops int // pop operations (>= NodesAccessed; tracing/metrics only)

	// lastPop tracks the best-first monotonicity invariant under the
	// debugassert build tag: MINDIST values must leave the heap in
	// non-decreasing order (distances are >= 0, so the zero value is a
	// valid floor).
	lastPop float64
}

// Search runs BFMSTSearch on the tree for query trajectory q during
// [t1, t2], returning the k most similar trajectories (most similar first)
// and the search statistics.
func Search(tree index.Tree, q *trajectory.Trajectory, t1, t2 float64, opts Options) ([]Result, Stats, error) {
	return SearchContext(context.Background(), tree, q, t1, t2, opts)
}

// SearchContext is Search under a context: cancellation is checked between
// node pops, so a canceled or expired query returns promptly with an error
// wrapping ErrCanceled (and the context's own error) instead of running to
// completion.
func SearchContext(ctx context.Context, tree index.Tree, q *trajectory.Trajectory, t1, t2 float64, opts Options) ([]Result, Stats, error) {
	opts.normalize()
	if q == nil || !(t1 < t2) || !q.Covers(t1, t2) {
		return nil, Stats{}, fmt.Errorf("%w: query trajectory must cover period [%g, %g]", ErrBadQuery, t1, t2)
	}
	s := &searcher{
		ctx:        ctx,
		tree:       tree,
		q:          q,
		t1:         t1,
		t2:         t2,
		opts:       opts,
		cands:      make(map[trajectory.ID]*candidate),
		tau:        math.Inf(1),
		tauDirty:   false,
		unseenDist: math.Inf(1),
	}
	s.stats.TotalNodes = tree.NumNodes()
	s.segTraj.Samples = s.segSamples[:]
	for _, id := range opts.ExcludeIDs {
		s.cands[id] = outOfPlay
	}
	defer func() { s.flushMetrics(s.heapPops) }()
	if err := s.run(); err != nil {
		return nil, s.stats, err
	}
	res := s.finalize()
	if s.stats.TotalNodes > 0 {
		s.stats.PruningPower = 1 - float64(s.stats.NodesAccessed)/float64(s.stats.TotalNodes)
	}
	return res, s.stats, nil
}

func (s *searcher) run() error {
	// A context dead on arrival aborts before the first page is touched.
	if err := index.Canceled(s.ctx); err != nil {
		return err
	}
	root := s.tree.Root()
	if root == storage.NilPage {
		return nil
	}
	// A corrupt or faulted root page must surface as a typed error, never
	// as an empty bound and so an empty result set.
	rootNode, err := s.tree.ReadNode(root)
	if err != nil {
		return err
	}
	rootMBB := rootNode.MBB()
	if !rootMBB.OverlapsTime(s.t1, s.t2) {
		return nil
	}
	d, ok := index.MinDistTrajMBB(s.q, rootMBB, s.t1, s.t2)
	if !ok {
		return nil
	}
	s.queue.push(queueItem{page: root, dist: d, level: 0})
	s.stats.Enqueued++
	s.emit(TraceEvent{Kind: EventNodeEnqueue, Page: root, Level: 0, MBB: rootMBB, MinDist: d})

	for len(s.queue) > 0 {
		// Cancellation and budget checks sit between node pops: the search
		// never starts a node read it is not entitled to, so NodesAccessed
		// can never exceed MaxNodeAccesses.
		if err := index.Canceled(s.ctx); err != nil {
			return err
		}
		if budget := s.budgetExhausted(); budget != "" {
			s.stats.Degraded = true
			s.unseenDist = s.queue[0].dist
			s.emit(TraceEvent{Kind: EventBudgetExhausted, Budget: budget, MinDist: s.unseenDist})
			return nil
		}

		it := s.queue.pop()
		s.heapPops++
		if debugassert.Enabled {
			debugassert.Assertf(it.dist >= s.lastPop,
				"best-first order violated: popped MINDIST %v after %v (page %d)",
				it.dist, s.lastPop, it.page)
			s.lastPop = it.dist
		}
		if s.skipLeaf(it.page) {
			continue
		}

		// Heuristic 2: MINDISSIMINC test. Because nodes pop in MINDIST
		// order, a positive test terminates the whole search (paper lines
		// 5-7).
		if !s.opts.DisableHeuristic2 && s.completedCount() >= s.opts.K {
			if m := s.minDissimInc(it.dist); m > s.threshold() {
				s.stats.TerminatedEarly = true
				s.unseenDist = it.dist
				s.emit(TraceEvent{
					Kind: EventEarlyTerminate, Page: it.page, Level: it.level,
					MinDist: it.dist, Lo: m, Heuristic: 2, Threshold: s.threshold(),
				})
				return nil
			}
		}

		n, err := s.tree.ReadNode(it.page)
		if err != nil {
			return err
		}
		s.stats.NodesAccessed++
		if s.opts.Trace != nil { // guard: n.MBB() walks the node's entries
			s.opts.Trace(TraceEvent{
				Kind: EventNodeVisit, Page: it.page, Level: it.level, Leaf: n.Leaf,
				MBB: n.MBB(), MinDist: it.dist,
			})
		}
		if n.Leaf {
			s.stats.LeavesAccessed++
			if s.opts.Data != nil {
				if err := s.decideLeaf(n); err != nil {
					return err
				}
			} else {
				s.processLeaf(n, it.dist)
			}
			continue
		}
		for _, c := range n.Children {
			if !c.MBB.OverlapsTime(s.t1, s.t2) || s.skipLeaf(c.Page) {
				continue
			}
			d, ok := index.MinDistTrajMBB(s.q, c.MBB, s.t1, s.t2)
			if !ok {
				continue
			}
			if d < it.dist {
				d = it.dist // enforce MINDIST monotonicity under round-off
			}
			s.queue.push(queueItem{page: c.Page, dist: d, level: it.level + 1})
			s.stats.Enqueued++
			s.emit(TraceEvent{
				Kind: EventNodeEnqueue, Page: c.Page, Level: it.level + 1,
				MBB: c.MBB, MinDist: d,
			})
		}
	}
	return nil
}

// skipLeaf reports whether page is a leaf holding segments of one
// trajectory only, already decided, and so never worth reading: the tree
// is then needed only to discover trajectories, and this leaf names none
// that is new. It counts and traces each skip.
func (s *searcher) skipLeaf(page storage.PageID) bool {
	if s.opts.Owners == nil {
		return false
	}
	id, ok := s.opts.Owners.Owner(page)
	if !ok {
		return false
	}
	if _, decided := s.cands[id]; !decided {
		return false
	}
	s.stats.LeavesSkipped++
	s.emit(TraceEvent{Kind: EventLeafSkip, Page: page, TrajID: id})
	return true
}

// budgetExhausted names the per-query resource budget that has run out
// ("nodes" or "io"), or "" while the search is still within budget. Both
// budgets degrade the search instead of failing it: partial answers with
// an honest Degraded flag beat an error on a query that already did most
// of its work.
func (s *searcher) budgetExhausted() string {
	if s.opts.MaxNodeAccesses > 0 && s.stats.NodesAccessed >= s.opts.MaxNodeAccesses {
		return "nodes"
	}
	if s.opts.MaxIOReads > 0 && s.opts.IOReads != nil && s.opts.IOReads() >= s.opts.MaxIOReads {
		return "io"
	}
	return ""
}

// processLeaf sweeps the leaf's entries (paper lines 9-30) in two passes.
// The first folds every entry into its candidate's interval list, in
// temporal order (the TB-tree stores entries that way already; other
// leaves are sorted in scratch). The second refreshes each candidate the
// leaf touched once, in the order the leaf first named them. Every bound
// is certified whenever it is computed, so a refresh at the leaf's end is
// sound: it decides on a fuller list, which can move when a candidate is
// rejected but never the answer.
func (s *searcher) processLeaf(n *index.Node, nodeDist float64) {
	entries := n.Leaves
	if !slices.IsSortedFunc(entries, byStartTime) {
		s.sorted = append(s.sorted[:0], entries...)
		slices.SortFunc(s.sorted, byStartTime)
		entries = s.sorted
	}
	s.touched = s.touched[:0]
	for i := range entries {
		e := &entries[i]
		if e.Seg.B.T < s.t1 || e.Seg.A.T > s.t2 {
			continue
		}
		c, rejected := s.candidateFor(e.TrajID)
		if rejected {
			continue
		}
		if !c.inLeaf {
			c.inLeaf = true
			s.touched = append(s.touched, c)
		}
		s.addEntry(c, e)
	}
	for _, c := range s.touched {
		c.inLeaf = false
		s.updateCandidate(c, nodeDist)
	}
}

func byStartTime(a, b index.LeafEntry) int { return cmp.Compare(a.Seg.A.T, b.Seg.A.T) }

// decideLeaf is the leaf step when the trajectory store is at hand. Each
// trajectory is decided by its exact DISSIM over the period the first time
// any leaf names it; later entries of a decided trajectory are skipped. One
// covering the period completes with lo = hi = that value. One that does
// not has no DISSIM (§3 Def. 1) and is put out of play. The decision never
// rejects: Heuristic 2 against the k-th exact value does all the pruning.
func (s *searcher) decideLeaf(n *index.Node) error {
	for i := range n.Leaves {
		e := &n.Leaves[i]
		if e.Seg.B.T < s.t1 || e.Seg.A.T > s.t2 {
			continue
		}
		if _, seen := s.cands[e.TrajID]; seen {
			continue
		}
		tr := s.opts.Data.Get(e.TrajID)
		if tr == nil {
			// A leaf naming a trajectory the store cannot resolve is
			// index/store inconsistency — the same class as a torn page.
			return fmt.Errorf("%w: leaf references unknown trajectory %d", index.ErrCorruptNode, e.TrajID)
		}
		d, ok := dissim.Exact(s.q, tr, s.t1, s.t2)
		if !ok {
			s.cands[e.TrajID] = outOfPlay
			continue
		}
		c := &candidate{id: e.TrajID, state: stateCompleted, lo: d, hi: d}
		s.cands[c.id] = c
		s.live = append(s.live, c)
		s.stats.Completed++
		s.stats.ExactRefined++
		s.tauDirty = true
		s.emit(TraceEvent{Kind: EventCandidateAdmit, TrajID: c.id, Lo: 0, Hi: math.Inf(1)})
		s.emit(TraceEvent{Kind: EventCandidateComplete, TrajID: c.id, Lo: d, Hi: d, Exact: d})
	}
	return nil
}

// candidateFor fetches or creates the candidate list for a trajectory,
// reporting whether it is already rejected (paper lines 12-13).
func (s *searcher) candidateFor(id trajectory.ID) (*candidate, bool) {
	c, ok := s.cands[id]
	if !ok {
		c = &candidate{
			id:      id,
			partial: dissim.NewPartial(s.t1, s.t2),
			lo:      0,
			hi:      math.Inf(1),
		}
		s.cands[id] = c
		s.live = append(s.live, c)
		s.emit(TraceEvent{Kind: EventCandidateAdmit, TrajID: id, Lo: c.lo, Hi: c.hi})
		return c, false
	}
	return c, c.state == stateRejected
}

// addEntry aligns one indexed segment with the query over their common
// window and folds the resulting intervals into the candidate's Partial
// (paper lines 15-18: interpolation + DISSIM/bounds bookkeeping).
func (s *searcher) addEntry(c *candidate, e *index.LeafEntry) {
	lo := math.Max(s.t1, e.Seg.A.T)
	hi := math.Min(s.t2, e.Seg.B.T)
	if lo >= hi {
		return
	}
	s.segTraj.ID = e.TrajID
	s.segTraj.Samples[0] = trajectory.Sample{X: e.Seg.A.X, Y: e.Seg.A.Y, T: e.Seg.A.T}
	s.segTraj.Samples[1] = trajectory.Sample{X: e.Seg.B.X, Y: e.Seg.B.Y, T: e.Seg.B.T}
	trajectory.ForEachAligned(s.q, &s.segTraj, lo, hi, func(qs, ts geom.Segment) bool {
		c.partial.Add(dissim.IntervalOf(qs, ts, s.opts.Refine))
		s.stats.TrapezoidEvals++
		return true
	})
}

// updateCandidate refreshes the candidate's certified bounds after new
// intervals arrived, completing or rejecting it (paper lines 19-27).
func (s *searcher) updateCandidate(c *candidate, nodeDist float64) {
	if c.state != stateValid {
		return
	}
	if c.partial.Complete() {
		v := c.partial.Known()
		c.lo, c.hi = v.Lower(), v.Upper()
		if debugassert.Enabled {
			assertBounds(c)
		}
		c.state = stateCompleted
		s.stats.Completed++
		s.tauDirty = true
		s.emit(TraceEvent{Kind: EventCandidateComplete, TrajID: c.id, Lo: c.lo, Hi: c.hi})
		return
	}
	// Lower bound: speed-independent OPTDISSIMINC always applies; the
	// speed-dependent OPTDISSIM tightens it when Vmax is known.
	lo := c.partial.OptDissimInc(nodeDist)
	if s.opts.Vmax > 0 {
		lo = math.Max(lo, c.partial.OptDissim(s.opts.Vmax))
	}
	c.lo = lo
	if s.opts.Vmax > 0 {
		hi := c.partial.PesDissim(s.opts.Vmax)
		if hi < c.hi {
			c.hi = hi
			s.tauDirty = true
		}
	}
	if debugassert.Enabled {
		assertBounds(c)
	}
	if !s.opts.DisableHeuristic1 && c.lo > s.threshold() {
		c.state = stateRejected
		s.stats.Rejected++
		s.emit(TraceEvent{
			Kind: EventCandidatePrune, TrajID: c.id, Lo: c.lo, Hi: c.hi,
			Heuristic: 1, Threshold: s.threshold(),
		})
	}
}

// assertBounds checks the §4.4 certified-interval ordering lo <= hi
// (OPTDISSIM <= PESDISSIM), with relative slack for round-off between
// the independently computed bound formulas.
func assertBounds(c *candidate) {
	slack := 1e-9 * (1 + math.Abs(c.hi))
	debugassert.Assertf(c.lo <= c.hi+slack,
		"candidate %d certified bounds inverted: lo %v > hi %v", c.id, c.lo, c.hi)
}

// threshold returns τ: the k-th smallest certified upper bound over all
// live candidates — no true answer can have DISSIM above it. It is +Inf
// until k candidates have finite upper bounds.
func (s *searcher) threshold() float64 {
	if !s.tauDirty {
		return s.tau
	}
	s.his = s.his[:0]
	for _, c := range s.live {
		if c.state != stateRejected && !math.IsInf(c.hi, 1) {
			s.his = append(s.his, c.hi)
		}
	}
	if len(s.his) < s.opts.K {
		s.tau = math.Inf(1)
	} else {
		slices.Sort(s.his)
		s.tau = s.his[s.opts.K-1]
	}
	s.tauDirty = false
	return s.tau
}

// completedCount returns the number of completed candidates.
func (s *searcher) completedCount() int { return s.stats.Completed }

// minDissimInc evaluates MINDISSIMINC (Definition 6) for the node about to
// be processed: the smaller of MINDIST·period and the best OPTDISSIMINC
// over the still-valid partially retrieved candidates (the set SC). The
// paper's shortcut applies: when MINDIST·period alone cannot exceed the
// threshold, the SC scan is skipped.
func (s *searcher) minDissimInc(nodeDist float64) float64 {
	span := s.t2 - s.t1
	m := nodeDist * span
	if m <= s.threshold() {
		return m
	}
	for _, c := range s.live {
		if c.state != stateValid {
			continue
		}
		if v := c.partial.OptDissimInc(nodeDist); v < m {
			m = v
			if m <= s.threshold() {
				break
			}
		}
	}
	return m
}

// finalize ranks completed candidates and returns the k best.
func (s *searcher) finalize() []Result {
	done := make([]*candidate, 0, s.stats.Completed)
	for _, c := range s.live {
		if c.state == stateCompleted {
			done = append(done, c)
		}
	}
	slices.SortFunc(done, byEstimate)
	if len(done) == 0 {
		s.stats.CertFloor = s.certificationFloor(nil)
		return nil
	}

	k := s.opts.K
	returned, dropped := done, done[:0]
	if len(done) > k {
		returned, dropped = done[:k], done[k:]
	}
	out := make([]Result, len(returned))
	for i, c := range returned {
		out[i] = Result{TrajID: c.id, Dissim: c.midpoint(), Err: c.err(), Certified: true}
	}
	// A completed search proves every returned result (the algorithm's
	// exactness guarantee). A budget-degraded search certifies only the
	// results no unexplored or partially-explored trajectory can displace.
	floor := s.certificationFloor(dropped)
	s.stats.CertFloor = floor
	if s.stats.Degraded {
		for i, c := range returned {
			out[i].Certified = c.hi <= floor
		}
	}
	return out
}

// byEstimate orders completed candidates by their point estimate, ties by
// TrajID.
func byEstimate(a, b *candidate) int {
	if va, vb := a.midpoint(), b.midpoint(); !geom.ExactEq(va, vb) {
		if va < vb {
			return -1
		}
		return 1
	}
	return cmp.Compare(a.id, b.id)
}

// certificationFloor returns a lower bound on the DISSIM of every
// trajectory NOT among the returned results: nodes still queued pop in
// MINDIST order, so anything unexplored has DISSIM ≥ unseenDist · period
// (speed-independent bound; +Inf when the queue drained); partially
// assembled and rejected candidates, and the completed ones ranked below
// the results (dropped), are bounded by their certified lo. A returned
// result whose upper bound lies below this floor is provably in the true
// top-k, and a distributed merge can use the floor (Stats.CertFloor) to
// rule out contributions from this tree.
func (s *searcher) certificationFloor(dropped []*candidate) float64 {
	floor := s.unseenDist * (s.t2 - s.t1)
	for _, c := range s.live {
		if c.state != stateCompleted && c.lo < floor {
			floor = c.lo
		}
	}
	for _, c := range dropped {
		if c.lo < floor {
			floor = c.lo
		}
	}
	return floor
}

// midpoint is the candidate's point estimate: center of its certified
// interval (the exact value itself on the store path).
func (c *candidate) midpoint() float64 { return (c.lo + c.hi) / 2 }

func (c *candidate) err() float64 { return (c.hi - c.lo) / 2 }
