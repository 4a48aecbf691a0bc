package shard

import (
	"context"
	"math"
	"sort"
	"sync"

	mstsearch "mstsearch"
	"mstsearch/internal/geom"
	"mstsearch/internal/mst"
)

// QueryStats reports the scatter-gather profile of one cluster query, on
// top of the merged SearchStats the Response carries.
type QueryStats struct {
	// Fanout is how many shards actually ran the search; Pruned how many
	// the coordinator skipped because their certified lower bound could
	// not beat the k-th smallest DISSIM already collected (Fanout + Pruned
	// = NumShards).
	Fanout int
	Pruned int
	// Bounds is each shard's certified OPTDISSIM lower bound (indexed by
	// shard; +Inf = provably no covering trajectory).
	Bounds []float64
	// PerShard holds the per-shard search stats, indexed by shard; nil
	// entries are pruned shards.
	PerShard []*mstsearch.SearchStats
	// Failovers counts replica hand-offs during this query (a replica
	// erred mid-scatter and a sibling answered instead); Hedges counts
	// hedged second attempts launched past Options.HedgeAfter. Both are
	// zero on an unreplicated cluster.
	Failovers int
	Hedges    int
}

// Query answers one k-MST request against the whole cluster. Every shard
// answers with exact values, so the merged results, their order, and
// their Certified flags are bit-identical to the same Request on a single
// DB holding every trajectory; shard pruning and gather short-circuiting
// are pure optimizations that never change the answer. A caller-supplied
// Options.Trace hook receives every shard's events plus the cluster-level
// EventShardScatter/EventShardPrune events — shards search concurrently,
// so the hook must be safe for concurrent use (the same contract as
// KMostSimilarBatch).
func (c *Cluster) Query(ctx context.Context, req mstsearch.Request) (mstsearch.Response, error) {
	resp, _, err := c.QueryShards(ctx, req)
	return resp, err
}

// QueryShards is Query plus the scatter-gather profile.
func (c *Cluster) QueryShards(ctx context.Context, req mstsearch.Request) (mstsearch.Response, QueryStats, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.queryLocked(ctx, req)
}

// queryLocked runs the scatter-gather; callers must hold c.mu (shared
// with the batch executor, which holds the read lock across all slots).
func (c *Cluster) queryLocked(ctx context.Context, req mstsearch.Request) (mstsearch.Response, QueryStats, error) {
	n := len(c.sets)
	workers := c.workers()
	k := req.K
	if k < 1 {
		k = 1
	}
	metQueries.Inc()
	var csum *mstsearch.TraceSummary // cluster-level events, folded into Response.Trace
	if req.Options.Trace != nil {
		csum = &mstsearch.TraceSummary{ByKind: make(map[mstsearch.EventKind]int)}
	}
	failovers, hedges := 0, 0

	// Stage 1 — bounds: one root-page read per shard gives a certified
	// lower bound on every trajectory the shard stores, served by the
	// shard's preferred replica with transparent failover. Errors surface
	// deterministically (lowest shard index wins), exactly as a single-DB
	// query would surface its root read error.
	bounds := make([]float64, n)
	errs := make([]error, n)
	boundProfs := make([]readProfile, n)
	runBounded(n, workers, func(i int) {
		errs[i] = c.sets[i].read(&boundProfs[i], func(db *mstsearch.DB) error {
			var err error
			bounds[i], err = db.QueryLowerBound(ctx, req)
			return err
		})
	})
	fo, he := c.emitProfiles(req, csum, boundProfs)
	failovers, hedges = failovers+fo, hedges+he
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			return mstsearch.Response{}, QueryStats{}, errs[i]
		}
	}

	// Stage 2 — scatter in waves of ascending bound. Shards whose bound
	// cannot beat the k-th smallest DISSIM of the already-collected
	// results pop later in this order, so one check between waves prunes
	// every remaining shard at once — the cluster-level analogue of
	// Heuristic 2's MINDIST-order early termination. The schedule is a
	// pure function of (bounds, Workers), keeping the pruned count
	// deterministic and monotone in k.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ba, bb := bounds[order[a]], bounds[order[b]]
		if ba != bb {
			return ba < bb
		}
		return order[a] < order[b]
	})

	resps := make([]*mstsearch.Response, n)
	var dists []float64 // DISSIM of every collected result
	queried, pruned := 0, 0
	pos := 0
	for pos < n {
		next := bounds[order[pos]]
		if math.IsInf(next, 1) || (len(dists) >= k && kthSmallest(dists, k) < next) {
			// Every remaining shard has bound >= next: none can place a
			// result among the k already collected (strictly better)
			// ones, and +Inf means provably nothing covers the period.
			tau := math.Inf(1)
			if len(dists) >= k {
				tau = kthSmallest(dists, k)
			}
			for _, i := range order[pos:] {
				pruned++
				c.emit(req, csum, mst.TraceEvent{
					Kind: mstsearch.EventShardPrune, Shard: i,
					MinDist: bounds[i], Threshold: tau,
				})
			}
			break
		}
		end := pos + workers
		if end > n {
			end = n
		}
		wave := order[pos:end]
		for _, i := range wave {
			c.emit(req, csum, mst.TraceEvent{
				Kind: mstsearch.EventShardScatter, Shard: i, MinDist: bounds[i],
			})
		}
		waveErrs := make([]error, len(wave))
		waveProfs := make([]readProfile, len(wave))
		runBounded(len(wave), workers, func(j int) {
			r, err := c.sets[wave[j]].runQuery(ctx, req, c.opts.HedgeAfter, &waveProfs[j])
			if err != nil {
				waveErrs[j] = err
				return
			}
			resps[wave[j]] = &r
		})
		fo, he := c.emitProfiles(req, csum, waveProfs)
		failovers, hedges = failovers+fo, hedges+he
		// Deterministic error surfacing: lowest shard index in the wave.
		errShard, errIdx := n, -1
		for j, err := range waveErrs {
			if err != nil && wave[j] < errShard {
				errShard, errIdx = wave[j], j
			}
		}
		if errIdx >= 0 {
			return mstsearch.Response{}, QueryStats{}, waveErrs[errIdx]
		}
		for _, i := range wave {
			queried++
			for _, r := range resps[i].Results {
				dists = append(dists, r.Dissim)
			}
		}
		pos = end
	}

	resp, stats := c.merge(k, bounds, resps, csum, queried, pruned)
	stats.Failovers = failovers
	stats.Hedges = hedges
	metFanout.Observe(float64(queried))
	metPruned.Observe(float64(pruned))
	metMergeResults.Observe(float64(len(resp.Results)))
	return resp, stats, nil
}

// emit delivers a cluster-level trace event to the request's hook and
// counts it into the cluster's own summary (csum), which merge folds into
// Response.Trace alongside the per-shard summaries.
func (c *Cluster) emit(req mstsearch.Request, csum *mstsearch.TraceSummary, ev mst.TraceEvent) {
	if req.Options.Trace != nil {
		req.Options.Trace(ev)
	}
	if csum != nil {
		csum.Events++
		csum.ByKind[ev.Kind]++
	}
}

// kthSmallest returns the k-th smallest value of xs (k <= len(xs)).
func kthSmallest(xs []float64, k int) float64 {
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	return s[k-1]
}

// merge folds the per-shard responses into the global Response: results
// sorted by the single-DB comparator (Dissim, then TrajID on exact ties)
// and truncated to k, Certified flags re-checked against the floors of the
// shards that did not contribute, and stats aggregated.
func (c *Cluster) merge(k int, bounds []float64, resps []*mstsearch.Response, csum *mstsearch.TraceSummary, queried, pruned int) (mstsearch.Response, QueryStats) {
	qs := QueryStats{
		Fanout:   queried,
		Pruned:   pruned,
		Bounds:   bounds,
		PerShard: make([]*mstsearch.SearchStats, len(resps)),
	}

	var all []mstsearch.Result
	var stats mstsearch.SearchStats
	stats.CertFloor = math.Inf(1)
	traces := make([]*mstsearch.TraceSummary, 0, len(resps)+1)
	if csum != nil {
		traces = append(traces, csum)
	}

	// certFloor is the certified lower bound on every trajectory the
	// gather never saw: pruned shards contribute their root bound;
	// budget-degraded shards contribute their search's floor. Complete
	// (non-degraded) shards contribute nothing — their returned top-k
	// dominates everything they hold back, so the holdbacks can never
	// enter the global top-k.
	certFloor := math.Inf(1)
	for i, r := range resps {
		if r == nil { // pruned
			if bounds[i] < certFloor {
				certFloor = bounds[i]
			}
			if bounds[i] < stats.CertFloor {
				stats.CertFloor = bounds[i]
			}
			continue
		}
		st := r.Stats
		qs.PerShard[i] = &st
		all = append(all, r.Results...)
		if r.Trace != nil {
			traces = append(traces, r.Trace)
		}
		stats.NodesAccessed += st.NodesAccessed
		stats.LeavesAccessed += st.LeavesAccessed
		stats.LeavesSkipped += st.LeavesSkipped
		stats.TotalNodes += st.TotalNodes
		stats.Enqueued += st.Enqueued
		stats.PageReads += st.PageReads
		stats.BufferHits += st.BufferHits
		stats.Retries += st.Retries
		stats.Evictions += st.Evictions
		stats.ExactRefined += st.ExactRefined
		stats.TerminatedEarly = stats.TerminatedEarly || st.TerminatedEarly
		stats.Degraded = stats.Degraded || st.Degraded
		if st.Degraded && st.CertFloor < certFloor {
			certFloor = st.CertFloor
		}
		if st.CertFloor < stats.CertFloor {
			stats.CertFloor = st.CertFloor
		}
	}
	if stats.TotalNodes > 0 {
		stats.PruningPower = 1 - float64(stats.NodesAccessed)/float64(stats.TotalNodes)
	}

	sort.SliceStable(all, func(i, j int) bool {
		if !geom.ExactEq(all[i].Dissim, all[j].Dissim) {
			return all[i].Dissim < all[j].Dissim
		}
		return all[i].TrajID < all[j].TrajID
	})
	if len(all) > k {
		// Results merged out still bound the response-level floor: they
		// are stored trajectories the caller does not see.
		for _, r := range all[k:] {
			if r.Dissim < stats.CertFloor {
				stats.CertFloor = r.Dissim
			}
		}
		all = all[:k]
	}
	// A result stays certified only if its shard certified it AND no
	// unseen trajectory (pruned shard, degraded holdback) can lie below
	// its DISSIM — the `hi <= floor` rule a degraded single-DB search
	// applies, with hi the exact value. certFloor is +Inf when every shard
	// ran to completion or was pruned strictly, leaving all flags untouched.
	for i := range all {
		all[i].Certified = all[i].Certified && all[i].Dissim <= certFloor
	}

	resp := mstsearch.Response{Results: all, Stats: stats}
	if len(traces) > 0 {
		sum := &mstsearch.TraceSummary{ByKind: make(map[mstsearch.EventKind]int)}
		for _, t := range traces {
			sum.Events += t.Events
			for kind, cnt := range t.ByKind {
				sum.ByKind[kind] += cnt
			}
		}
		resp.Trace = sum
	}
	return resp, qs
}

// runBounded runs fn(0..n-1) on at most workers goroutines and waits.
func runBounded(n, workers int, fn func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	work := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		work <- i
	}
	close(work)
	wg.Wait()
}
