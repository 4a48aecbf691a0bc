package shard

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	mstsearch "mstsearch"
)

// Range returns every stored segment intersecting the window during the
// interval, gathered from all shards. Each trajectory's segments live on
// exactly one shard, so the union is duplicate-free; hits come back sorted
// by (trajectory, sequence number) for a deterministic cluster-wide order.
func (c *Cluster) Range(ctx context.Context, w mstsearch.Window, iv mstsearch.Interval) ([]mstsearch.SegmentHit, error) {
	out, err := gather(c, func(db *mstsearch.DB) ([]mstsearch.SegmentHit, error) { return db.Range(ctx, w, iv) })
	sort.Slice(out, func(i, j int) bool {
		if out[i].TrajID != out[j].TrajID {
			return out[i].TrajID < out[j].TrajID
		}
		return out[i].SeqNo < out[j].SeqNo
	})
	return out, err
}

// Nearest returns the k moving objects closest to (x, y) at instant t,
// merged from every shard's local k-NN answer by (distance, trajectory ID).
func (c *Cluster) Nearest(ctx context.Context, x, y, t float64, k int) ([]mstsearch.Neighbor, error) {
	out, err := gather(c, func(db *mstsearch.DB) ([]mstsearch.Neighbor, error) { return db.Nearest(ctx, x, y, t, k) })
	sort.Slice(out, func(i, j int) bool {
		if out[i].Dist != out[j].Dist {
			return out[i].Dist < out[j].Dist
		}
		return out[i].TrajID < out[j].TrajID
	})
	if k >= 0 && len(out) > k {
		out = out[:k]
	}
	return out, err
}

// Topology classifies every stored trajectory touching the window during
// the interval, gathered from all shards and sorted by trajectory ID (the
// same order a single DB reports).
func (c *Cluster) Topology(ctx context.Context, w mstsearch.Window, iv mstsearch.Interval) ([]mstsearch.TopologyResult, error) {
	out, err := gather(c, func(db *mstsearch.DB) ([]mstsearch.TopologyResult, error) { return db.Topology(ctx, w, iv) })
	sort.Slice(out, func(i, j int) bool { return out[i].TrajID < out[j].TrajID })
	return out, err
}

// gather runs read on every shard's preferred replica (with failover)
// under the cluster read lock, at most c.workers() shards at a time, and
// concatenates the answers in shard order. The lowest-index shard's error
// wins, keeping multi-shard failure surfacing deterministic; on error the
// result is nil.
func gather[T any](c *Cluster, read func(db *mstsearch.DB) ([]T, error)) ([]T, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	n := len(c.sets)
	parts := make([][]T, n)
	errs := make([]error, n)
	runBounded(n, c.workers(), func(i int) {
		errs[i] = c.sets[i].read(nil, func(db *mstsearch.DB) error {
			var err error
			parts[i], err = read(db)
			return err
		})
	})
	if err := firstError(errs); err != nil {
		return nil, err
	}
	var out []T
	for _, p := range parts {
		out = append(out, p...)
	}
	return out, nil
}

// KMostSimilarBatch answers many k-MST queries against the cluster under
// mstsearch.RunBatch's slot contract, each slot a full scatter-gather
// (bounded separately by Options.Workers). Snapshot semantics: the batch
// holds the cluster read lock for its whole duration, so cluster mutations
// wait and every slot sees the same contents.
func (c *Cluster) KMostSimilarBatch(ctx context.Context, queries []mstsearch.BatchQuery, opts mstsearch.Options) []mstsearch.BatchResult {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return mstsearch.RunBatch(ctx, queries, opts, func(ctx context.Context, req mstsearch.Request) (mstsearch.Response, error) {
		resp, _, err := c.queryLocked(ctx, req)
		return resp, err
	})
}

// Explain runs the request across the cluster with tracing on and reports
// the aggregated prediction and actuals: the cost estimate sums each
// shard's selectivity model, the trace and per-level node accesses fold
// every shard's events together, and Results/Stats are exactly what Query
// would return. The report's Kind/Trajectories/Segments describe the whole
// cluster.
func (c *Cluster) Explain(ctx context.Context, req mstsearch.Request) (*mstsearch.ExplainReport, error) {
	start := time.Now()
	c.mu.RLock()
	defer c.mu.RUnlock()

	rep := &mstsearch.ExplainReport{
		Kind:         c.kind,
		K:            req.K,
		Interval:     req.Interval,
		Trajectories: len(c.dir),
	}

	// Aggregate the shards' cost models (each shard's preferred replica
	// speaks for it): segments and workloads add; the corridor radius is
	// the widest any shard predicts; selectivity is weighted by each
	// shard's share of the segments.
	var selWeighted float64
	for i, rs := range c.sets {
		_, db := rs.preferred()
		if db == nil {
			return nil, fmt.Errorf("shard %d: %w", i, mstsearch.ErrUnavailable)
		}
		est, err := db.EstimateQueryCost(req.Q, req.Interval.T1, req.Interval.T2, req.K)
		if err != nil {
			return nil, err
		}
		segs := db.NumSegments()
		rep.Segments += segs
		rep.Estimate.ExpectedSegments += est.ExpectedSegments
		rep.Estimate.ExpectedLeafPages += est.ExpectedLeafPages
		if est.CorridorRadius > rep.Estimate.CorridorRadius {
			rep.Estimate.CorridorRadius = est.CorridorRadius
		}
		selWeighted += est.RangeSelectivity * float64(segs)
	}
	if rep.Segments > 0 {
		rep.Estimate.RangeSelectivity = selWeighted / float64(rep.Segments)
	}

	// Fold every event — shard searches run concurrently, so the hook
	// locks; user hooks still see each event, per the Explain contract.
	var mu sync.Mutex
	user := req.Options.Trace
	req.Options.Trace = func(ev mstsearch.TraceEvent) {
		mu.Lock()
		rep.Observe(ev)
		mu.Unlock()
		if user != nil {
			user(ev)
		}
	}

	resp, _, err := c.queryLocked(ctx, req)
	rep.Duration = time.Since(start)
	if err != nil {
		return nil, err
	}
	rep.Results = resp.Results
	rep.Stats = resp.Stats
	return rep, nil
}

// workers resolves the cluster's scatter width: Options.Workers, or
// GOMAXPROCS when unset, never wider than the shard count.
func (c *Cluster) workers() int {
	w := c.opts.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > len(c.sets) {
		w = len(c.sets)
	}
	return w
}

// firstError returns the lowest-index non-nil error, keeping multi-shard
// failure surfacing deterministic.
func firstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
