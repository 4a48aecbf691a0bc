package mstsearch

import (
	"context"
	"runtime"
	"sync"
	"time"
)

// BatchQuery is one query of a KMostSimilarBatch call: the k most similar
// stored trajectories to Q over [T1, T2].
type BatchQuery struct {
	Q      *Trajectory
	T1, T2 float64
	K      int

	// Metric and MetricEps select this slot's distance function, as in
	// Request: the zero value is DISSIM, the baseline metrics require a
	// metric index kind.
	Metric    Metric
	MetricEps float64

	// Ctx, when non-nil, is this slot's own context (a request's
	// deadline); RunBatch states how it combines with the batch's.
	Ctx context.Context

	// Opts, when non-nil, is this slot's own Options (a tenant's
	// budgets); RunBatch states how it combines with the batch's.
	Opts *Options
}

// BatchResult is one query's outcome within a batch. Failures are
// isolated per query: Err is set for this slot only and the rest of the
// batch still executes (and Results/Stats are valid whenever Err is nil).
type BatchResult struct {
	Results []Result
	Stats   SearchStats
	Err     error
}

// KMostSimilarBatch answers many k-MST queries as one unit of work under
// RunBatch's slot contract — the serving-path executor for query-heavy
// workloads. Every query reads through the DB's buffer pool, like a
// single query does, so pages one slot faults in are hits for the next.
// Results are bit-identical to running each query serially with the same
// Options.
//
// Snapshot semantics: the batch holds the DB's read lock for its whole
// duration, so mutations (Add, AppendSample, Recover) wait for the batch
// and every query in it sees the same index version.
func (db *DB) KMostSimilarBatch(ctx context.Context, queries []BatchQuery, opts Options) []BatchResult {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return RunBatch(ctx, queries, opts, func(ctx context.Context, req Request) (Response, error) {
		start := time.Now()
		res, st, err := db.kMostSimilar(ctx, req.Q, req.Interval.T1, req.Interval.T2, req.K, req.Metric, req.MetricEps, req.Options)
		db.finishQuery("batch", metBatch, start, req, st, err)
		return Response{Results: res, Stats: st}, err
	})
}

// RunBatch is the batch contract every engine shares (DB and
// shard.Cluster run their KMostSimilarBatch through it); run answers one
// slot's Request under the engine's snapshot. For each slot it:
//
//   - builds the Request from every BatchQuery field, Metric and MetricEps
//     included;
//   - runs it under the slot's Ctx when set, additionally canceled when ctx
//     is done (the slot's Ctx is primary, so its deadline surfaces as
//     ErrDeadlineExceeded), and under ctx otherwise;
//   - uses the slot's Opts when set, opts otherwise.
//
// Slots run on opts.Parallelism workers (<= 0 means GOMAXPROCS), never
// more than the batch size, inline when that is one. Results come back in
// input order; a slot's failure is its BatchResult.Err alone, and a
// canceled slot reports an error wrapping ErrCanceled.
func RunBatch(ctx context.Context, queries []BatchQuery, opts Options, run func(context.Context, Request) (Response, error)) []BatchResult {
	out := make([]BatchResult, len(queries))
	slot := func(i int) {
		bq := queries[i]
		req := Request{
			Q: bq.Q, Interval: Interval{T1: bq.T1, T2: bq.T2}, K: bq.K,
			Metric: bq.Metric, MetricEps: bq.MetricEps, Options: opts,
		}
		if bq.Opts != nil {
			req.Options = *bq.Opts
		}
		slotCtx := ctx
		if bq.Ctx != nil {
			var cancel context.CancelFunc
			slotCtx, cancel = context.WithCancel(bq.Ctx)
			defer cancel()
			unlink := context.AfterFunc(ctx, cancel)
			defer unlink()
		}
		resp, err := run(slotCtx, req)
		out[i] = BatchResult{Results: resp.Results, Stats: resp.Stats, Err: err}
	}

	workers := opts.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(queries) {
		workers = len(queries)
	}
	if workers <= 1 {
		for i := range queries {
			slot(i)
		}
		return out
	}
	var wg sync.WaitGroup
	work := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				slot(i)
			}
		}()
	}
	for i := range queries {
		work <- i
	}
	close(work)
	wg.Wait()
	return out
}
