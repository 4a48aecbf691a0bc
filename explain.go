package mstsearch

import (
	"context"
	"fmt"
	"strings"
	"time"
)

// LevelAccesses counts the index nodes one query touched at one tree
// level (root = level 0).
type LevelAccesses struct {
	Level  int
	Nodes  int
	Leaves int // of Nodes, how many were leaf pages
}

// ExplainReport is the outcome of DB.Explain: the cost model's prediction
// side by side with what the query actually did, plus the full result set
// — the EXPLAIN ANALYZE of the k-MST engine.
type ExplainReport struct {
	// Kind is the index structure the query ran on; Trajectories and
	// Segments size the store it ran against.
	Kind         IndexKind
	K            int
	Interval     Interval
	Trajectories int
	Segments     int

	// Estimate is the selectivity cost model's prediction, priced against
	// the same snapshot the query ran on.
	Estimate QueryCostEstimate

	// Results and Stats are the query's answers and work profile.
	Results []Result
	Stats   SearchStats

	// Trace summarizes every event the traced run emitted; Levels breaks
	// the node accesses down by tree level (root = 0).
	Trace  TraceSummary
	Levels []LevelAccesses

	// Duration is the wall-clock latency of the traced run.
	Duration time.Duration
}

// Explain runs the request with tracing on and reports the cost model's
// prediction against the query's actual behaviour: predicted vs. real
// leaf pages, pruning power, and per-level node accesses. The estimate
// and the query share one read snapshot of the store, so the comparison
// is apples to apples even under concurrent writes. A caller-supplied
// Options.Trace hook still receives every event.
//
// Explain is a measurement tool: the traced run does the query's full
// work, so its latency is representative, but the per-event hook adds
// overhead an untraced Query does not pay.
func (db *DB) Explain(ctx context.Context, req Request) (*ExplainReport, error) {
	start := time.Now()
	rep := &ExplainReport{K: req.K, Interval: req.Interval}
	o := req.Options
	user := o.Trace
	o.Trace = func(ev TraceEvent) {
		rep.Observe(ev)
		if user != nil {
			user(ev)
		}
	}
	err := db.explainLocked(ctx, req, o, rep)
	rep.Duration = time.Since(start)
	db.finishQuery("explain", metExplain, start, req, rep.Stats, err)
	if err != nil {
		return nil, err
	}
	return rep, nil
}

// Observe folds one trace event into the report's event totals and, for a
// node visit, its per-level counts — the fold every engine's Explain uses.
// It does not lock: an engine whose searches emit concurrently serializes it.
func (r *ExplainReport) Observe(ev TraceEvent) {
	if r.Trace.ByKind == nil {
		r.Trace.ByKind = make(map[EventKind]int)
	}
	r.Trace.Events++
	r.Trace.ByKind[ev.Kind]++
	if ev.Kind != EventNodeVisit {
		return
	}
	for len(r.Levels) <= ev.Level {
		r.Levels = append(r.Levels, LevelAccesses{Level: len(r.Levels)})
	}
	r.Levels[ev.Level].Nodes++
	if ev.Leaf {
		r.Levels[ev.Level].Leaves++
	}
}

// explainLocked prices and runs the query under one read snapshot.
func (db *DB) explainLocked(ctx context.Context, req Request, o Options, rep *ExplainReport) error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	rep.Kind = db.kind
	rep.Trajectories = len(db.trajs)
	rep.Segments = db.numSegments()
	est, err := db.estimateQueryCostLocked(req.Q, req.Interval.T1, req.Interval.T2, req.K)
	if err != nil {
		return err
	}
	rep.Estimate = est
	results, stats, err := db.kMostSimilar(ctx, req.Q, req.Interval.T1, req.Interval.T2, req.K, req.Metric, req.MetricEps, o)
	if err != nil {
		return err
	}
	rep.Results = results
	rep.Stats = stats
	return nil
}

// String renders the report as a human-readable EXPLAIN transcript.
func (r *ExplainReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "EXPLAIN k-MST k=%d over [%g, %g] on %s (%d trajectories, %d segments)\n",
		r.K, r.Interval.T1, r.Interval.T2, r.Kind, r.Trajectories, r.Segments)
	fmt.Fprintf(&b, "cost model:\n")
	fmt.Fprintf(&b, "  corridor radius      %.4f\n", r.Estimate.CorridorRadius)
	fmt.Fprintf(&b, "  expected segments    %.1f\n", r.Estimate.ExpectedSegments)
	fmt.Fprintf(&b, "  expected leaf pages  %.1f\n", r.Estimate.ExpectedLeafPages)
	fmt.Fprintf(&b, "  range selectivity    %.4f\n", r.Estimate.RangeSelectivity)
	fmt.Fprintf(&b, "actuals:\n")
	fmt.Fprintf(&b, "  nodes accessed       %d of %d (pruning power %.1f%%)\n",
		r.Stats.NodesAccessed, r.Stats.TotalNodes, r.Stats.PruningPower*100)
	fmt.Fprintf(&b, "  leaf pages           %d actual vs %.1f predicted\n",
		r.Stats.LeavesAccessed, r.Estimate.ExpectedLeafPages)
	fmt.Fprintf(&b, "  leaf pages skipped   %d (each holds one trajectory, already decided)\n", r.Stats.LeavesSkipped)
	fmt.Fprintf(&b, "  heap enqueued        %d\n", r.Stats.Enqueued)
	fmt.Fprintf(&b, "  exact decisions      %d\n", r.Stats.ExactRefined)
	fmt.Fprintf(&b, "  page I/O             %d reads, %d buffer hits, %d retries, %d evictions\n",
		r.Stats.PageReads, r.Stats.BufferHits, r.Stats.Retries, r.Stats.Evictions)
	if r.Stats.TerminatedEarly {
		fmt.Fprintf(&b, "  terminated early (Heuristic 2)\n")
	}
	if r.Stats.Degraded {
		fmt.Fprintf(&b, "  DEGRADED: a node/IO budget ran out mid-search\n")
	}
	fmt.Fprintf(&b, "  duration             %s\n", r.Duration)
	fmt.Fprintf(&b, "per-level node accesses (root = level 0):\n")
	for _, lv := range r.Levels {
		if lv.Leaves > 0 {
			fmt.Fprintf(&b, "  level %d: %d nodes (%d leaves)\n", lv.Level, lv.Nodes, lv.Leaves)
		} else {
			fmt.Fprintf(&b, "  level %d: %d nodes\n", lv.Level, lv.Nodes)
		}
	}
	fmt.Fprintf(&b, "trace: %d events", r.Trace.Events)
	sep := " ("
	for k := EventNodeEnqueue; k <= EventLeafSkip; k++ {
		if n := r.Trace.ByKind[k]; n > 0 {
			fmt.Fprintf(&b, "%s%s %d", sep, k, n)
			sep = ", "
		}
	}
	if sep == ", " {
		b.WriteString(")")
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "results:\n")
	for i, res := range r.Results {
		mark := "exact"
		if !res.Certified {
			mark += ", provisional"
		}
		fmt.Fprintf(&b, "  %2d. trajectory %-6d DISSIM = %.6f (%s)\n", i+1, res.TrajID, res.Dissim, mark)
	}
	return b.String()
}
