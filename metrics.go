package mstsearch

import (
	"errors"
	"expvar"
	"time"

	"mstsearch/internal/obs"
)

// queryMetrics is one query kind's instrument set in the process-wide
// registry: an outcome-partitioned counter family plus a latency
// histogram. Handles resolve once at init; recording an observation is a
// handful of atomic adds and never allocates.
type queryMetrics struct {
	total, errors, canceled, degraded *obs.Counter
	latency                           *obs.Histogram
}

func newQueryMetrics(kind string) *queryMetrics {
	p := "db.query." + kind + "."
	return &queryMetrics{
		total:    obs.Default.Counter(p + "total"),
		errors:   obs.Default.Counter(p + "errors"),
		canceled: obs.Default.Counter(p + "canceled"),
		degraded: obs.Default.Counter(p + "degraded"),
		latency:  obs.Default.Histogram(p+"seconds", obs.LatencyBounds),
	}
}

// One instrument set per query kind, matching the DB entry points:
// "kmst" covers Query and QueryAuto, "batch" the batch executor, "explain"
// the EXPLAIN runner.
var (
	metKMST     = newQueryMetrics("kmst")
	metRange    = newQueryMetrics("range")
	metNN       = newQueryMetrics("nn")
	metTopology = newQueryMetrics("topology")
	metRelaxed  = newQueryMetrics("relaxed")
	metBatch    = newQueryMetrics("batch")
	metExplain  = newQueryMetrics("explain")
)

// record closes out one observation: latency into the histogram, outcome
// into exactly one of the counters (canceled and errors are disjoint;
// degraded only counts successful-but-budget-exhausted queries).
func (m *queryMetrics) record(start time.Time, degraded bool, err error) time.Duration {
	d := time.Since(start)
	m.total.Inc()
	m.latency.Observe(d.Seconds())
	switch {
	case err != nil && errors.Is(err, ErrCanceled):
		m.canceled.Inc()
	case err != nil:
		m.errors.Inc()
	case degraded:
		m.degraded.Inc()
	}
	return d
}

// finishQuery records a finished k-MST query: registry metrics plus the
// slow-query log when the latency threshold is armed and crossed.
func (db *DB) finishQuery(kind string, m *queryMetrics, start time.Time, req Request, stats SearchStats, err error) {
	d := m.record(start, stats.Degraded, err)
	db.slow.observe(kind, d, req.K, req.Interval, stats, err)
}

// finishAux records a finished non-k-MST query (range, nn, topology,
// relaxed): same instruments, no Request detail for the slow log.
func (db *DB) finishAux(kind string, m *queryMetrics, start time.Time, err error) {
	d := m.record(start, false, err)
	db.slow.observe(kind, d, 0, Interval{}, SearchStats{}, err)
}

// MetricsSnapshot is a point-in-time copy of the process-wide metrics
// registry, keyed by metric name. Counters are monotonic totals since
// process start; histograms carry bucket counts plus derived mean and
// quantiles.
type MetricsSnapshot = obs.Snapshot

// HistogramSnapshot is one histogram's state inside a MetricsSnapshot.
type HistogramSnapshot = obs.HistogramSnapshot

// Metrics snapshots the process-wide metrics registry: buffer pool
// hits/misses/retries/evictions summed over every pool in the process,
// search-loop work counters (nodes visited, heap traffic, per-heuristic
// prune counts, trapezoid vs. exact DISSIM evaluations), and
// per-query-kind latency and outcome counters. The registry is process-global — shared by every DB in the
// process — and the method is defined on DB so the handle callers already
// hold is the one that exposes it.
func (db *DB) Metrics() MetricsSnapshot { return obs.Default.Snapshot() }

// MetricsVar adapts the process-wide registry to the standard expvar
// protocol. Publish it once, e.g.:
//
//	expvar.Publish("mstsearch", mstsearch.MetricsVar())
//
// and the full snapshot renders as JSON under /debug/vars alongside the
// runtime's own variables.
func MetricsVar() expvar.Var { return obs.Default.Expvar() }
