package mst

import "mstsearch/internal/obs"

// Process-wide search-loop metrics. Handles resolve once at init; the
// search accumulates into its private Stats and flushes the totals here
// with a handful of atomic adds per query, keeping the per-node hot path
// free of shared-cache-line traffic.
var (
	metSearches     = obs.Default.Counter("mst.searches")
	metNodesVisited = obs.Default.Counter("mst.nodes_visited")
	metLeavesRead   = obs.Default.Counter("mst.leaves_visited")
	metHeapPushes   = obs.Default.Counter("mst.heap_pushes")
	metHeapPops     = obs.Default.Counter("mst.heap_pops")
	metPruneH1      = obs.Default.Counter("mst.prune.heuristic1_candidates")
	metPruneH2      = obs.Default.Counter("mst.prune.heuristic2_terminations")
	metTrapEvals    = obs.Default.Counter("mst.dissim.trapezoid_evals")
	metExactEvals   = obs.Default.Counter("mst.dissim.exact_evals")
	metDegraded     = obs.Default.Counter("mst.degraded")
	metNodesPerQ    = obs.Default.Histogram("mst.nodes_per_query", obs.IOBounds)
)

// flushMetrics publishes one finished (or failed) search's counters into
// the process-wide registry. heapPops counts pop operations, which can
// exceed NodesAccessed by the final Heuristic 2 pop.
func (s *searcher) flushMetrics(heapPops int) {
	metSearches.Inc()
	metNodesVisited.Add(uint64(s.stats.NodesAccessed))
	metLeavesRead.Add(uint64(s.stats.LeavesAccessed))
	metHeapPushes.Add(uint64(s.stats.Enqueued))
	metHeapPops.Add(uint64(heapPops))
	metPruneH1.Add(uint64(s.stats.Rejected))
	if s.stats.TerminatedEarly {
		metPruneH2.Inc()
	}
	metTrapEvals.Add(uint64(s.stats.TrapezoidEvals))
	metExactEvals.Add(uint64(s.stats.ExactRefined))
	if s.stats.Degraded {
		metDegraded.Inc()
	}
	metNodesPerQ.Observe(float64(s.stats.NodesAccessed))
}
