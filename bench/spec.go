package main

import (
	"time"

	"mstsearch"
)

// Fleet seeds are constants: the stored data is part of the system's loaded
// state and stays the same on every run, so index shape, heap and set-up time
// do not move with -seed. -seed draws the operation pool only.
const (
	seedStoredFleet = 7001
	seedQueryFleet  = 7002
)

// Sizes every run shares.
const (
	poolOps       = 1024 // operations pre-generated per run
	verifyOps     = 32   // pool operations checked against the oracle
	warmOps       = 128  // operations each set-up runs before it counts as warm
	ingestSamples = 51   // samples of a trajectory added by serve-rw or a write probe

	// checkpointBytes is the serve-rw replicas' auto-checkpoint trigger. At the
	// sizing probe's ~60 writes/s a replica journals ~9 KB/s, so 16 KiB makes
	// every replica checkpoint about five times in a 12 s timed run.
	checkpointBytes = 16 << 10
)

// workloadSpec is one workload: what is stored, what is asked, and how hard.
type workloadSpec struct {
	name string
	why  string

	kind             mstsearch.IndexKind
	objects, samples int // stored fleet

	// Queries are windows sliced from a trajectory with the ID zeroed. With
	// foreignQueries the source is a different-seed fleet, so no stored twin
	// sits at distance zero and pruning is weak.
	foreignQueries bool
	window         float64 // share of the time axis one query covers
	recentShare    float64 // share of windows confined to the last tenth of the time axis
	k              int
	metric         mstsearch.Metric

	serve bool // the durable cluster behind HTTP, with writes in the mix
	// serve-rw: an end-to-end run in which some replica checkpointed fewer
	// times than this inside the timed window is refused, because its tail
	// latencies would not cover checkpoints.
	minCheckpoints int
	clients        int
	writes         int // library workloads: appends timed after the window for write_p50_ms
	probeOps       int // queries per layer-probe pass of the traced run
}

// timing is how long the phases of a run last.
type timing struct {
	setupReps int           // complete set-ups per run; setup_s is their median
	timed     time.Duration // the measured window of an untraced run
}

func workloads(tiny bool) []*workloadSpec {
	ws := []*workloadSpec{
		{
			name: "lib-short",
			why:  "short recent-window queries with a stored twin: fixed per-query cost (lock, view, node decode, pool hits, MINDIST) dominates",
			kind: mstsearch.RTree3D, objects: 100, samples: 1001,
			window: 0.05, recentShare: 0.75, k: 5,
			clients: 1, writes: 384, probeOps: 256,
		},
		{
			name: "lib-long",
			why:  "long foreign-fleet queries with weak pruning: the MINDIST and DISSIM bound kernels dominate, fixed costs are small",
			kind: mstsearch.RTree3D, objects: 100, samples: 1001,
			foreignQueries: true, window: 0.25, k: 10,
			clients: 1, writes: 128, probeOps: 96,
		},
		{
			name: "metric-dtw",
			why:  "exact DTW kNN on the N-tree: distance evaluation dominates and the MBB and trapezoid kernels are bypassed, so gains there must leave it flat",
			kind: mstsearch.NTree, objects: 2000, samples: 101,
			foreignQueries: true, window: 0.5, k: 5, metric: mstsearch.MetricDTW,
			clients: 1, writes: 5, probeOps: 96,
		},
		{
			name: "serve-rw",
			why:  "the whole serving stack (HTTP, coalescing, 2x2 replicated durable cluster) with 10% writes, each of which drops the read-side caches",
			kind: mstsearch.TBTree, objects: 200, samples: 501,
			window: 0.05, recentShare: 0.75, k: 5,
			serve: true, minCheckpoints: 3, clients: 2, probeOps: 256,
		},
	}
	if tiny {
		for _, w := range ws {
			w.probeOps = 16
			switch {
			case w.serve:
				// A test's window is too short to checkpoint in.
				w.objects, w.samples, w.minCheckpoints = 40, 101, 0
			case w.kind == mstsearch.NTree:
				// Still above one leaf's capacity, so the tree stays multi-level.
				w.objects, w.samples, w.writes = 300, 41, 1
			default:
				w.objects, w.samples, w.writes = 20, 201, 24
			}
		}
	}
	return ws
}

func findWorkload(name string) *workloadSpec {
	for _, w := range workloads(false) {
		if w.name == name {
			return w
		}
	}
	return nil
}

// metricDef is one catalogue row; Bound is only set for end-to-end metrics.
// BENCHMARK.json repeats both tables and a test keeps them equal. Which
// end-to-end metric each per-layer metric should move is in README.md.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "queries_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "query_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "query_p99_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "write_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "correct_share", Unit: "ratio", Better: "higher", Bound: 0.001},
	{Name: "allocs_per_op", Unit: "count", Better: "lower", Bound: 0.08},
	{Name: "alloc_kb_per_op", Unit: "KB", Better: "lower", Bound: 0.08},
	{Name: "heap_mb", Unit: "MB", Better: "lower", Bound: 0.05},
	{Name: "store_bytes_per_user_byte", Unit: "ratio", Better: "lower", Bound: 0.02},
}

var perLayer = []metricDef{
	{Name: "dissim.interval_ns", Unit: "ns", Better: "lower"},
	{Name: "dissim.exact_ns", Unit: "ns", Better: "lower"},
	{Name: "dissim.partial_step_ns", Unit: "ns", Better: "lower"},
	{Name: "dissim.partial_step_allocs", Unit: "count", Better: "lower"},
	{Name: "dissim.trapezoid_evals_per_query", Unit: "count", Better: "lower"},
	{Name: "dissim.exact_refined_per_query", Unit: "count", Better: "lower"},

	{Name: "index.mindist_mbb_ns", Unit: "ns", Better: "lower"},
	{Name: "index.decode_node_ns", Unit: "ns", Better: "lower"},
	{Name: "index.decode_node_allocs", Unit: "count", Better: "lower"},
	{Name: "index.read_node_us_per_query", Unit: "us", Better: "lower"},
	{Name: "index.nodes_per_query", Unit: "count", Better: "lower"},
	{Name: "index.leaves_per_query", Unit: "count", Better: "lower"},
	{Name: "index.enqueued_per_query", Unit: "count", Better: "lower"},
	{Name: "index.pruning_power", Unit: "ratio", Better: "higher"},

	{Name: "storage.pool_hit_ns", Unit: "ns", Better: "lower"},
	{Name: "storage.pool_miss_ns", Unit: "ns", Better: "lower"},
	{Name: "storage.pool_hit_share", Unit: "ratio", Better: "higher"},
	{Name: "storage.page_reads_per_query", Unit: "count", Better: "lower"},
	{Name: "storage.evictions_per_query", Unit: "count", Better: "lower"},
	{Name: "storage.pool_us_per_query", Unit: "us", Better: "lower"},

	{Name: "mst.search_us", Unit: "us", Better: "lower"},
	{Name: "mst.self_us", Unit: "us", Better: "lower"},
	{Name: "mst.refine_us", Unit: "us", Better: "lower"},
	{Name: "mst.search_allocs", Unit: "count", Better: "lower"},
	{Name: "mst.search_alloc_kb", Unit: "KB", Better: "lower"},
	{Name: "mst.candidates_per_query", Unit: "count", Better: "lower"},
	{Name: "mst.rejected_per_query", Unit: "count", Better: "higher"},
	{Name: "mst.early_terminated_share", Unit: "ratio", Better: "higher"},
	{Name: "mst.metric_search_us", Unit: "us", Better: "lower"},
	{Name: "mst.metric_self_us", Unit: "us", Better: "lower"},

	{Name: "baselines.dtw_ns", Unit: "ns", Better: "lower"},
	{Name: "baselines.dtw_allocs", Unit: "count", Better: "lower"},
	{Name: "ntree.dist_evals_per_query", Unit: "count", Better: "lower"},
	{Name: "ntree.nodes_per_query", Unit: "count", Better: "lower"},
	{Name: "ntree.height", Unit: "count", Better: "lower"},

	{Name: "db.query_us", Unit: "us", Better: "lower"},
	{Name: "db.query_self_us", Unit: "us", Better: "lower"},
	{Name: "db.query_allocs", Unit: "count", Better: "lower"},
	{Name: "db.query_alloc_kb", Unit: "KB", Better: "lower"},
	{Name: "db.batch_us_per_query.p1", Unit: "us", Better: "lower"},
	{Name: "db.batch_us_per_query.pN", Unit: "us", Better: "lower"},
	{Name: "db.append_us", Unit: "us", Better: "lower"},
	{Name: "db.add_us", Unit: "us", Better: "lower"},
	{Name: "db.query_after_write_us", Unit: "us", Better: "lower"},
	{Name: "db.checkpoint_ms", Unit: "ms", Better: "lower"},

	{Name: "shard.query_us", Unit: "us", Better: "lower"},
	{Name: "shard.overhead_us", Unit: "us", Better: "lower"},
	{Name: "shard.fanout_per_query", Unit: "count", Better: "lower"},
	{Name: "shard.pruned_per_query", Unit: "count", Better: "higher"},
	{Name: "shard.write_us", Unit: "us", Better: "lower"},
	{Name: "shard.write_overhead_us", Unit: "us", Better: "lower"},
	{Name: "shard.write_p99_us", Unit: "us", Better: "lower"},
	{Name: "shard.failovers", Unit: "count", Better: "lower"},

	{Name: "server.request_us", Unit: "us", Better: "lower"},
	{Name: "server.self_us", Unit: "us", Better: "lower"},
	{Name: "server.coalesced_share", Unit: "ratio", Better: "higher"},
	{Name: "server.batch_size_mean", Unit: "count", Better: "higher"},
	{Name: "server.shed_share", Unit: "ratio", Better: "lower"},
	{Name: "server.degraded_share", Unit: "ratio", Better: "lower"},
	{Name: "server.request_bytes", Unit: "B", Better: "lower"},
	{Name: "server.response_bytes", Unit: "B", Better: "lower"},
	{Name: "server.allocs_per_request", Unit: "count", Better: "lower"},

	{Name: "wal.append_us", Unit: "us", Better: "lower"},
	{Name: "wal.fsyncs_per_write", Unit: "count", Better: "lower"},
	{Name: "wal.checkpoints", Unit: "count", Better: "lower"},
	{Name: "wal.bytes_per_user_byte", Unit: "ratio", Better: "lower"},
	{Name: "wal.reopen_s", Unit: "s", Better: "lower"},

	{Name: "trace_overhead_share", Unit: "ratio", Better: "lower"},
}
