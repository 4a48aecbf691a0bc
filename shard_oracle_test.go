package mstsearch_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	mstsearch "mstsearch"
	"mstsearch/internal/gstd"
	"mstsearch/internal/shard"
)

// The sharded differential oracle: a Cluster's scatter-gather answer must
// be bit-identical — same members, same order, same Dissim bits, same
// Certified flags — to the same Request on a single DB holding every
// trajectory, and both must match the brute-force linear-scan oracle.
// Shard pruning and gather short-circuiting are pure optimizations; these
// suites are the proof.

// oracleOptions is the options set every differential leg shares (serial —
// the bit-identity baseline).
func oracleOptions() mstsearch.Options {
	return mstsearch.Options{Parallelism: 1}
}

// buildCluster scatters trajs into a fresh in-memory cluster.
func buildCluster(t *testing.T, kind mstsearch.IndexKind, n int, place shard.Placement, opts shard.Options, trajs []mstsearch.Trajectory) *shard.Cluster {
	t.Helper()
	c, err := shard.New(kind, n, place, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range trajs {
		if err := c.Add(trajs[i]); err != nil {
			t.Fatalf("add trajectory %d: %v", trajs[i].ID, err)
		}
	}
	return c
}

// checkShardOracle compares a cluster answer against the linear-scan
// oracle: same members, same order, distances within the certified band.
func checkShardOracle(t *testing.T, label string, iter int, res []mstsearch.Result, want []mstsearch.OracleHit) {
	t.Helper()
	if len(res) != len(want) {
		t.Fatalf("%s iter %d: got %d results, oracle %d", label, iter, len(res), len(want))
	}
	for j := range want {
		if res[j].TrajID != want[j].ID {
			t.Fatalf("%s iter %d: rank %d = traj %d (%g), oracle %d (%g)",
				label, iter, j, res[j].TrajID, res[j].Dissim, want[j].ID, want[j].Dissim)
		}
		tol := 1e-9 * (1 + math.Abs(want[j].Dissim))
		if math.Abs(res[j].Dissim-want[j].Dissim) > tol {
			t.Fatalf("%s iter %d: traj %d dissim %g outside band ±%g of oracle %g",
				label, iter, res[j].TrajID, res[j].Dissim, tol, want[j].Dissim)
		}
		if !res[j].Certified {
			t.Fatalf("%s iter %d: unbudgeted search left result %d uncertified",
				label, iter, res[j].TrajID)
		}
	}
}

// TestShardedDifferentialOracle replays the oracle workload through
// clusters of every shard count N ∈ {1, 2, 4, 7} × both placement
// policies × every index kind, checking each answer against the
// brute-force oracle and bit-identical against a single DB holding the
// whole fleet.
func TestShardedDifferentialOracle(t *testing.T) {
	trajs := gstd.Generate(gstd.Config{NumObjects: 36, SamplesPerObject: 81, Seed: 3}).Trajs
	const queriesPerCombo = 10
	for _, kind := range mstsearch.IndexKinds() {
		single, err := mstsearch.NewDB(kind, trajs)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{1, 2, 4, 7} {
			for _, place := range []shard.Placement{shard.HashPlacement{}, shard.SpatialPlacement{}} {
				t.Run(fmt.Sprintf("%s/N%d/%s", kind, n, place.Name()), func(t *testing.T) {
					c := buildCluster(t, kind, n, place, shard.Options{}, trajs)
					if got := c.Len(); got != len(trajs) {
						t.Fatalf("cluster holds %d trajectories, want %d", got, len(trajs))
					}
					rng := rand.New(rand.NewSource(1000*int64(kind) + 10*int64(n) + int64(len(place.Name()))))
					for i := 0; i < queriesPerCombo; i++ {
						var q *mstsearch.Trajectory
						if i%3 == 0 {
							cp := trajs[rng.Intn(len(trajs))].Clone()
							q = &cp
						} else {
							q = mstsearch.OracleQueryTraj(rng, 61)
						}
						t1, t2 := mstsearch.OracleQueryWindow(rng)
						k := 1 + rng.Intn(5)
						req := mstsearch.Request{
							Q: q, Interval: mstsearch.Interval{T1: t1, T2: t2}, K: k,
							Options: oracleOptions(),
						}
						want := mstsearch.OracleTopK(trajs, q, t1, t2, k)

						sresp, err := single.Query(context.Background(), req)
						if err != nil {
							t.Fatalf("iter %d single: %v", i, err)
						}
						cresp, err := c.Query(context.Background(), req)
						if err != nil {
							t.Fatalf("iter %d cluster: %v", i, err)
						}
						checkShardOracle(t, "cluster", i, cresp.Results, want)
						mstsearch.CheckBitIdentical(t, "cluster-vs-single", i, sresp.Results, cresp.Results)
					}
				})
			}
		}
	}
}

// TestShardedLifespanOracle replays the heterogeneous-lifespan workload
// (see TestLifespanOracle) on a two-shard cluster searching one shard at a
// time. Every answer must be bit-identical to the single DB holding the
// whole fleet and to the oracle. A shard whose near-twins tighten its
// bounds, or whose floor a non-covering trajectory pulls down, shows here
// as a missing or different member.
func TestShardedLifespanOracle(t *testing.T) {
	trajs, reqs := mstsearch.LifespanWorkload(10)
	for _, kind := range mstsearch.IndexKinds() {
		t.Run(kind.String(), func(t *testing.T) {
			single, err := mstsearch.NewDB(kind, trajs)
			if err != nil {
				t.Fatal(err)
			}
			c := buildCluster(t, kind, 2, shard.HashPlacement{}, shard.Options{Workers: 1}, trajs)
			for i, req := range reqs {
				for k := 1; k <= 8; k++ {
					req.K = k
					sresp, err := single.Query(context.Background(), req)
					if err != nil {
						t.Fatalf("query %d k=%d single: %v", i, k, err)
					}
					cresp, err := c.Query(context.Background(), req)
					if err != nil {
						t.Fatalf("query %d k=%d cluster: %v", i, k, err)
					}
					label := fmt.Sprintf("k=%d", k)
					checkShardOracle(t, label, i, cresp.Results, mstsearch.OracleTopK(trajs, req.Q, req.Interval.T1, req.Interval.T2, k))
					mstsearch.CheckBitIdentical(t, label+" cluster-vs-single", i, sresp.Results, cresp.Results)
				}
			}
		})
	}
}

// TestShardedBatchOracle certifies the cluster's batch executor: every
// slot of a KMostSimilarBatch over the cluster is bit-identical to its
// serial single-DB twin (the same contract DB.KMostSimilarBatch holds).
func TestShardedBatchOracle(t *testing.T) {
	trajs := gstd.Generate(gstd.Config{NumObjects: 30, SamplesPerObject: 61, Seed: 5}).Trajs
	single, err := mstsearch.NewDB(mstsearch.RTree3D, trajs)
	if err != nil {
		t.Fatal(err)
	}
	c := buildCluster(t, mstsearch.RTree3D, 4, shard.HashPlacement{}, shard.Options{}, trajs)
	rng := rand.New(rand.NewSource(11))

	const slots = 24
	batch := make([]mstsearch.BatchQuery, slots)
	serial := make([][]mstsearch.Result, slots)
	for i := range batch {
		q := mstsearch.OracleQueryTraj(rng, 41)
		t1, t2 := mstsearch.OracleQueryWindow(rng)
		k := 1 + rng.Intn(4)
		batch[i] = mstsearch.BatchQuery{Q: q, T1: t1, T2: t2, K: k}
		resp, err := single.Query(context.Background(), mstsearch.Request{
			Q: q, Interval: mstsearch.Interval{T1: t1, T2: t2}, K: k, Options: oracleOptions(),
		})
		if err != nil {
			t.Fatalf("slot %d single: %v", i, err)
		}
		serial[i] = resp.Results
	}
	opts := oracleOptions()
	opts.Parallelism = 4
	for i, br := range c.KMostSimilarBatch(context.Background(), batch, opts) {
		if br.Err != nil {
			t.Fatalf("batch slot %d: %v", i, br.Err)
		}
		mstsearch.CheckBitIdentical(t, "cluster-batch", i, serial[i], br.Results)
	}
}

// TestShardedMetricBatchOracle certifies that a batch slot's metric reaches
// the cluster: DTW, LCSS and EDR slots of a KMostSimilarBatch over an
// N-tree cluster are bit-identical to the same Request on a single DB, and
// on an RTree3D cluster every DTW slot fails with ErrBadQuery, as a direct
// Query does.
func TestShardedMetricBatchOracle(t *testing.T) {
	trajs := gstd.Generate(gstd.Config{NumObjects: 30, SamplesPerObject: 61, Seed: 8}).Trajs
	single, err := mstsearch.NewDB(mstsearch.NTree, trajs)
	if err != nil {
		t.Fatal(err)
	}
	metrics := []struct {
		m   mstsearch.Metric
		eps float64
	}{{mstsearch.MetricDTW, 0}, {mstsearch.MetricLCSS, 0.05}, {mstsearch.MetricEDR, 0.05}}
	rng := rand.New(rand.NewSource(9))
	const slots = 12
	batch := make([]mstsearch.BatchQuery, slots)
	want := make([][]mstsearch.Result, slots)
	for i := range batch {
		q := mstsearch.OracleQueryTraj(rng, 41)
		t1, t2 := mstsearch.OracleQueryWindow(rng)
		mc := metrics[i%len(metrics)]
		batch[i] = mstsearch.BatchQuery{Q: q, T1: t1, T2: t2, K: 1 + rng.Intn(5), Metric: mc.m, MetricEps: mc.eps}
		resp, err := single.Query(context.Background(), mstsearch.Request{
			Q: q, Interval: mstsearch.Interval{T1: t1, T2: t2}, K: batch[i].K,
			Metric: mc.m, MetricEps: mc.eps, Options: oracleOptions(),
		})
		if err != nil {
			t.Fatalf("slot %d single: %v", i, err)
		}
		want[i] = resp.Results
	}
	opts := oracleOptions()
	opts.Parallelism = 3
	for _, n := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("N%d", n), func(t *testing.T) {
			c := buildCluster(t, mstsearch.NTree, n, shard.HashPlacement{}, shard.Options{}, trajs)
			for i, br := range c.KMostSimilarBatch(context.Background(), batch, opts) {
				if br.Err != nil {
					t.Fatalf("slot %d (%s): %v", i, batch[i].Metric, br.Err)
				}
				mstsearch.CheckBitIdentical(t, "metric-cluster-batch", i, want[i], br.Results)
			}
		})
	}
	t.Run("RTree3D", func(t *testing.T) {
		c := buildCluster(t, mstsearch.RTree3D, 2, shard.HashPlacement{}, shard.Options{}, trajs)
		for i, br := range c.KMostSimilarBatch(context.Background(), batch, opts) {
			if batch[i].Metric == mstsearch.MetricDTW && !errors.Is(br.Err, mstsearch.ErrBadQuery) {
				t.Fatalf("DTW slot %d on an RTree3D cluster: err %v, want ErrBadQuery", i, br.Err)
			}
		}
	})
}

// TestShardPruning pins the coordinator's whole-shard pruning: spatially
// partitioned fleets whose regions are far apart let a query confined to
// one region skip every other shard — and skipping them must not change
// one bit of the answer.
func TestShardPruning(t *testing.T) {
	// Four spatially separated clumps of trajectories over x ∈ [0, 1):
	// clump s wiggles around x ≈ (s+0.5)/4, so SpatialPlacement{} sends
	// each clump to its own shard.
	rng := rand.New(rand.NewSource(21))
	var trajs []mstsearch.Trajectory
	const clumps, perClump, samples = 4, 8, 41
	for s := 0; s < clumps; s++ {
		cx := (float64(s) + 0.5) / clumps
		for j := 0; j < perClump; j++ {
			tr := mstsearch.Trajectory{ID: mstsearch.ID(s*perClump + j + 1), Samples: make([]mstsearch.Sample, samples)}
			x, y := cx+rng.NormFloat64()*0.01, rng.Float64()
			for i := 0; i < samples; i++ {
				tr.Samples[i] = mstsearch.Sample{X: x, Y: y, T: float64(i) / float64(samples-1)}
				x += rng.NormFloat64() * 0.005
				y += rng.NormFloat64() * 0.01
			}
			trajs = append(trajs, tr)
		}
	}
	single, err := mstsearch.NewDB(mstsearch.RTree3D, trajs)
	if err != nil {
		t.Fatal(err)
	}
	c := buildCluster(t, mstsearch.RTree3D, clumps, shard.SpatialPlacement{}, shard.Options{Workers: 1}, trajs)

	// Query inside clump 0: its shard holds every close answer, so the
	// coordinator must prune at least one far shard once k results are in.
	q := trajs[2].Clone()
	q.ID = 0
	req := mstsearch.Request{
		Q: &q, Interval: mstsearch.Interval{T1: 0.1, T2: 0.9}, K: 3,
		Options: oracleOptions(),
	}
	sresp, err := single.Query(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	cresp, qs, err := c.QueryShards(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if qs.Pruned == 0 {
		t.Fatalf("expected >0 shards pruned for a clump-local query, stats %+v bounds %v", qs, qs.Bounds)
	}
	if qs.Fanout+qs.Pruned != clumps {
		t.Fatalf("fanout %d + pruned %d != %d shards", qs.Fanout, qs.Pruned, clumps)
	}
	mstsearch.CheckBitIdentical(t, "pruned-cluster-vs-single", 0, sresp.Results, cresp.Results)

	// The trace must carry the cluster-level scatter/prune events, and
	// their counts must agree with the gather profile.
	treq := req
	var scatter, prune int
	treq.Options.Trace = func(ev mstsearch.TraceEvent) {
		switch ev.Kind {
		case mstsearch.EventShardScatter:
			scatter++
		case mstsearch.EventShardPrune:
			prune++
		}
	}
	tresp, err := c.Query(context.Background(), treq)
	if err != nil {
		t.Fatal(err)
	}
	if scatter != qs.Fanout || prune != qs.Pruned {
		t.Fatalf("trace saw %d scatters / %d prunes, stats say %d / %d", scatter, prune, qs.Fanout, qs.Pruned)
	}
	if tresp.Trace == nil ||
		tresp.Trace.ByKind[mstsearch.EventShardScatter] != qs.Fanout ||
		tresp.Trace.ByKind[mstsearch.EventShardPrune] != qs.Pruned {
		t.Fatalf("trace summary %+v does not carry the cluster events (want %d scatter, %d prune)",
			tresp.Trace, qs.Fanout, qs.Pruned)
	}
	mstsearch.CheckBitIdentical(t, "traced-vs-untraced", 0, cresp.Results, tresp.Results)
}

// TestShardedAppendParity exercises the online maintenance path: samples
// appended through the cluster land on the owning shard and subsequent
// queries stay bit-identical to a single DB receiving the same appends.
func TestShardedAppendParity(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	trajs := gstd.Generate(gstd.Config{NumObjects: 20, SamplesPerObject: 41, Seed: 7}).Trajs
	single, err := mstsearch.NewDB(mstsearch.TBTree, trajs)
	if err != nil {
		t.Fatal(err)
	}
	c := buildCluster(t, mstsearch.TBTree, 3, shard.HashPlacement{}, shard.Options{}, trajs)

	for round := 0; round < 4; round++ {
		// Extend a few random trajectories beyond their current end.
		for j := 0; j < 5; j++ {
			tr := trajs[rng.Intn(len(trajs))]
			cur := c.Get(tr.ID)
			last := cur.Samples[len(cur.Samples)-1]
			s := mstsearch.Sample{
				X: last.X + rng.NormFloat64()*0.01,
				Y: last.Y + rng.NormFloat64()*0.01,
				T: last.T + 0.01,
			}
			if err := c.AppendSample(tr.ID, s); err != nil {
				t.Fatalf("round %d: cluster append: %v", round, err)
			}
			if err := single.AppendSample(tr.ID, s); err != nil {
				t.Fatalf("round %d: single append: %v", round, err)
			}
		}
		q := mstsearch.OracleQueryTraj(rng, 41)
		t1, t2 := mstsearch.OracleQueryWindow(rng)
		req := mstsearch.Request{
			Q: q, Interval: mstsearch.Interval{T1: t1, T2: t2}, K: 4,
			Options: oracleOptions(),
		}
		sresp, err := single.Query(context.Background(), req)
		if err != nil {
			t.Fatalf("round %d single: %v", round, err)
		}
		cresp, err := c.Query(context.Background(), req)
		if err != nil {
			t.Fatalf("round %d cluster: %v", round, err)
		}
		mstsearch.CheckBitIdentical(t, "after-append", round, sresp.Results, cresp.Results)
	}
	if single.NumSegments() != c.NumSegments() {
		t.Fatalf("segment counts diverged: single %d, cluster %d", single.NumSegments(), c.NumSegments())
	}
}

// TestShardedMetricOracle replays an exact-DTW kNN workload through
// N-tree clusters of every shard count × both placements: each gathered
// answer must be bit-identical to the same Request on a single DB and
// must match a brute-force scan of MetricDistance over the raw fleet —
// the sharded leg of the metric differential oracle. Because the answer
// is checked against the same single-DB reference under every shape,
// this doubles as the metric resharding-invariance proof.
func TestShardedMetricOracle(t *testing.T) {
	trajs := gstd.Generate(gstd.Config{NumObjects: 30, SamplesPerObject: 61, Seed: 8}).Trajs
	single, err := mstsearch.NewDB(mstsearch.NTree, trajs)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	type work struct {
		q      *mstsearch.Trajectory
		t1, t2 float64
		k      int
	}
	const queries = 8
	workload := make([]work, queries)
	for i := range workload {
		var q *mstsearch.Trajectory
		if i%3 == 0 {
			c := trajs[rng.Intn(len(trajs))].Clone()
			c.ID = 0
			q = &c
		} else {
			q = mstsearch.OracleQueryTraj(rng, 41)
		}
		t1, t2 := mstsearch.OracleQueryWindow(rng)
		workload[i] = work{q: q, t1: t1, t2: t2, k: 1 + rng.Intn(5)}
	}
	for _, n := range []int{1, 2, 4} {
		for _, place := range []shard.Placement{shard.HashPlacement{}, shard.SpatialPlacement{}} {
			t.Run(fmt.Sprintf("N%d/%s", n, place.Name()), func(t *testing.T) {
				c := buildCluster(t, mstsearch.NTree, n, place, shard.Options{}, trajs)
				for i, w := range workload {
					req := mstsearch.Request{
						Q: w.q, Interval: mstsearch.Interval{T1: w.t1, T2: w.t2}, K: w.k,
						Metric: mstsearch.MetricDTW, Options: oracleOptions(),
					}
					sresp, err := single.Query(context.Background(), req)
					if err != nil {
						t.Fatalf("iter %d single: %v", i, err)
					}
					cresp, err := c.Query(context.Background(), req)
					if err != nil {
						t.Fatalf("iter %d cluster: %v", i, err)
					}
					mstsearch.CheckBitIdentical(t, "metric-cluster", i, sresp.Results, cresp.Results)

					// Brute-force ground truth through the same public
					// evaluator the engine refines with.
					type hit struct {
						id mstsearch.ID
						d  float64
					}
					var all []hit
					for j := range trajs {
						if d, ok := mstsearch.MetricDistance(mstsearch.MetricDTW, 0, w.q, &trajs[j], w.t1, w.t2); ok {
							all = append(all, hit{trajs[j].ID, d})
						}
					}
					sort.Slice(all, func(a, b int) bool {
						if all[a].d != all[b].d {
							return all[a].d < all[b].d
						}
						return all[a].id < all[b].id
					})
					if len(all) > w.k {
						all = all[:w.k]
					}
					if len(cresp.Results) != len(all) {
						t.Fatalf("iter %d: cluster %d results, oracle %d", i, len(cresp.Results), len(all))
					}
					for j, r := range cresp.Results {
						if r.TrajID != all[j].id || math.Float64bits(r.Dissim) != math.Float64bits(all[j].d) {
							t.Fatalf("iter %d rank %d: cluster (%d, %g) vs oracle (%d, %g)",
								i, j, r.TrajID, r.Dissim, all[j].id, all[j].d)
						}
					}
				}
			})
		}
	}
}
