package mstsearch_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	mstsearch "mstsearch"
	"mstsearch/internal/gstd"
	"mstsearch/internal/shard"
)

// Metamorphic properties of the scatter-gather coordinator: relations
// that must hold between related cluster configurations without knowing
// any ground-truth answer.

// TestMetamorphicResharding: the answer to a query is an invariant of the
// partitioning. Moving the same fleet between shard counts, placement
// policies, and scatter widths must not change one bit of any response.
func TestMetamorphicResharding(t *testing.T) {
	trajs := gstd.Generate(gstd.Config{NumObjects: 32, SamplesPerObject: 61, Seed: 13}).Trajs
	rng := rand.New(rand.NewSource(13))

	// Pre-draw a fixed workload, then replay it through every shape.
	type work struct {
		q      *mstsearch.Trajectory
		t1, t2 float64
		k      int
	}
	const queries = 8
	workload := make([]work, queries)
	for i := range workload {
		q := mstsearch.OracleQueryTraj(rng, 41)
		t1, t2 := mstsearch.OracleQueryWindow(rng)
		workload[i] = work{q: q, t1: t1, t2: t2, k: 1 + rng.Intn(5)}
	}

	var ref [][]mstsearch.Result // answers of the first shape
	for _, shape := range []struct {
		n       int
		place   shard.Placement
		workers int
	}{
		{1, shard.HashPlacement{}, 1},
		{2, shard.HashPlacement{}, 1},
		{5, shard.HashPlacement{}, 2},
		{5, shard.SpatialPlacement{}, 5},
		{3, shard.SpatialPlacement{}, 0},
	} {
		label := fmt.Sprintf("N%d/%s/W%d", shape.n, shape.place.Name(), shape.workers)
		c := buildCluster(t, mstsearch.RTree3D, shape.n, shape.place, shard.Options{Workers: shape.workers}, trajs)
		for i, w := range workload {
			resp, err := c.Query(context.Background(), mstsearch.Request{
				Q: w.q, Interval: mstsearch.Interval{T1: w.t1, T2: w.t2}, K: w.k,
				Options: oracleOptions(),
			})
			if err != nil {
				t.Fatalf("%s iter %d: %v", label, i, err)
			}
			if ref == nil || len(ref) <= i {
				ref = append(ref, resp.Results)
				continue
			}
			mstsearch.CheckBitIdentical(t, label, i, ref[i], resp.Results)
		}
	}
}

// TestMetamorphicPruneMonotonic: with a fixed scatter width, shrinking k
// can only tighten the k-th smallest collected DISSIM, so the number of
// shards the coordinator prunes never decreases as k shrinks.
func TestMetamorphicPruneMonotonic(t *testing.T) {
	// The clumped fleet from TestShardPruning: spatial placement gives the
	// coordinator real pruning opportunities to vary with k.
	rng := rand.New(rand.NewSource(17))
	var trajs []mstsearch.Trajectory
	const clumps, perClump, samples = 6, 6, 41
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
	c := buildCluster(t, mstsearch.RTree3D, clumps, shard.SpatialPlacement{}, shard.Options{Workers: 1}, trajs)

	sawPruning := false
	for iter := 0; iter < 8; iter++ {
		q := trajs[rng.Intn(len(trajs))].Clone()
		q.ID = 0
		prev := -1
		for _, k := range []int{12, 8, 5, 3, 2, 1} { // k shrinking
			_, qs, err := c.QueryShards(context.Background(), mstsearch.Request{
				Q: &q, Interval: mstsearch.Interval{T1: 0.1, T2: 0.9}, K: k,
				Options: oracleOptions(),
			})
			if err != nil {
				t.Fatalf("iter %d k=%d: %v", iter, k, err)
			}
			if prev >= 0 && qs.Pruned < prev {
				t.Fatalf("iter %d: pruned count decreased from %d to %d as k shrank to %d", iter, prev, qs.Pruned, k)
			}
			prev = qs.Pruned
			if qs.Pruned > 0 {
				sawPruning = true
			}
		}
	}
	if !sawPruning {
		t.Fatal("workload never pruned a shard; the monotonicity check was vacuous")
	}
}

// TestMetamorphicDegradedParity: a budgeted cluster query must degrade
// exactly like the single DB — Stats.Degraded propagates, results that
// can no longer be certified lose their flag on both sides identically,
// and the merged response never silently presents best-effort answers as
// exact. Each budget is drawn below the node counts of the same query run
// without one, on the single DB and on the busiest shard, so it binds on
// both sides however few nodes the search reads.
func TestMetamorphicDegradedParity(t *testing.T) {
	trajs := gstd.Generate(gstd.Config{NumObjects: 40, SamplesPerObject: 81, Seed: 19}).Trajs
	single, err := mstsearch.NewDB(mstsearch.RTree3D, trajs)
	if err != nil {
		t.Fatal(err)
	}
	c := buildCluster(t, mstsearch.RTree3D, 4, shard.HashPlacement{}, shard.Options{Workers: 1}, trajs)
	rng := rand.New(rand.NewSource(19))

	sawDegraded, sawUncertified := false, false
	for iter := 0; iter < 12; iter++ {
		q := mstsearch.OracleQueryTraj(rng, 61)
		t1, t2 := mstsearch.OracleQueryWindow(rng)
		req := mstsearch.Request{
			Q: q, Interval: mstsearch.Interval{T1: t1, T2: t2}, K: 3, Options: oracleOptions(),
		}
		full, err := single.Query(context.Background(), req)
		if err != nil {
			t.Fatalf("iter %d single, no budget: %v", iter, err)
		}
		_, qs, err := c.QueryShards(context.Background(), req)
		if err != nil {
			t.Fatalf("iter %d cluster, no budget: %v", iter, err)
		}
		busiest := 0
		for _, st := range qs.PerShard {
			if st != nil {
				busiest = max(busiest, st.NodesAccessed)
			}
		}
		limit := min(full.Stats.NodesAccessed, busiest)
		if limit < 2 {
			t.Fatalf("iter %d: the unbudgeted searches read %d and %d nodes, too few to degrade",
				iter, full.Stats.NodesAccessed, busiest)
		}
		opts := req.Options
		opts.MaxNodeAccesses = 1 + rng.Intn(limit-1)
		req.Options = opts
		sresp, serr := single.Query(context.Background(), req)
		if serr != nil {
			t.Fatalf("iter %d single: %v", iter, serr)
		}
		cresp, cerr := c.Query(context.Background(), req)
		if cerr != nil {
			t.Fatalf("iter %d cluster: %v", iter, cerr)
		}
		// The budget is per shard-search, so the cluster may find *more*
		// than the budgeted single DB — but degradation must surface, and
		// no cluster result may claim certification the merge cannot
		// justify against the degraded shards' floors.
		if !sresp.Stats.Degraded {
			t.Fatalf("iter %d: single DB did not degrade under a %d-node budget", iter, opts.MaxNodeAccesses)
		}
		if !cresp.Stats.Degraded {
			t.Fatalf("iter %d: no shard reported degradation under a %d-node budget", iter, opts.MaxNodeAccesses)
		}
		sawDegraded = true
		for j, r := range cresp.Results {
			if r.Certified && r.Dissim > cresp.Stats.CertFloor {
				t.Fatalf("iter %d rank %d: certified result %+v above the merged floor %g",
					iter, j, r, cresp.Stats.CertFloor)
			}
			if !r.Certified {
				sawUncertified = true
			}
		}
	}
	if !sawDegraded {
		t.Fatal("budgeted workload never degraded; parity check was vacuous")
	}
	if !sawUncertified {
		t.Fatal("budgeted workload never produced an uncertified result; propagation check was vacuous")
	}
}

// TestMetamorphicQueryMutationInterleave: queries interleaved with Add /
// AppendSample through the cluster agree with a single DB receiving the
// same mutation stream at every step — the routing table and per-shard
// indexes never drift.
func TestMetamorphicQueryMutationInterleave(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	base := gstd.Generate(gstd.Config{NumObjects: 12, SamplesPerObject: 41, Seed: 23}).Trajs
	single, err := mstsearch.NewDB(mstsearch.STRTree, base)
	if err != nil {
		t.Fatal(err)
	}
	c := buildCluster(t, mstsearch.STRTree, 3, shard.HashPlacement{}, shard.Options{}, base)
	extra := gstd.Generate(gstd.Config{NumObjects: 30, SamplesPerObject: 41, Seed: 24}).Trajs
	for i := range extra {
		extra[i].ID += 1000 // keep IDs disjoint from the base fleet
	}

	for step := 0; step < len(extra); step++ {
		if err := single.Add(extra[step]); err != nil {
			t.Fatalf("step %d single add: %v", step, err)
		}
		if err := c.Add(extra[step]); err != nil {
			t.Fatalf("step %d cluster add: %v", step, err)
		}
		if step%5 != 0 {
			continue
		}
		q := mstsearch.OracleQueryTraj(rng, 41)
		t1, t2 := mstsearch.OracleQueryWindow(rng)
		req := mstsearch.Request{
			Q: q, Interval: mstsearch.Interval{T1: t1, T2: t2}, K: 5,
			Options: oracleOptions(),
		}
		sresp, err := single.Query(context.Background(), req)
		if err != nil {
			t.Fatalf("step %d single: %v", step, err)
		}
		cresp, err := c.Query(context.Background(), req)
		if err != nil {
			t.Fatalf("step %d cluster: %v", step, err)
		}
		mstsearch.CheckBitIdentical(t, "interleaved", step, sresp.Results, cresp.Results)
	}
	if single.Len() != c.Len() {
		t.Fatalf("stores diverged: single %d trajectories, cluster %d", single.Len(), c.Len())
	}
}
