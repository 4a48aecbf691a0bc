package mstsearch_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	mstsearch "mstsearch"
	"mstsearch/internal/shard"
	"mstsearch/internal/storage"
	"mstsearch/internal/testutil"
	"mstsearch/internal/wal"
)

// Replicated-shard differential suites: a cluster whose shards are
// replica sets must answer bit-identically to a single DB holding every
// trajectory while replicas fail mid-scatter, get quarantined, and are
// re-seeded by anti-entropy repair. The consistency invariant under test
// is that every rotation member holds identical content, so a failover
// (or hedge) can never change a merged response.

// killReplica makes every read of the replica fail permanently with
// ErrInjected, as a dead disk would.
func killReplica(db *mstsearch.DB) {
	db.SetPagerWrapper(func(p mstsearch.Pager) mstsearch.Pager {
		return &storage.FaultyPager{Inner: p, FailReadAt: 1, Permanent: true}
	})
}

// TestClusterReplicaFailoverOracle kills one replica of one shard and
// proves failover is invisible: every query answers bit-identically to
// the unreplicated oracle, the dead replica ends quarantined, and an
// explicit repair re-admits it — after which queries need no failovers.
func TestClusterReplicaFailoverOracle(t *testing.T) {
	testutil.CheckGoroutines(t)
	rng := rand.New(rand.NewSource(71))
	trajs := mstsearch.FleetForTest(rng, 40, 24)
	c := buildCluster(t, mstsearch.RTree3D, 3, shard.HashPlacement{}, shard.Options{Replicas: 2}, trajs)
	defer c.Close()
	single, err := mstsearch.NewDB(mstsearch.RTree3D, trajs)
	if err != nil {
		t.Fatal(err)
	}

	killReplica(c.Replica(1, 0))

	var sawFailoverEvent atomic.Bool
	totalFailovers := 0
	runOne := func(i int) {
		t.Helper()
		src := &trajs[rng.Intn(len(trajs))]
		t1 := rng.Float64() * 4
		t2 := t1 + 2 + rng.Float64()*4
		sl, ok := src.Slice(t1, t2)
		if !ok {
			return
		}
		q := sl.Clone()
		q.ID = 0
		opts := oracleOptions()
		opts.Trace = func(ev mstsearch.TraceEvent) {
			if ev.Kind == mstsearch.EventReplicaFailover {
				sawFailoverEvent.Store(true)
			}
		}
		req := mstsearch.Request{
			Q: &q, Interval: mstsearch.Interval{T1: t1, T2: t2},
			K: 1 + rng.Intn(4), Options: opts,
		}
		got, qs, err := c.QueryShards(context.Background(), req)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		req.Options.Trace = nil
		want, err := single.Query(context.Background(), req)
		if err != nil {
			t.Fatalf("oracle query %d: %v", i, err)
		}
		mstsearch.CheckBitIdentical(t, "replica-failover", i, want.Results, got.Results)
		totalFailovers += qs.Failovers
	}

	for i := 0; i < 12; i++ {
		runOne(i)
	}
	if totalFailovers == 0 || !sawFailoverEvent.Load() {
		t.Fatalf("dead replica triggered no failovers (stats %d, event %v)", totalFailovers, sawFailoverEvent.Load())
	}
	quarantined := false
	for _, st := range c.ReplicaStatuses() {
		if st.Shard == 1 && st.Replica == 0 {
			quarantined = st.State == "quarantined"
		}
	}
	if !quarantined {
		t.Fatalf("dead replica not quarantined after the storm: %+v", c.ReplicaStatuses())
	}
	// Get still serves transparently from the surviving sibling.
	if tr := c.Get(trajs[0].ID); tr == nil {
		t.Fatal("Get through a degraded shard returned nil")
	}

	// Repair re-seeds the quarantined replica from its sibling and
	// re-admits it; queries go back to needing no failovers.
	if repaired, err := c.RepairNow(context.Background()); err != nil || repaired != 1 {
		t.Fatalf("RepairNow = %d, %v; want 1 repair", repaired, err)
	}
	for _, st := range c.ReplicaStatuses() {
		if st.State != "healthy" {
			t.Fatalf("replica %+v not healthy after repair", st)
		}
		if st.Shard == 1 && st.Replica == 0 && st.LastRepair.IsZero() {
			t.Fatal("repaired replica has no LastRepair stamp")
		}
	}
	totalFailovers = 0
	for i := 100; i < 106; i++ {
		runOne(i)
	}
	if totalFailovers != 0 {
		t.Fatalf("queries after repair still failed over %d times", totalFailovers)
	}
}

// TestClusterHedgedReadsOracle pins that hedging is a pure latency
// optimization: with an aggressive hedge threshold every scatter launches
// a duplicate attempt, and the merged answer is still bit-identical to
// the unreplicated oracle.
func TestClusterHedgedReadsOracle(t *testing.T) {
	testutil.CheckGoroutines(t)
	rng := rand.New(rand.NewSource(83))
	trajs := mstsearch.FleetForTest(rng, 30, 24)
	c := buildCluster(t, mstsearch.TBTree, 3, shard.HashPlacement{},
		shard.Options{Replicas: 2, HedgeAfter: time.Nanosecond}, trajs)
	defer c.Close()
	single, err := mstsearch.NewDB(mstsearch.TBTree, trajs)
	if err != nil {
		t.Fatal(err)
	}

	hedges := 0
	for i := 0; i < 8; i++ {
		src := &trajs[rng.Intn(len(trajs))]
		t1 := rng.Float64() * 4
		t2 := t1 + 2 + rng.Float64()*4
		sl, ok := src.Slice(t1, t2)
		if !ok {
			continue
		}
		q := sl.Clone()
		q.ID = 0
		req := mstsearch.Request{
			Q: &q, Interval: mstsearch.Interval{T1: t1, T2: t2}, K: 3,
			Options: oracleOptions(),
		}
		got, qs, err := c.QueryShards(context.Background(), req)
		if err != nil {
			t.Fatalf("hedged query %d: %v", i, err)
		}
		want, err := single.Query(context.Background(), req)
		if err != nil {
			t.Fatalf("oracle query %d: %v", i, err)
		}
		mstsearch.CheckBitIdentical(t, "hedged-read", i, want.Results, got.Results)
		hedges += qs.Hedges
	}
	if hedges == 0 {
		t.Fatal("a nanosecond hedge threshold launched no hedged reads")
	}
}

// TestClusterReplicaChaosRepairSoak is the replica chaos soak: replica 0
// of every shard dies under an 8-worker query storm while the background
// anti-entropy loop runs. Every query must still answer correctly (the
// failover path keeps serving from the sibling), the dead replicas must
// quarantine and be re-seeded, and the cluster must end fully healthy
// with no goroutine leaks. CI runs this under -race at GOMAXPROCS 1 / 4.
func TestClusterReplicaChaosRepairSoak(t *testing.T) {
	testutil.CheckGoroutines(t)
	rng := rand.New(rand.NewSource(73))
	trajs := mstsearch.FleetForTest(rng, 50, 24)
	c := buildCluster(t, mstsearch.TBTree, 4, shard.HashPlacement{},
		shard.Options{Replicas: 2, RepairInterval: 2 * time.Millisecond}, trajs)
	defer c.Close()

	for i := 0; i < c.NumShards(); i++ {
		killReplica(c.Replica(i, 0))
	}

	const workers = 8
	const itersPerWorker = 30
	var failovers atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			wrng := rand.New(rand.NewSource(seed))
			for i := 0; i < itersPerWorker; i++ {
				if i%7 == 0 {
					// Health introspection races the storm too.
					_ = c.ReplicaStatuses()
					if tr := c.Get(trajs[wrng.Intn(len(trajs))].ID); tr == nil {
						t.Errorf("worker %d iter %d: Get lost a trajectory mid-chaos", seed, i)
						return
					}
					continue
				}
				src := &trajs[wrng.Intn(len(trajs))]
				t1 := wrng.Float64() * 4
				t2 := t1 + 2 + wrng.Float64()*4
				sl, ok := src.Slice(t1, t2)
				if !ok {
					continue
				}
				q := sl.Clone()
				q.ID = 0
				resp, qs, err := c.QueryShards(context.Background(), mstsearch.Request{
					Q: &q, Interval: mstsearch.Interval{T1: t1, T2: t2},
					K: 1 + wrng.Intn(4), Options: oracleOptions(),
				})
				if err != nil {
					t.Errorf("worker %d iter %d: %v", seed, i, err)
					return
				}
				failovers.Add(int64(qs.Failovers))
				oracle := mstsearch.OracleTopK(trajs, &q, t1, t2, len(resp.Results))
				checkShardOracle(t, fmt.Sprintf("replica-chaos w%d", seed), i, resp.Results, oracle)
			}
		}(int64(w + 1))
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	// The repair loop must re-admit every killed replica: poll health
	// until all replicas are healthy and replica 0s carry repair stamps.
	deadline := time.Now().Add(5 * time.Second)
	for {
		healthy, repaired := true, true
		for _, st := range c.ReplicaStatuses() {
			if st.State != "healthy" {
				healthy = false
			}
			if st.Replica == 0 && st.LastRepair.IsZero() {
				repaired = false
			}
		}
		if healthy && repaired {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("repair loop never re-admitted every replica: %+v", c.ReplicaStatuses())
		}
		time.Sleep(2 * time.Millisecond)
	}
	if failovers.Load() == 0 {
		t.Fatal("the storm observed no failovers; the killed replicas never served")
	}

	// Post-repair, the re-seeded replicas serve correct answers again.
	src := &trajs[0]
	sl, ok := src.Slice(1, 6)
	if !ok {
		t.Fatal("fleet trajectory does not cover [1, 6]")
	}
	q := sl.Clone()
	q.ID = 0
	resp, err := c.Query(context.Background(), mstsearch.Request{
		Q: &q, Interval: mstsearch.Interval{T1: 1, T2: 6}, K: 3, Options: oracleOptions(),
	})
	if err != nil {
		t.Fatalf("post-repair query: %v", err)
	}
	oracle := mstsearch.OracleTopK(trajs, &q, 1, 6, 3)
	checkShardOracle(t, "post-repair", 0, resp.Results, oracle)
}

// TestClusterReplicaCrashDuringRepair is the replica crash sweep: one
// replica per shard is wiped, re-seeded by repair, and then loses power —
// at every byte offset of its write volume, budgeted across the fresh WAL
// a re-seed opens and the frames of post-repair mutations. At every cut:
//
//  1. the sibling replica (never cut) stays authoritative and keeps every
//     acknowledged mutation,
//  2. the re-seeded replica recovers to a prefix of its stream (or stays
//     quarantined awaiting another repair),
//  3. merged queries over the recovered cluster are bit-identical to a
//     single DB holding exactly the recovered trajectories, and
//  4. a post-recovery repair converges the set back to full health.
func TestClusterReplicaCrashDuringRepair(t *testing.T) {
	const (
		nShards = 2
		kind    = mstsearch.RTree3D
	)
	place := shard.HashPlacement{}
	rng := rand.New(rand.NewSource(79))
	ops := clusterCrashWorkload(rng, 10, 10, 20)
	split := len(ops) * 2 / 3
	initial, post := ops[:split], ops[split:]

	// Per-shard full streams for the prefix checks.
	streams := make([][]clusterOp, nShards)
	owners := make(map[mstsearch.ID]int)
	for _, op := range ops {
		o := opOwner(op, place, owners, nShards)
		streams[o] = append(streams[o], op)
	}

	qref := ops[0].tr
	query := func(eng interface {
		Query(context.Context, mstsearch.Request) (mstsearch.Response, error)
	}) ([]mstsearch.Result, error) {
		q := qref.Clone()
		q.ID = 0
		resp, err := eng.Query(context.Background(), mstsearch.Request{Q: &q, Interval: mstsearch.Interval{T1: 2, T2: 8}, K: 4})
		return resp.Results, err
	}

	// build ingests the initial stream unbudgeted, then wipes replica 1
	// of every shard so the reopen quarantines it for repair.
	build := func(dir string) {
		t.Helper()
		c, err := shard.Open(dir, kind, nShards, place, shard.Options{Replicas: 2})
		if err != nil {
			t.Fatal(err)
		}
		if n, err := issueClusterOps(c, initial); err != nil {
			t.Fatalf("initial ingest stopped at op %d: %v", n, err)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < nShards; i++ {
			if err := os.RemoveAll(filepath.Join(dir, fmt.Sprintf("shard-%03d", i), "replica-1")); err != nil {
				t.Fatal(err)
			}
		}
	}

	// budgetOpts aims the powercut at replica 1 of every shard: the WAL
	// its reopen creates, the fresh WAL the repair re-seed opens, and
	// every post-repair frame all draw on one cumulative budget.
	budgetOpts := func(b *storage.PowercutBudget) shard.Options {
		return shard.Options{
			Replicas: 2,
			ReplicaDurable: func(shardIdx, replica int) mstsearch.DurableOptions {
				if replica != 1 {
					return mstsearch.DurableOptions{}
				}
				return mstsearch.DurableOptions{
					SegmentBytes:    512,
					CheckpointBytes: -1,
					OpenFile:        func(path string) (wal.File, error) { return b.Open(path) },
				}
			},
		}
	}

	// runLeg reopens with the budget, repairs, and applies the post
	// stream, reporting how many post ops were fully acknowledged.
	runLeg := func(dir string, b *storage.PowercutBudget) (acked int) {
		t.Helper()
		c, err := shard.Open(dir, kind, nShards, place, budgetOpts(b))
		if err != nil {
			t.Fatalf("budgeted reopen: %v", err)
		}
		// Repair errors (the budget tripping mid-re-seed) leave replicas
		// quarantined for a later sweep — exactly what we are testing.
		_, _ = c.RepairNow(context.Background())
		acked, err = issueClusterOps(c, post)
		if err != nil && !errors.Is(err, storage.ErrInjected) && !errors.Is(err, mstsearch.ErrUnavailable) {
			t.Fatalf("post ops: unexpected failure class: %v", err)
		}
		_ = c.Close() // tripped replicas may error; recovery below decides
		return acked
	}

	// Dry run with an unlimited budget to size the sweep.
	root := t.TempDir()
	dryDir := filepath.Join(root, "dry")
	build(dryDir)
	dry := storage.NewPowercutBudget(-1)
	if acked := runLeg(dryDir, dry); acked != len(post) {
		t.Fatalf("dry run acked %d of %d post ops", acked, len(post))
	}
	total := dry.Written()
	if total == 0 {
		t.Fatal("dry run wrote nothing through the replica budget")
	}

	stride := total/16 + 1
	for cut := int64(0); cut <= total; cut += stride {
		dir := filepath.Join(root, fmt.Sprintf("cut-%d", cut))
		build(dir)
		b := storage.NewPowercutBudget(cut)
		ackedPost := runLeg(dir, b)
		if err := b.Crash(true); err != nil {
			t.Fatalf("cut %d: crash: %v", cut, err)
		}

		re, err := shard.Open(dir, kind, nShards, place, shard.Options{Replicas: 2})
		if err != nil {
			t.Fatalf("cut %d: recovery failed: %v", cut, err)
		}

		// Acked ops per shard (initial stream + acked post prefix).
		seen := make(map[mstsearch.ID]int)
		ackedPerShard := make([]int, nShards)
		for _, op := range ops[:split+ackedPost] {
			ackedPerShard[opOwner(op, place, seen, nShards)]++
		}
		for i := 0; i < nShards; i++ {
			// The sibling (replica 0) never lost power: the shard's
			// serving state holds at least every acknowledged op, and is
			// a prefix of the stream (one extra partially-acked op may
			// have landed on the sibling before the quorum miss).
			j, ok := matchShardPrefix(streams[i], shardSig(re.Shard(i)))
			if !ok {
				t.Fatalf("cut %d: shard %d serving state is not a stream prefix", cut, i)
			}
			if j < ackedPerShard[i] {
				t.Fatalf("cut %d: shard %d recovered %d of %d acknowledged ops", cut, i, j, ackedPerShard[i])
			}
			// The cut replica recovered to some prefix of the stream (it
			// may be stale-quarantined; it must never hold invented or
			// reordered state).
			if db := re.Replica(i, 1); db != nil {
				if _, ok := matchShardPrefix(streams[i], shardSig(db)); !ok {
					t.Fatalf("cut %d: shard %d replica 1 state is not a stream prefix", cut, i)
				}
			}
		}

		// Differential: merged queries over the recovered cluster match
		// a single DB holding exactly the recovered trajectories.
		oracle := mstsearch.Open(kind)
		for i := 0; i < nShards; i++ {
			sdb := re.Shard(i)
			for _, id := range sdb.IDs() {
				if err := oracle.Add(sdb.Get(id).Clone()); err != nil {
					t.Fatalf("cut %d: oracle replay: %v", cut, err)
				}
			}
		}
		got, gerr := query(re)
		want, werr := query(oracle)
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("cut %d: query error mismatch: recovered=%v oracle=%v", cut, gerr, werr)
		}
		if gerr == nil {
			mstsearch.CheckBitIdentical(t, "repair-crash-vs-oracle", int(cut), want, got)
		}

		// A post-recovery repair converges the set: both replicas end
		// healthy with identical signatures.
		if _, err := re.RepairNow(context.Background()); err != nil {
			t.Fatalf("cut %d: post-recovery repair: %v", cut, err)
		}
		for _, st := range re.ReplicaStatuses() {
			if st.State != "healthy" {
				t.Fatalf("cut %d: replica %+v not healthy after post-recovery repair", cut, st)
			}
		}
		for i := 0; i < nShards; i++ {
			a := shardSig(re.Replica(i, 0))
			bsig := shardSig(re.Replica(i, 1))
			if len(a) != len(bsig) {
				t.Fatalf("cut %d: shard %d replicas diverge after repair: %d vs %d trajectories", cut, i, len(a), len(bsig))
			}
			for id, n := range a {
				if bsig[id] != n {
					t.Fatalf("cut %d: shard %d trajectory %d has %d vs %d samples across replicas", cut, i, id, n, bsig[id])
				}
			}
		}
		if err := re.Close(); err != nil {
			t.Fatalf("cut %d: close: %v", cut, err)
		}
		os.RemoveAll(dir) // bound the sweep's disk footprint
	}
}
