package mstsearch_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	mstsearch "mstsearch"
	"mstsearch/internal/shard"
	"mstsearch/internal/storage"
	"mstsearch/internal/wal"
)

// Cluster durability: shards journal and recover independently, so a
// power cut inside ONE shard's log must cost at most that shard's
// unsynced suffix — its siblings keep every mutation, the recovered
// cluster is a consistent per-shard prefix of the issued stream, and
// merged queries over it match a single-DB oracle holding exactly the
// recovered trajectories.

// clusterOp is one mutation of the crash workload.
type clusterOp struct {
	add bool
	tr  mstsearch.Trajectory
	id  mstsearch.ID
	s   mstsearch.Sample
}

// clusterCrashWorkload builds a deterministic add+append stream.
func clusterCrashWorkload(rng *rand.Rand, nTrajs, nSamples, nAppends int) []clusterOp {
	trajs := mstsearch.FleetForTest(rng, nTrajs, nSamples)
	var ops []clusterOp
	for i := range trajs {
		ops = append(ops, clusterOp{add: true, tr: trajs[i]})
	}
	end := make(map[mstsearch.ID]float64, nTrajs)
	for i := range trajs {
		end[trajs[i].ID] = trajs[i].Samples[len(trajs[i].Samples)-1].T
	}
	for i := 0; i < nAppends; i++ {
		tr := &trajs[rng.Intn(len(trajs))]
		end[tr.ID] += 0.25
		ops = append(ops, clusterOp{
			id: tr.ID,
			s:  mstsearch.Sample{X: rng.Float64() * 100, Y: rng.Float64() * 100, T: end[tr.ID]},
		})
	}
	return ops
}

// owner maps an op onto its shard under the given placement.
func opOwner(op clusterOp, place shard.Placement, owners map[mstsearch.ID]int, n int) int {
	if op.add {
		o := place.Shard(&op.tr, n)
		owners[op.tr.ID] = o
		return o
	}
	return owners[op.id]
}

// issueClusterOps applies ops through the cluster, returning how many
// were acknowledged before the first failure.
func issueClusterOps(c *shard.Cluster, ops []clusterOp) (int, error) {
	for i, op := range ops {
		var err error
		if op.add {
			err = c.Add(op.tr)
		} else {
			err = c.AppendSample(op.id, op.s)
		}
		if err != nil {
			return i, err
		}
	}
	return len(ops), nil
}

// shardSig snapshots one shard's contents as trajectory → sample count.
func shardSig(db *mstsearch.DB) map[mstsearch.ID]int {
	sig := make(map[mstsearch.ID]int)
	for _, id := range db.IDs() {
		sig[id] = len(db.Get(id).Samples)
	}
	return sig
}

// sigAfter computes the expected signature of one shard after the first
// j ops of its own stream.
func sigAfter(stream []clusterOp, j int) map[mstsearch.ID]int {
	sig := make(map[mstsearch.ID]int)
	for _, op := range stream[:j] {
		if op.add {
			sig[op.tr.ID] = len(op.tr.Samples)
		} else {
			sig[op.id]++
		}
	}
	return sig
}

// matchShardPrefix reports whether sig equals the state after some prefix
// of the shard's op stream, returning that prefix length.
func matchShardPrefix(stream []clusterOp, sig map[mstsearch.ID]int) (int, bool) {
	for j := 0; j <= len(stream); j++ {
		if reflect.DeepEqual(sigAfter(stream, j), sig) {
			return j, true
		}
	}
	return 0, false
}

// TestClusterCrashOneShard is the sharded powercut sweep: for a range of
// byte offsets, cut the power inside shard 1's WAL mid-write while its
// siblings stay healthy, reopen the cluster, and require that
//
//  1. recovery succeeds for every shard,
//  2. the healthy shards kept every acknowledged mutation,
//  3. the crashed shard recovered a prefix of its own stream covering at
//     least its fsync-acknowledged ops (SyncAlways), and
//  4. a merged k-MST query over the recovered cluster is bit-identical to
//     a single DB holding exactly the recovered trajectories.
func TestClusterCrashOneShard(t *testing.T) {
	const (
		nShards = 3
		target  = 1 // the shard whose log loses power
		kind    = mstsearch.RTree3D
	)
	place := shard.HashPlacement{}
	rng := rand.New(rand.NewSource(41))
	ops := clusterCrashWorkload(rng, 12, 12, 30)

	// Split the stream into per-shard substreams for the prefix checks.
	streams := make([][]clusterOp, nShards)
	owners := make(map[mstsearch.ID]int)
	for _, op := range ops {
		o := opOwner(op, place, owners, nShards)
		streams[o] = append(streams[o], op)
	}
	if len(streams[target]) == 0 {
		t.Fatalf("workload routed nothing to shard %d; widen the fleet", target)
	}

	qref := ops[0].tr // differential query, independent of recovered state
	query := func(eng interface {
		Query(context.Context, mstsearch.Request) (mstsearch.Response, error)
	}) ([]mstsearch.Result, error) {
		q := qref.Clone()
		q.ID = 0
		resp, err := eng.Query(context.Background(), mstsearch.Request{Q: &q, Interval: mstsearch.Interval{T1: 2, T2: 8}, K: 4})
		return resp.Results, err
	}

	opts := func(b *storage.PowercutBudget) shard.Options {
		return shard.Options{ShardDurable: func(i int) mstsearch.DurableOptions {
			if i != target {
				return mstsearch.DurableOptions{}
			}
			return mstsearch.DurableOptions{
				SegmentBytes:    512,
				CheckpointBytes: -1,
				OpenFile:        func(path string) (wal.File, error) { return b.Open(path) },
			}
		}}
	}

	// Dry run with an unlimited budget to measure the target shard's write
	// volume.
	root := t.TempDir()
	dry := storage.NewPowercutBudget(-1)
	c, err := shard.Open(filepath.Join(root, "dry"), kind, nShards, place, opts(dry))
	if err != nil {
		t.Fatal(err)
	}
	if n, err := issueClusterOps(c, ops); err != nil {
		t.Fatalf("dry run stopped at op %d: %v", n, err)
	}
	total := dry.Written()
	if total == 0 {
		t.Fatal("dry run wrote nothing through the target shard's budget")
	}
	c.Close()

	stride := total/24 + 1
	for cut := int64(0); cut <= total; cut += stride {
		dir := filepath.Join(root, fmt.Sprintf("cut-%d", cut))
		b := storage.NewPowercutBudget(cut)
		acked := 0
		c, err := shard.Open(dir, kind, nShards, place, opts(b))
		if err == nil {
			acked, err = issueClusterOps(c, ops)
		}
		if err != nil && !errors.Is(err, storage.ErrInjected) {
			t.Fatalf("cut %d: unexpected failure class: %v", cut, err)
		}
		if err == nil && cut < total {
			t.Fatalf("cut %d: workload finished despite a budget below the write volume", cut)
		}
		if err := b.Crash(true); err != nil {
			t.Fatalf("cut %d: crash: %v", cut, err)
		}
		if c != nil {
			c.Close() // the tripped shard may error; recovery below is the oracle
		}

		re, rerr := shard.Open(dir, kind, nShards, place, shard.Options{})
		if rerr != nil {
			t.Fatalf("cut %d: cluster recovery failed: %v", cut, rerr)
		}

		// Healthy shards: every acknowledged mutation of theirs survived.
		ackedPerShard := make([]int, nShards)
		seen := make(map[mstsearch.ID]int)
		for _, op := range ops[:acked] {
			ackedPerShard[opOwner(op, place, seen, nShards)]++
		}
		for i := 0; i < nShards; i++ {
			sig := shardSig(re.Shard(i))
			j, ok := matchShardPrefix(streams[i], sig)
			if !ok {
				t.Fatalf("cut %d: shard %d state is not a prefix of its stream", cut, i)
			}
			if i != target && j != ackedPerShard[i] {
				t.Fatalf("cut %d: healthy shard %d recovered %d of %d acknowledged ops", cut, i, j, ackedPerShard[i])
			}
			if i == target && j < ackedPerShard[i] {
				t.Fatalf("cut %d: crashed shard recovered only %d of %d fsync-acknowledged ops", cut, j, ackedPerShard[i])
			}
		}

		// Differential: merged queries over the recovered cluster match a
		// single DB holding exactly the recovered trajectories.
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
			mstsearch.CheckBitIdentical(t, "recovered-cluster-vs-oracle", int(cut), want, got)
		}
		if err := re.Close(); err != nil {
			t.Fatalf("cut %d: close: %v", cut, err)
		}
		os.RemoveAll(dir) // bound the sweep's disk footprint
	}
}

// TestClusterManifestGuard pins the manifest: reopening a cluster
// directory under a different shard count, placement, or index kind must
// fail with ErrManifestMismatch instead of scattering writes under a new
// partitioning.
func TestClusterManifestGuard(t *testing.T) {
	dir := t.TempDir()
	c, err := shard.Open(dir, mstsearch.RTree3D, 3, shard.HashPlacement{}, shard.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []struct {
		name  string
		kind  mstsearch.IndexKind
		n     int
		place shard.Placement
	}{
		{"shards", mstsearch.RTree3D, 4, shard.HashPlacement{}},
		{"placement", mstsearch.RTree3D, 3, shard.SpatialPlacement{}},
		{"kind", mstsearch.TBTree, 3, shard.HashPlacement{}},
	} {
		if _, err := shard.Open(dir, bad.kind, bad.n, bad.place, shard.Options{}); !errors.Is(err, shard.ErrManifestMismatch) {
			t.Fatalf("%s mismatch: got %v, want ErrManifestMismatch", bad.name, err)
		}
	}
	// The matching parameters still open.
	c, err = shard.Open(dir, mstsearch.RTree3D, 3, shard.HashPlacement{}, shard.Options{})
	if err != nil {
		t.Fatalf("matching reopen: %v", err)
	}
	kind, n, placement, replicas, err := shard.ReadManifest(dir)
	if err != nil || kind != mstsearch.RTree3D || n != 3 || placement != "hash" || replicas != 1 {
		t.Fatalf("manifest reads back (%v, %d, %q, %d, %v)", kind, n, placement, replicas, err)
	}
	c.Close()
}

// TestClusterDurableRoundTrip pins the plain (no-fault) durable cycle:
// ingest through a durable cluster, checkpoint, close, reopen, and get
// bit-identical answers to an in-memory single DB with the same data.
func TestClusterDurableRoundTrip(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(43))
	trajs := mstsearch.FleetForTest(rng, 20, 24)
	single, err := mstsearch.NewDB(mstsearch.TBTree, trajs)
	if err != nil {
		t.Fatal(err)
	}

	c, err := shard.Open(dir, mstsearch.TBTree, 4, shard.SpatialPlacement{MinX: 0, MaxX: 100}, shard.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range trajs {
		if err := c.Add(trajs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := shard.Open(dir, mstsearch.TBTree, 4, shard.SpatialPlacement{MinX: 0, MaxX: 100}, shard.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != len(trajs) {
		t.Fatalf("reopened cluster holds %d trajectories, want %d", re.Len(), len(trajs))
	}
	for iter := 0; iter < 6; iter++ {
		q := trajs[rng.Intn(len(trajs))].Clone()
		q.ID = 0
		req := mstsearch.Request{
			Q: &q, Interval: mstsearch.Interval{T1: 1, T2: 9}, K: 3,
			Options: oracleOptions(),
		}
		sresp, err := single.Query(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		cresp, err := re.Query(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		mstsearch.CheckBitIdentical(t, "reopened-cluster", iter, sresp.Results, cresp.Results)
	}
}
