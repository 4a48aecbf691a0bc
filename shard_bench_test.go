package mstsearch_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	mstsearch "mstsearch"
	"mstsearch/internal/experiments"
	"mstsearch/internal/shard"
	"mstsearch/internal/storage"
)

// BenchmarkClusterQuery measures scatter-gather k-MST throughput across
// shard counts and placement policies on a Fig. 10 Q1-shaped workload
// (5% windows, k = 1). The extra metrics report the coordinator's gather
// profile: avgFanout shards actually searched and avgPruned skipped on
// their root bound per query. On a single-CPU container the multi-shard
// legs measure coordination overhead rather than speedup; the pruning
// ratio is the hardware-independent number.
func BenchmarkClusterQuery(b *testing.B) {
	data := experiments.SyntheticDataset(50, 201, 1)
	rng := rand.New(rand.NewSource(7))
	const nq = 16
	type workItem struct {
		q      mstsearch.Trajectory
		t1, t2 float64
	}
	work := make([]workItem, nq)
	for i := range work {
		src := &data.Trajs[rng.Intn(len(data.Trajs))]
		t1 := rng.Float64() * 0.9
		t2 := t1 + 0.05
		sl, ok := src.Slice(t1, t2)
		if !ok {
			b.Fatalf("query window [%g, %g] outside dataset span", t1, t2)
		}
		work[i].q = sl.Clone()
		work[i].q.ID = 0
		work[i].t1, work[i].t2 = t1, t2
	}

	for _, n := range []int{1, 2, 4, 8} {
		for _, place := range []shard.Placement{shard.HashPlacement{}, shard.SpatialPlacement{}} {
			b.Run(fmt.Sprintf("shards=%d/placement=%s", n, place.Name()), func(b *testing.B) {
				c, err := shard.New(mstsearch.RTree3D, n, place, shard.Options{})
				if err != nil {
					b.Fatal(err)
				}
				for i := range data.Trajs {
					if err := c.Add(data.Trajs[i]); err != nil {
						b.Fatal(err)
					}
				}
				opts := mstsearch.Options{}
				var fanout, pruned int
				b.ResetTimer()
				start := time.Now()
				for i := 0; i < b.N; i++ {
					for _, w := range work {
						_, qs, err := c.QueryShards(context.Background(), mstsearch.Request{
							Q: &w.q, Interval: mstsearch.Interval{T1: w.t1, T2: w.t2}, K: 1,
							Options: opts,
						})
						if err != nil {
							b.Fatal(err)
						}
						fanout += qs.Fanout
						pruned += qs.Pruned
					}
				}
				elapsed := time.Since(start).Seconds()
				queries := float64(b.N) * nq
				if elapsed > 0 {
					b.ReportMetric(queries/elapsed, "queries/s")
				}
				b.ReportMetric(float64(fanout)/queries, "avgFanout")
				b.ReportMetric(float64(pruned)/queries, "avgPruned")
			})
		}
	}
}

// BenchmarkReplicaQuery prices replication on the same Q1-shaped
// workload: `steady` is a healthy 2-replica cluster (the rent replication
// charges when nothing is wrong — one extra journal target per write,
// zero extra read work); `failover-window` re-lives the worst interval on
// every iteration — the preferred replica of every shard dies, queries
// fail over mid-scatter until the health machine quarantines it, and
// anti-entropy re-seeds it between iterations (repair runs off the
// clock). avgFailovers counts the per-query hand-offs actually taken
// inside the window.
func BenchmarkReplicaQuery(b *testing.B) {
	data := experiments.SyntheticDataset(50, 201, 1)
	rng := rand.New(rand.NewSource(7))
	const nq = 16
	type workItem struct {
		q      mstsearch.Trajectory
		t1, t2 float64
	}
	work := make([]workItem, nq)
	for i := range work {
		src := &data.Trajs[rng.Intn(len(data.Trajs))]
		t1 := rng.Float64() * 0.9
		t2 := t1 + 0.05
		sl, ok := src.Slice(t1, t2)
		if !ok {
			b.Fatalf("query window [%g, %g] outside dataset span", t1, t2)
		}
		work[i].q = sl.Clone()
		work[i].q.ID = 0
		work[i].t1, work[i].t2 = t1, t2
	}

	const nShards = 4
	kill := func(c *shard.Cluster) {
		for i := 0; i < nShards; i++ {
			c.Replica(i, 0).SetPagerWrapper(func(p mstsearch.Pager) mstsearch.Pager {
				return &storage.FaultyPager{Inner: p, FailReadAt: 1, Permanent: true}
			})
		}
	}

	for _, mode := range []string{"steady", "failover-window"} {
		b.Run("mode="+mode, func(b *testing.B) {
			c, err := shard.New(mstsearch.RTree3D, nShards, shard.HashPlacement{}, shard.Options{Replicas: 2})
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			for i := range data.Trajs {
				if err := c.Add(data.Trajs[i]); err != nil {
					b.Fatal(err)
				}
			}
			if mode == "failover-window" {
				kill(c)
			}
			opts := mstsearch.Options{}
			var failovers int
			var elapsed time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				start := time.Now()
				for _, w := range work {
					_, qs, err := c.QueryShards(context.Background(), mstsearch.Request{
						Q: &w.q, Interval: mstsearch.Interval{T1: w.t1, T2: w.t2}, K: 1,
						Options: opts,
					})
					if err != nil {
						b.Fatal(err)
					}
					failovers += qs.Failovers
				}
				elapsed += time.Since(start)
				if mode == "failover-window" {
					// Reset the window off the clock: repair re-seeds the
					// quarantined replicas, then the fresh copies die again.
					b.StopTimer()
					if _, err := c.RepairNow(context.Background()); err != nil {
						b.Fatal(err)
					}
					kill(c)
					b.StartTimer()
				}
			}
			queries := float64(b.N) * nq
			if s := elapsed.Seconds(); s > 0 {
				b.ReportMetric(queries/s, "queries/s")
			}
			b.ReportMetric(float64(failovers)/queries, "avgFailovers")
		})
	}
}
