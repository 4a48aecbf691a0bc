package mstsearch_test

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	mstsearch "mstsearch"
	"mstsearch/internal/shard"
	"mstsearch/internal/storage"
	"mstsearch/internal/testutil"
)

// Cluster chaos: one shard sits on a flaky disk — its pager fails reads
// transiently and flips bits in transit — while queries, mutations, and
// cancellation storms hammer the whole cluster concurrently. Every query
// must end in exactly one of three states — a correct merged answer
// (validated against the brute-force oracle), a degraded best-effort
// answer with Stats.Degraded set, or a typed error — with no panics, no
// goroutine leaks, and no races (the CI concurrency matrix runs this
// suite under -race at GOMAXPROCS 1 and 4).

// typedClusterError reports whether err belongs to the query path's
// documented failure taxonomy.
func typedClusterError(err error) bool {
	return errors.Is(err, mstsearch.ErrInjected) ||
		errors.Is(err, mstsearch.ErrCanceled) ||
		errors.Is(err, mstsearch.ErrPageCorrupt{})
}

func TestClusterChaosConcurrent(t *testing.T) {
	testutil.CheckGoroutines(t)

	rng := rand.New(rand.NewSource(53))
	trajs := mstsearch.FleetForTest(rng, 60, 30)
	c := buildCluster(t, mstsearch.RTree3D, 4, shard.HashPlacement{}, shard.Options{}, trajs)

	// Shard 2 becomes the sick node: its buffer pool, shared by every
	// concurrent query, reads through one seeded flaky disk. The pool's
	// bounded retries absorb most faults; the rest surface as typed
	// errors, and they may get the shard's only replica quarantined (a
	// page still corrupt after the retries at once, transient faults
	// after three strikes), after which its queries fail with
	// ErrUnavailable. Its siblings stay healthy.
	c.Shard(2).SetPagerWrapper(func(p mstsearch.Pager) mstsearch.Pager {
		return &storage.FaultyPager{
			Inner:         p,
			Seed:          53,
			ReadFaultRate: 0.3,
			Transient:     true,
			BitFlipRate:   0.02,
		}
	})

	const workers = 8
	const itersPerWorker = 40
	var correct, degraded, failed, canceled, unavailable atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			wrng := rand.New(rand.NewSource(seed))
			for i := 0; i < itersPerWorker; i++ {
				src := &trajs[wrng.Intn(len(trajs))]
				t1 := wrng.Float64() * 4
				t2 := t1 + 2 + wrng.Float64()*4
				sl, ok := src.Slice(t1, t2)
				if !ok {
					t.Errorf("worker %d iter %d: window [%g, %g] outside fleet span", seed, i, t1, t2)
					return
				}
				q := sl.Clone()
				q.ID = 0
				req := mstsearch.Request{
					Q: &q, Interval: mstsearch.Interval{T1: t1, T2: t2}, K: 1 + wrng.Intn(4),
					Options: oracleOptions(),
				}

				if i%10 == 0 {
					// Cancellation storm: a pre-canceled context must fail
					// fast with the typed error and leak nothing.
					ctx, cancel := context.WithCancel(context.Background())
					cancel()
					if _, err := c.Query(ctx, req); !errors.Is(err, mstsearch.ErrCanceled) {
						t.Errorf("worker %d iter %d: canceled query returned %v, want ErrCanceled", seed, i, err)
						return
					}
					canceled.Add(1)
					continue
				}

				resp, err := c.Query(context.Background(), req)
				if errors.Is(err, mstsearch.ErrUnavailable) {
					unavailable.Add(1)
					continue
				}
				if err != nil {
					if !typedClusterError(err) {
						t.Errorf("worker %d iter %d: untyped error %v", seed, i, err)
						return
					}
					failed.Add(1)
					continue
				}
				if resp.Stats.Degraded {
					degraded.Add(1)
					continue
				}
				want := mstsearch.OracleTopK(trajs, &q, t1, t2, req.K)
				if len(resp.Results) != len(want) {
					t.Errorf("worker %d iter %d: %d results, oracle %d", seed, i, len(resp.Results), len(want))
					return
				}
				for j := range want {
					r := resp.Results[j]
					tol := 1e-9 * (1 + math.Abs(want[j].Dissim))
					if r.TrajID != want[j].ID || math.Abs(r.Dissim-want[j].Dissim) > tol {
						t.Errorf("worker %d iter %d rank %d: got traj %d (%g), oracle %d (%g)",
							seed, i, j, r.TrajID, r.Dissim, want[j].ID, want[j].Dissim)
						return
					}
				}
				correct.Add(1)
			}
		}(int64(w + 1))
	}
	wg.Wait()

	if t.Failed() {
		return
	}
	if correct.Load() == 0 {
		t.Fatal("chaos run produced no correct answers; the healthy path never executed")
	}
	if canceled.Load() == 0 {
		t.Fatal("chaos run exercised no cancellations")
	}
	if failed.Load()+degraded.Load() == 0 {
		t.Fatal("chaos run surfaced no faults from the sick shard; the injection never fired")
	}
	if unavailable.Load() > 0 {
		for _, st := range c.ReplicaStatuses() {
			if st.Shard == 2 && st.State != "quarantined" {
				t.Fatalf("%d queries found shard 2 unavailable, but its replica %d is %s", unavailable.Load(), st.Replica, st.State)
			}
		}
	}
	t.Logf("chaos outcomes: %d correct, %d degraded, %d typed failures, %d canceled, %d unavailable",
		correct.Load(), degraded.Load(), failed.Load(), canceled.Load(), unavailable.Load())
}

// TestClusterConcurrentMutationsAndQueries races the mutation path (Add /
// AppendSample through the routing table) against scatter-gather queries
// and checkpoint-free reads, with the leak checker armed. Correctness of
// interleaved answers is covered by the metamorphic suite; this test is
// the race/leak gate for the cluster's locking contract.
func TestClusterConcurrentMutationsAndQueries(t *testing.T) {
	testutil.CheckGoroutines(t)

	rng := rand.New(rand.NewSource(59))
	base := mstsearch.FleetForTest(rng, 30, 24)
	extra := mstsearch.FleetForTest(rng, 40, 24)
	for i := range extra {
		extra[i].ID += 500
	}
	c := buildCluster(t, mstsearch.TBTree, 3, shard.HashPlacement{}, shard.Options{}, base)

	var wg sync.WaitGroup
	// Writer: streams the extra fleet in, plus appends to the base fleet.
	wg.Add(1)
	go func() {
		defer wg.Done()
		wrng := rand.New(rand.NewSource(61))
		for i := range extra {
			if err := c.Add(extra[i]); err != nil {
				t.Errorf("add %d: %v", extra[i].ID, err)
				return
			}
			id := base[wrng.Intn(len(base))].ID
			cur := c.Get(id)
			last := cur.Samples[len(cur.Samples)-1]
			if err := c.AppendSample(id, mstsearch.Sample{X: last.X, Y: last.Y, T: last.T + 0.1}); err != nil {
				t.Errorf("append %d: %v", id, err)
				return
			}
		}
	}()
	// Readers: queries and gather-profile reads racing the writer.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			wrng := rand.New(rand.NewSource(seed))
			for i := 0; i < 30; i++ {
				src := &base[wrng.Intn(len(base))]
				t1 := wrng.Float64() * 4
				t2 := t1 + 2 + wrng.Float64()*4
				sl, ok := src.Slice(t1, t2)
				if !ok {
					continue
				}
				q := sl.Clone()
				q.ID = 0
				_, qs, err := c.QueryShards(context.Background(), mstsearch.Request{
					Q: &q, Interval: mstsearch.Interval{T1: t1, T2: t2}, K: 3,
					Options: oracleOptions(),
				})
				if err != nil {
					t.Errorf("reader %d iter %d: %v", seed, i, err)
					return
				}
				if qs.Fanout+qs.Pruned != c.NumShards() {
					t.Errorf("reader %d iter %d: fanout %d + pruned %d != %d shards", seed, i, qs.Fanout, qs.Pruned, c.NumShards())
					return
				}
			}
		}(int64(100 + r))
	}
	wg.Wait()

	if t.Failed() {
		return
	}
	if got, want := c.Len(), len(base)+len(extra); got != want {
		t.Fatalf("cluster holds %d trajectories after the race, want %d", got, want)
	}
}
