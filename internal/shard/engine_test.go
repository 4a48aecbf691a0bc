package shard

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	mstsearch "mstsearch"
)

// Unit coverage for the fan-out reads' one gather: each method's merge
// order and cut over what the shards hand back, and which shard's error
// surfaces when several fail.

// twinCluster builds a 3-shard cluster whose 16 trajectories come in
// pairs with identical paths under consecutive IDs, so nearest-neighbour
// distances tie and only the secondary sort key orders them.
func twinCluster(t *testing.T) *Cluster {
	t.Helper()
	c, err := New(mstsearch.RTree3D, 3, HashPlacement{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for id := mstsearch.ID(1); id <= 16; id++ {
		x := 0.05 * float64((id-1)/2)
		tr := mstsearch.Trajectory{ID: id}
		for i := 0; i <= 4; i++ {
			tr.Samples = append(tr.Samples, mstsearch.Sample{X: x + 0.1*float64(i), Y: 0.5 + 0.05*float64(i), T: 0.25 * float64(i)})
		}
		if err := c.Add(tr); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < c.NumShards(); i++ {
		if c.Shard(i).Len() == 0 {
			t.Fatalf("shard %d holds nothing; the merge would not be exercised", i)
		}
	}
	return c
}

func TestGatherMergeOrder(t *testing.T) {
	c := twinCluster(t)
	defer c.Close()
	ctx := context.Background()
	w := mstsearch.Window{MinX: 0.2, MinY: 0.4, MaxX: 0.6, MaxY: 0.8}
	iv := mstsearch.Interval{T1: 0.2, T2: 0.8}

	hits, err := c.Range(ctx, w, iv)
	if err != nil || len(hits) == 0 {
		t.Fatalf("Range = %d hits, %v", len(hits), err)
	}
	for i := 1; i < len(hits); i++ {
		a, b := hits[i-1], hits[i]
		if a.TrajID > b.TrajID || (a.TrajID == b.TrajID && a.SeqNo >= b.SeqNo) {
			t.Fatalf("Range hits %d, %d out of (TrajID, SeqNo) order: %+v, %+v", i-1, i, a, b)
		}
	}

	all, err := c.Nearest(ctx, 0.4, 0.6, 0.5, 16)
	if err != nil || len(all) != 16 {
		t.Fatalf("Nearest(k=16) = %d neighbours, %v; want 16", len(all), err)
	}
	ties := 0
	for i := 1; i < len(all); i++ {
		a, b := all[i-1], all[i]
		if a.Dist == b.Dist {
			ties++
		}
		if a.Dist > b.Dist || (a.Dist == b.Dist && a.TrajID >= b.TrajID) {
			t.Fatalf("Nearest %d, %d out of (Dist, TrajID) order: %+v, %+v", i-1, i, a, b)
		}
	}
	if ties == 0 {
		t.Fatal("twin fleet produced no distance ties")
	}
	for _, k := range []int{1, 5} {
		top, err := c.Nearest(ctx, 0.4, 0.6, 0.5, k)
		if err != nil || !reflect.DeepEqual(top, all[:k]) {
			t.Fatalf("Nearest(k=%d) = %+v, %v; want the first %d of %+v", k, top, err, k, all)
		}
	}

	topo, err := c.Topology(ctx, w, iv)
	if err != nil || len(topo) == 0 {
		t.Fatalf("Topology = %d entries, %v", len(topo), err)
	}
	for i := 1; i < len(topo); i++ {
		if topo[i-1].TrajID >= topo[i].TrajID {
			t.Fatalf("Topology entries %d, %d out of TrajID order: %d, %d", i-1, i, topo[i-1].TrajID, topo[i].TrajID)
		}
	}
}

// TestGatherLowestShardErrorWins fails shards 1 and 2 — shard 2 first —
// and expects shard 1's error with no answer, through gather itself and
// through a public method whose shards have no replica left.
func TestGatherLowestShardErrorWins(t *testing.T) {
	c := twinCluster(t)
	defer c.Close()
	shardOf := map[*mstsearch.DB]int{}
	for i := 0; i < c.NumShards(); i++ {
		shardOf[c.Shard(i)] = i
	}
	errShard := func(i int) error { return fmt.Errorf("shard %d failed", i) }
	out, err := gather(c, func(db *mstsearch.DB) ([]int, error) {
		switch i := shardOf[db]; i {
		case 1:
			time.Sleep(5 * time.Millisecond) // let shard 2 fail first
			return []int{i}, errShard(i)
		case 2:
			return []int{i}, errShard(i)
		default:
			return []int{i}, nil
		}
	})
	if out != nil || err == nil || err.Error() != errShard(1).Error() {
		t.Fatalf("gather = %v, %v; want nil, %v", out, err, errShard(1))
	}

	c.sets[2].markStale(0, errors.New("test quarantine"))
	c.sets[1].markStale(0, errors.New("test quarantine"))
	hits, err := c.Range(context.Background(), mstsearch.Window{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}, mstsearch.Interval{T1: 0, T2: 1})
	if hits != nil || !errors.Is(err, mstsearch.ErrUnavailable) || !strings.HasPrefix(err.Error(), "shard 1:") {
		t.Fatalf("Range with shards 1 and 2 down = %d hits, %v; want shard 1's ErrUnavailable", len(hits), err)
	}
}

// TestNilQueryIsBadQuery: the cluster types a missing query trajectory as
// ErrBadQuery on its query and explain paths, as a single DB does.
func TestNilQueryIsBadQuery(t *testing.T) {
	c := twinCluster(t)
	defer c.Close()
	ctx := context.Background()
	req := mstsearch.Request{Interval: mstsearch.Interval{T1: 0.2, T2: 0.8}, K: 3}
	if _, err := c.Query(ctx, req); !errors.Is(err, mstsearch.ErrBadQuery) {
		t.Errorf("Query with a nil query: got %v, want ErrBadQuery", err)
	}
	if _, err := c.Explain(ctx, req); !errors.Is(err, mstsearch.ErrBadQuery) {
		t.Errorf("Explain with a nil query: got %v, want ErrBadQuery", err)
	}
}
