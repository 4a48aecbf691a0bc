package mst

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"mstsearch/internal/baselines"
	"mstsearch/internal/index"
	"mstsearch/internal/rtree"
	"mstsearch/internal/storage"
	"mstsearch/internal/trajectory"
)

// buildRTreeOn is buildRTree against a caller-owned page file, so tests
// can re-open the tree through a buffer pool.
func buildRTreeOn(tb testing.TB, f *storage.File, data *trajectory.Dataset) *rtree.Tree {
	tb.Helper()
	t := rtree.New(f)
	for i := range data.Trajs {
		tr := &data.Trajs[i]
		for s := 0; s < tr.NumSegments(); s++ {
			e := index.LeafEntry{TrajID: tr.ID, SeqNo: uint32(s), Seg: tr.Segment(s)}
			if err := t.Insert(e); err != nil {
				tb.Fatal(err)
			}
		}
	}
	return t
}

// reopenRTree re-opens a built tree read-only through an arbitrary pager.
func reopenRTree(p storage.Pager, rt *rtree.Tree) index.Tree {
	return rtree.Open(p, rt.Meta())
}

// cancelAfterTree wraps a Tree and cancels a context after n ReadNode
// calls — simulating a client that gives up mid-search.
type cancelAfterTree struct {
	index.Tree
	cancel context.CancelFunc
	after  int
	reads  int
}

func (c *cancelAfterTree) ReadNode(id storage.PageID) (*index.Node, error) {
	c.reads++
	if c.reads == c.after {
		c.cancel()
	}
	return c.Tree.ReadNode(id)
}

// A context canceled mid-search must abort promptly with the typed error,
// reading at most one more node past the cancellation point.
func TestSearchCancellationMidSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	data := makeDataset(rng, 40, 80)
	rt := buildRTree(t, data, 1024)
	q := queryFrom(rng, &data.Trajs[3], 10, 60)

	// Baseline: how many nodes does the full search read?
	_, full, err := Search(rt, &q, 10, 60, Options{K: 3, Vmax: 100, Data: data})
	if err != nil {
		t.Fatal(err)
	}
	if full.NodesAccessed < 4 {
		t.Skipf("search too small to cancel mid-way (%d nodes)", full.NodesAccessed)
	}

	for _, after := range []int{1, 2, full.NodesAccessed / 2} {
		ctx, cancel := context.WithCancel(context.Background())
		wrapped := &cancelAfterTree{Tree: rt, cancel: cancel, after: after}
		_, st, err := SearchContext(ctx, wrapped, &q, 10, 60, Options{K: 3, Vmax: 100, Data: data})
		cancel()
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("cancel after %d reads: got %v, want ErrCanceled", after, err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancel after %d reads: %v must also wrap context.Canceled", after, err)
		}
		// Cancellation is checked between pops: at most the in-flight node
		// completes after the cancel fires.
		if st.NodesAccessed > after+1 {
			t.Fatalf("cancel after %d reads: search went on to read %d nodes", after, st.NodesAccessed)
		}
	}
}

// An already-expired deadline aborts before any node is read.
func TestSearchDeadlineExpired(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	data := makeDataset(rng, 20, 80)
	rt := buildRTree(t, data, 1024)
	q := queryFrom(rng, &data.Trajs[0], 10, 60)

	ctx, cancel := context.WithTimeout(context.Background(), 0)
	defer cancel()
	_, st, err := SearchContext(ctx, rt, &q, 10, 60, Options{K: 2, Vmax: 100})
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want ErrCanceled wrapping DeadlineExceeded", err)
	}
	if st.NodesAccessed != 0 {
		t.Fatalf("expired deadline still read %d nodes", st.NodesAccessed)
	}
}

// MaxNodeAccesses is a hard budget: the search never exceeds it, reports
// Degraded, and every result it marks Certified really is in the true
// top-k of the exact linear scan.
func TestSearchNodeBudgetDegrades(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	data := makeDataset(rng, 60, 100)
	rt := buildRTree(t, data, 1024)

	for iter := 0; iter < 10; iter++ {
		src := &data.Trajs[rng.Intn(data.Len())]
		t1 := rng.Float64() * 40
		t2 := t1 + 20 + rng.Float64()*30
		q := queryFrom(rng, src, t1, t2)
		k := 2 + rng.Intn(3)

		_, full, err := Search(rt, &q, t1, t2, Options{K: k, Vmax: 120, Data: data})
		if err != nil {
			t.Fatal(err)
		}
		if full.NodesAccessed < 3 {
			continue
		}
		budget := 1 + rng.Intn(full.NodesAccessed-1)

		res, st, err := Search(rt, &q, t1, t2, Options{
			K: k, Vmax: 120, Data: data, MaxNodeAccesses: budget,
		})
		if err != nil {
			t.Fatalf("iter %d: budgeted search failed: %v", iter, err)
		}
		if st.NodesAccessed > budget {
			t.Fatalf("iter %d: budget %d exceeded: %d nodes", iter, budget, st.NodesAccessed)
		}
		if !st.Degraded {
			t.Fatalf("iter %d: budget %d < full %d but Degraded not set", iter, budget, full.NodesAccessed)
		}

		want := baselines.LinearScanMST(data, &q, t1, t2, k)
		trueTop := map[int64]bool{}
		for _, w := range want {
			trueTop[int64(w.TrajID)] = true
		}
		for _, r := range res {
			if r.Certified && !trueTop[int64(r.TrajID)] {
				t.Fatalf("iter %d: certified result %d not in true top-%d", iter, r.TrajID, k)
			}
		}
	}
}

// An ample budget must not degrade the search or change its answer.
func TestSearchBudgetNotBindingIsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	data := makeDataset(rng, 40, 80)
	rt := buildRTree(t, data, 1024)
	q := queryFrom(rng, &data.Trajs[5], 10, 60)
	k := 3

	res, st, err := Search(rt, &q, 10, 60, Options{
		K: k, Vmax: 120, Data: data, MaxNodeAccesses: rt.NumNodes() + 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Degraded {
		t.Fatal("non-binding budget reported Degraded")
	}
	want := baselines.LinearScanMST(data, &q, 10, 60, k)
	if len(res) != len(want) {
		t.Fatalf("got %d results, want %d", len(res), len(want))
	}
	for i := range want {
		if res[i].TrajID != want[i].TrajID {
			t.Fatalf("rank %d: got %d, want %d", i, res[i].TrajID, want[i].TrajID)
		}
		if !res[i].Certified {
			t.Fatalf("complete search left result %d uncertified", res[i].TrajID)
		}
	}
}

// MaxIOReads (driven by an external miss counter) degrades like the node
// budget.
func TestSearchIOBudgetDegrades(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	data := makeDataset(rng, 60, 100)
	f := storage.NewFile(1024)
	rt := buildRTreeOn(t, f, data)
	q := queryFrom(rng, &data.Trajs[7], 10, 70)

	bp := storage.NewStripedPool(f, 4, 1)
	view := reopenRTree(bp, rt)
	_, full, err := Search(view, &q, 10, 70, Options{K: 3, Vmax: 120, Data: data})
	if err != nil {
		t.Fatal(err)
	}
	fullReads := bp.Stats().Misses
	if full.NodesAccessed < 3 || fullReads < 3 {
		t.Skip("search too small")
	}

	bp2 := storage.NewStripedPool(f, 4, 1)
	view2 := reopenRTree(bp2, rt)
	budget := fullReads / 2
	_, st, err := Search(view2, &q, 10, 70, Options{
		K: 3, Vmax: 120, Data: data,
		MaxIOReads: budget,
		IOReads:    func() uint64 { return bp2.Stats().Misses },
	})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Degraded {
		t.Fatalf("I/O budget %d of %d reads did not degrade", budget, fullReads)
	}
	// Sampled between pops: one node read may overshoot by at most one page
	// beyond the budget check, bounded by the node size in pages (1 here).
	if got := bp2.Stats().Misses; got > budget+1 {
		t.Fatalf("I/O budget %d exceeded: %d misses", budget, got)
	}
}
