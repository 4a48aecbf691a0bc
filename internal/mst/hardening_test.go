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
// top-k of the exact linear scan — on the store path and on the paper's.
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
		budgetDraw := rng.Int()
		want := baselines.LinearScanMST(data, &q, t1, t2, k)
		trueTop := map[int64]bool{}
		for _, w := range want {
			trueTop[int64(w.TrajID)] = true
		}

		for _, leg := range searchLegs(data) {
			_, full, err := Search(rt, &q, t1, t2, Options{K: k, Vmax: 120, Data: leg.data})
			if err != nil {
				t.Fatal(err)
			}
			if full.NodesAccessed < 3 {
				continue
			}
			budget := 1 + budgetDraw%(full.NodesAccessed-1)

			res, st, err := Search(rt, &q, t1, t2, Options{
				K: k, Vmax: 120, Data: leg.data, MaxNodeAccesses: budget,
			})
			if err != nil {
				t.Fatalf("%s iter %d: budgeted search failed: %v", leg.name, iter, err)
			}
			if st.NodesAccessed > budget {
				t.Fatalf("%s iter %d: budget %d exceeded: %d nodes", leg.name, iter, budget, st.NodesAccessed)
			}
			if !st.Degraded {
				t.Fatalf("%s iter %d: budget %d < full %d but Degraded not set", leg.name, iter, budget, full.NodesAccessed)
			}
			for _, r := range res {
				if r.Certified && !trueTop[int64(r.TrajID)] {
					t.Fatalf("%s iter %d: certified result %d not in true top-%d", leg.name, iter, r.TrajID, k)
				}
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

	for _, leg := range searchLegs(data) {
		opts := Options{K: k, Vmax: 120, Data: leg.data, MaxNodeAccesses: rt.NumNodes() + 1}
		res, st, err := Search(rt, &q, 10, 60, opts)
		if err != nil {
			t.Fatal(err)
		}
		if st.Degraded {
			t.Fatalf("%s: non-binding budget reported Degraded", leg.name)
		}
		checkAnswer(t, leg.name, rt, data, &q, 10, 60, opts, res)
		for _, r := range res {
			if !r.Certified {
				t.Fatalf("%s: complete search left result %d uncertified", leg.name, r.TrajID)
			}
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

// A leaf naming a trajectory the store cannot resolve is index/store
// inconsistency: the store path must fail the search with the typed
// corruption error, never answer without that trajectory.
func TestStorePathUnknownTrajectory(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	data := makeDataset(rng, 30, 80)
	rt := buildRTree(t, data, 1024)
	q := queryFrom(rng, &data.Trajs[4], 10, 60)
	// The query's source lies closest to it, so the first leaf the search
	// decides names it.
	rest := append(append([]trajectory.Trajectory{}, data.Trajs[:4]...), data.Trajs[5:]...)
	store, err := trajectory.NewDataset(rest)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Search(rt, &q, 10, 60, Options{K: 3, Data: store}); !errors.Is(err, index.ErrCorruptNode) {
		t.Fatalf("search over a store missing trajectory %d: err %v, want ErrCorruptNode", data.Trajs[4].ID, err)
	}
}

// A budget-degraded paper search certifies a result only when no
// trajectory outside the answer can displace it. Its floor (CertFloor)
// must lie at or below the exact DISSIM of every covering trajectory it
// did not return — unexplored, partially assembled, rejected or ranked
// below the answer — and a Certified result must be a true top-k member.
// Budgets at a quarter, half and three quarters of the full search's
// nodes leave partial and rejected candidates behind; the test insists
// that some degraded answers held non-members and some results were
// certified, so both checks have something to catch.
func TestPaperSearchDegradedCertification(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	data := makeDataset(rng, 80, 100)
	rt := buildRTree(t, data, 1024)
	var wrong, certified int
	for iter := 0; iter < 40; iter++ {
		src := &data.Trajs[rng.Intn(data.Len())]
		t1 := rng.Float64() * 40
		t2 := t1 + 20 + rng.Float64()*30
		q := queryFrom(rng, src, t1, t2)
		k := 1 + rng.Intn(5)
		_, full, err := Search(rt, &q, t1, t2, Options{K: k, Vmax: 120})
		if err != nil {
			t.Fatal(err)
		}
		all := baselines.LinearScanMST(data, &q, t1, t2, data.Len())
		trueTop := map[trajectory.ID]bool{}
		for _, w := range all[:min(k, len(all))] {
			trueTop[w.TrajID] = true
		}
		for _, frac := range []int{1, 2, 3} {
			budget := 1 + frac*full.NodesAccessed/4
			if budget >= full.NodesAccessed {
				continue
			}
			res, st, err := Search(rt, &q, t1, t2, Options{K: k, Vmax: 120, MaxNodeAccesses: budget})
			if err != nil {
				t.Fatal(err)
			}
			if !st.Degraded {
				t.Fatalf("iter %d: budget %d < full %d but Degraded not set", iter, budget, full.NodesAccessed)
			}
			returned := map[trajectory.ID]bool{}
			for _, r := range res {
				returned[r.TrajID] = true
				if !trueTop[r.TrajID] {
					wrong++
				}
				if r.Certified {
					certified++
					if !trueTop[r.TrajID] {
						t.Fatalf("iter %d budget %d: certified result %d not in true top-%d", iter, budget, r.TrajID, k)
					}
				}
			}
			for _, a := range all {
				if !returned[a.TrajID] && a.Dissim < st.CertFloor-1e-9*(1+a.Dissim) {
					t.Fatalf("iter %d budget %d: traj %d not returned at exact %v below CertFloor %v",
						iter, budget, a.TrajID, a.Dissim, st.CertFloor)
				}
			}
		}
	}
	if wrong == 0 || certified == 0 {
		t.Fatalf("degraded answers exercised nothing: %d non-members returned, %d results certified", wrong, certified)
	}
}
