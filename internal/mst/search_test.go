package mst

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"mstsearch/internal/baselines"
	"mstsearch/internal/index"
	"mstsearch/internal/rtree"
	"mstsearch/internal/storage"
	"mstsearch/internal/strtree"
	"mstsearch/internal/tbtree"
	"mstsearch/internal/trajectory"
)

// makeDataset builds n random-walk trajectories all covering [0, span]
// with heterogeneous sampling rates.
func makeDataset(rng *rand.Rand, n int, span float64) *trajectory.Dataset {
	trajs := make([]trajectory.Trajectory, n)
	for i := range trajs {
		samples := 10 + rng.Intn(60)
		tr := trajectory.Trajectory{ID: trajectory.ID(i + 1)}
		x, y := rng.Float64()*100, rng.Float64()*100
		for j := 0; j <= samples; j++ {
			t := span * float64(j) / float64(samples)
			tr.Samples = append(tr.Samples, trajectory.Sample{X: x, Y: y, T: t})
			x += rng.NormFloat64() * 2
			y += rng.NormFloat64() * 2
		}
		trajs[i] = tr
	}
	d, err := trajectory.NewDataset(trajs)
	if err != nil {
		panic(err)
	}
	return d
}

func buildRTree(tb testing.TB, data *trajectory.Dataset, pageSize int) *rtree.Tree {
	f := storage.NewFile(pageSize)
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

func buildSTRTree(tb testing.TB, data *trajectory.Dataset, pageSize int) *strtree.Tree {
	f := storage.NewFile(pageSize)
	t := strtree.New(f)
	for i := range data.Trajs {
		if err := t.InsertTrajectory(&data.Trajs[i]); err != nil {
			tb.Fatal(err)
		}
	}
	return t
}

func buildTBTree(tb testing.TB, data *trajectory.Dataset, pageSize int) *tbtree.Tree {
	f := storage.NewFile(pageSize)
	t := tbtree.New(f)
	for i := range data.Trajs {
		if err := t.InsertTrajectory(&data.Trajs[i]); err != nil {
			tb.Fatal(err)
		}
	}
	return t
}

// queryFrom derives a query trajectory as a perturbed copy of a dataset
// trajectory restricted to [t1, t2] and resampled at its own rate — the
// paper's query workload shape (Table 3).
func queryFrom(rng *rand.Rand, src *trajectory.Trajectory, t1, t2 float64) trajectory.Trajectory {
	sl, ok := src.Slice(t1, t2)
	if !ok {
		panic("query window outside source")
	}
	q := sl.Clone()
	q.ID = 0
	for i := range q.Samples {
		q.Samples[i].X += rng.NormFloat64() * 0.5
		q.Samples[i].Y += rng.NormFloat64() * 0.5
	}
	return q
}

// searchLeg is one of the two MBB searches every result property is
// checked on: the store path (Options.Data set, each trajectory decided
// exactly on first sight) and the paper's trapezoid search (no Data,
// certified intervals, §4.4 error management).
type searchLeg struct {
	name string
	data *trajectory.Dataset
}

func searchLegs(data *trajectory.Dataset) []searchLeg {
	return []searchLeg{{"store", data}, {"paper", nil}}
}

// checkAnswer checks a complete (unbudgeted) k-MST answer against the
// exact linear scan. On the store path the answer must be the scan's, in
// order, at its distances. On the paper's path each result's certified
// interval must contain its exact DISSIM, and a result may stand in for a
// true top-k member only within the two intervals' errors: a returned r
// outranks a missing t only if mid(r) ≤ mid(t), so exact(r) ≤ exact(t) +
// Err(r) + Err(t) ≤ k-th exact + Err(r) + max Err over the true top k. A
// member's Err comes from a reference run that completes every trajectory
// (both heuristics off, k = all).
func checkAnswer(tb testing.TB, label string, tree index.Tree, data *trajectory.Dataset,
	q *trajectory.Trajectory, t1, t2 float64, opts Options, got []Result) {
	tb.Helper()
	all := baselines.LinearScanMST(data, q, t1, t2, data.Len())
	want := all
	if len(want) > opts.K {
		want = want[:opts.K]
	}
	if len(got) != len(want) {
		tb.Fatalf("%s: got %d results, want %d", label, len(got), len(want))
	}
	if opts.Data != nil {
		for i := range want {
			if got[i].TrajID != want[i].TrajID || got[i].Dissim != want[i].Dissim || got[i].Err != 0 {
				tb.Fatalf("%s k=%d: rank %d = traj %d (%v±%v), want traj %d (%v)",
					label, opts.K, i, got[i].TrajID, got[i].Dissim, got[i].Err,
					want[i].TrajID, want[i].Dissim)
			}
		}
		return
	}
	ref, _, err := Search(tree, q, t1, t2, Options{
		K: data.Len(), Refine: opts.Refine, DisableHeuristic1: true, DisableHeuristic2: true,
	})
	if err != nil {
		tb.Fatalf("%s: reference run: %v", label, err)
	}
	refErr := make(map[trajectory.ID]float64, len(ref))
	for _, r := range ref {
		refErr[r.TrajID] = r.Err
	}
	exact := make(map[trajectory.ID]float64, len(all))
	for _, a := range all {
		exact[a.TrajID] = a.Dissim
	}
	var kth, topErr float64
	for _, w := range want {
		kth = w.Dissim
		topErr = math.Max(topErr, refErr[w.TrajID])
	}
	for i, r := range got {
		d, ok := exact[r.TrajID]
		if !ok {
			tb.Fatalf("%s: rank %d traj %d does not cover [%v, %v]", label, i, r.TrajID, t1, t2)
		}
		slack := 1e-9 * (1 + math.Abs(d))
		if math.Abs(d-r.Dissim) > r.Err+slack {
			tb.Fatalf("%s: rank %d traj %d exact %v outside certified %v±%v", label, i, r.TrajID, d, r.Dissim, r.Err)
		}
		if d > kth+r.Err+topErr+slack {
			tb.Fatalf("%s: rank %d traj %d exact %v beyond k-th %v + errors %v + %v",
				label, i, r.TrajID, d, kth, r.Err, topErr)
		}
	}
}

// TestSearchMatchesLinearScan is the central integration property: on
// every MBB tree, BFMSTSearch returns what the exact brute-force scan
// ranks first — exactly on the store path, within the certified error on
// the paper's.
func TestSearchMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	data := makeDataset(rng, 60, 100)
	vmax := data.MaxSpeed()
	rt := buildRTree(t, data, 1024)
	tb := buildTBTree(t, data, 1024)
	st := buildSTRTree(t, data, 1024)
	trees := map[string]index.Tree{"rtree": rt, "tbtree": tb, "strtree": st}

	for iter := 0; iter < 25; iter++ {
		src := &data.Trajs[rng.Intn(data.Len())]
		t1 := rng.Float64() * 50
		t2 := t1 + 10 + rng.Float64()*40
		q := queryFrom(rng, src, t1, t2)
		k := 1 + rng.Intn(5)

		for name, tree := range trees {
			for _, leg := range searchLegs(data) {
				opts := Options{K: k, Vmax: vmax + q.MaxSpeed(), Data: leg.data}
				got, stats, err := Search(tree, &q, t1, t2, opts)
				label := fmt.Sprintf("%s/%s iter %d", name, leg.name, iter)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				checkAnswer(t, label, tree, data, &q, t1, t2, opts, got)
				if stats.NodesAccessed == 0 || stats.TotalNodes == 0 {
					t.Fatalf("%s: missing stats: %+v", label, stats)
				}
			}
		}
	}
}

// Without the dataset (no exact refinement) the certified interval of each
// result must still contain the true DISSIM.
func TestSearchWithoutRefinementBrackets(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	data := makeDataset(rng, 40, 50)
	rt := buildRTree(t, data, 1024)
	for iter := 0; iter < 10; iter++ {
		src := &data.Trajs[rng.Intn(data.Len())]
		q := queryFrom(rng, src, 5, 45)
		got, _, err := Search(rt, &q, 5, 45, Options{K: 3, Vmax: 100})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 3 {
			t.Fatalf("got %d results", len(got))
		}
		for _, r := range got {
			tr := data.Get(r.TrajID)
			exact, ok := dissimExact(&q, tr, 5, 45)
			if !ok {
				t.Fatalf("result %d does not cover window", r.TrajID)
			}
			if exact < r.Dissim-r.Err-1e-9 || exact > r.Dissim+r.Err+1e-9 {
				t.Fatalf("exact %v outside certified %v±%v", exact, r.Dissim, r.Err)
			}
		}
	}
}

// Heuristics must never change the result set, only the work performed.
// On the paper's path every variant's answer is also checked against the
// exact scan within its certified error (Refine changes the intervals, so
// it may reorder near-ties there).
func TestHeuristicsPreserveResults(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	data := makeDataset(rng, 50, 60)
	rt := buildRTree(t, data, 1024)
	vmax := data.MaxSpeed() + 10
	for iter := 0; iter < 10; iter++ {
		src := &data.Trajs[rng.Intn(data.Len())]
		q := queryFrom(rng, src, 10, 50)
		for _, leg := range searchLegs(data) {
			base, baseStats, err := Search(rt, &q, 10, 50, Options{K: 2, Vmax: vmax, Data: leg.data})
			if err != nil {
				t.Fatal(err)
			}
			for _, opt := range []Options{
				{K: 2, Vmax: vmax, Data: leg.data, DisableHeuristic1: true},
				{K: 2, Vmax: vmax, Data: leg.data, DisableHeuristic2: true},
				{K: 2, Vmax: vmax, Data: leg.data, DisableHeuristic1: true, DisableHeuristic2: true},
				{K: 2, Vmax: 0, Data: leg.data},               // speed-independent only
				{K: 2, Vmax: vmax, Data: leg.data, Refine: 8}, // tighter trapezoid bounds
			} {
				got, stats, err := Search(rt, &q, 10, 50, opt)
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("%s iter %d opts %+v", leg.name, iter, opt)
				checkAnswer(t, label, rt, data, &q, 10, 50, opt, got)
				if opt.Refine <= 1 {
					for i := range base {
						if got[i].TrajID != base[i].TrajID {
							t.Fatalf("%s: rank %d differs", label, i)
						}
					}
				}
				// Disabling both heuristics must not access fewer nodes.
				if opt.DisableHeuristic1 && opt.DisableHeuristic2 &&
					stats.NodesAccessed < baseStats.NodesAccessed {
					t.Fatalf("%s: heuristics increased node accesses (%d vs %d)",
						label, baseStats.NodesAccessed, stats.NodesAccessed)
				}
			}
		}
	}
}

func TestHeuristic2Terminates(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	data := makeDataset(rng, 120, 60)
	rt := buildRTree(t, data, 1024)
	src := &data.Trajs[0]
	q := queryFrom(rng, src, 10, 50)
	for _, leg := range searchLegs(data) {
		_, stats, err := Search(rt, &q, 10, 50, Options{K: 1, Vmax: data.MaxSpeed() + 10, Data: leg.data})
		if err != nil {
			t.Fatal(err)
		}
		if !stats.TerminatedEarly {
			t.Fatalf("%s: expected early termination on a 120-object dataset: %+v", leg.name, stats)
		}
		if stats.PruningPower <= 0 {
			t.Fatalf("%s: expected positive pruning power: %+v", leg.name, stats)
		}
	}
}

func TestSearchBadQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	data := makeDataset(rng, 5, 10)
	rt := buildRTree(t, data, 1024)
	q := data.Trajs[0].Clone()
	if _, _, err := Search(rt, nil, 0, 1, Options{}); err == nil {
		t.Fatal("nil query must error")
	}
	if _, _, err := Search(rt, &q, 5, 5, Options{}); err == nil {
		t.Fatal("empty period must error")
	}
	if _, _, err := Search(rt, &q, -10, 5, Options{}); err == nil {
		t.Fatal("period outside query lifespan must error")
	}
}

func TestSearchEmptyTree(t *testing.T) {
	f := storage.NewFile(1024)
	rt := rtree.New(f)
	q := trajectory.Trajectory{ID: 1, Samples: []trajectory.Sample{
		{X: 0, Y: 0, T: 0}, {X: 1, Y: 1, T: 10},
	}}
	got, stats, err := Search(rt, &q, 0, 10, Options{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if got != nil || stats.NodesAccessed != 0 {
		t.Fatalf("empty tree: %v, %+v", got, stats)
	}
}

// Trajectories that do not cover the whole query period must never be
// returned.
func TestSearchSkipsPartialCoverage(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	trajs := []trajectory.Trajectory{
		{ID: 1, Samples: []trajectory.Sample{{X: 0, Y: 0, T: 0}, {X: 1, Y: 0, T: 4}}},      // half period
		{ID: 2, Samples: []trajectory.Sample{{X: 50, Y: 50, T: 0}, {X: 51, Y: 50, T: 10}}}, // full, far
	}
	data, err := trajectory.NewDataset(trajs)
	if err != nil {
		t.Fatal(err)
	}
	rt := buildRTree(t, data, 1024)
	q := trajectory.Trajectory{ID: 0, Samples: []trajectory.Sample{
		{X: 0, Y: 1, T: 0}, {X: 1, Y: 1, T: 10},
	}}
	_ = rng
	got, _, err := Search(rt, &q, 0, 10, Options{K: 2, Vmax: 100, Data: data})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].TrajID != 2 {
		t.Fatalf("want only trajectory 2, got %+v", got)
	}
}

func TestKLargerThanDataset(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	data := makeDataset(rng, 5, 20)
	rt := buildRTree(t, data, 1024)
	q := queryFrom(rng, &data.Trajs[0], 0, 20)
	got, _, err := Search(rt, &q, 0, 20, Options{K: 50, Vmax: 100, Data: data})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("want all 5 trajectories, got %d", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i].Dissim < got[i-1].Dissim {
			t.Fatal("results must be sorted by dissimilarity")
		}
	}
}

// dissimExact avoids an import cycle in test helpers.
func dissimExact(q, tr *trajectory.Trajectory, t1, t2 float64) (float64, bool) {
	res := baselines.LinearScanMST(mustDataset(tr), q, t1, t2, 1)
	if len(res) == 0 {
		return 0, false
	}
	return res[0].Dissim, true
}

func mustDataset(tr *trajectory.Trajectory) *trajectory.Dataset {
	d, err := trajectory.NewDataset([]trajectory.Trajectory{*tr})
	if err != nil {
		panic(err)
	}
	return d
}

func BenchmarkSearchRTree(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	data := makeDataset(rng, 100, 100)
	rt := buildRTree(b, data, 4096)
	q := queryFrom(rng, &data.Trajs[0], 20, 80)
	opts := Options{K: 1, Vmax: data.MaxSpeed() + 10, Data: data}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Search(rt, &q, 20, 80, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSearchTBTree(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	data := makeDataset(rng, 100, 100)
	tb := buildTBTree(b, data, 4096)
	q := queryFrom(rng, &data.Trajs[0], 20, 80)
	opts := Options{K: 1, Vmax: data.MaxSpeed() + 10, Data: data}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Search(tb, &q, 20, 80, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// The search must run identically on a bulk-loaded (STR-packed) R-tree —
// node geometry differs from the dynamically built tree but results may
// not.
func TestSearchOnBulkLoadedTree(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	data := makeDataset(rng, 40, 60)
	var entries []index.LeafEntry
	for i := range data.Trajs {
		tr := &data.Trajs[i]
		for s := 0; s < tr.NumSegments(); s++ {
			entries = append(entries, index.LeafEntry{TrajID: tr.ID, SeqNo: uint32(s), Seg: tr.Segment(s)})
		}
	}
	bulk, err := rtree.BulkLoad(storage.NewFile(1024), entries)
	if err != nil {
		t.Fatal(err)
	}
	vmax := data.MaxSpeed()
	for iter := 0; iter < 10; iter++ {
		src := &data.Trajs[rng.Intn(data.Len())]
		q := queryFrom(rng, src, 10, 50)
		want := baselines.LinearScanMST(data, &q, 10, 50, 3)
		got, stats, err := Search(bulk, &q, 10, 50, Options{K: 3, Vmax: vmax + q.MaxSpeed(), Data: data})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("iter %d: %d results, want %d", iter, len(got), len(want))
		}
		for i := range want {
			if got[i].TrajID != want[i].TrajID {
				t.Fatalf("iter %d rank %d: %d vs %d", iter, i, got[i].TrajID, want[i].TrajID)
			}
		}
		if stats.PruningPower <= 0 {
			t.Fatalf("iter %d: no pruning on bulk tree: %+v", iter, stats)
		}
	}
}
