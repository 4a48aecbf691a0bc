package strtree

import (
	"errors"
	"math/rand"
	"testing"

	"mstsearch/internal/geom"
	"mstsearch/internal/index"
	"mstsearch/internal/storage"
	"mstsearch/internal/trajectory"
)

func randTraj(rng *rand.Rand, id trajectory.ID, n int) trajectory.Trajectory {
	tr := trajectory.Trajectory{ID: id, Samples: make([]trajectory.Sample, n)}
	t := rng.Float64() * 10
	x, y := rng.Float64()*100, rng.Float64()*100
	for i := 0; i < n; i++ {
		tr.Samples[i] = trajectory.Sample{X: x, Y: y, T: t}
		t += 0.1 + rng.Float64()
		x += rng.NormFloat64() * 2
		y += rng.NormFloat64() * 2
	}
	return tr
}

func collectAll(t *testing.T, tr *Tree) []index.LeafEntry {
	t.Helper()
	if tr.Root() == storage.NilPage {
		return nil
	}
	var out []index.LeafEntry
	stack := []storage.PageID{tr.Root()}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n, err := tr.ReadNode(id)
		if err != nil {
			t.Fatal(err)
		}
		if n.Leaf {
			out = append(out, n.Leaves...)
			continue
		}
		for _, c := range n.Children {
			stack = append(stack, c.Page)
		}
	}
	return out
}

func TestInsertPreservesAllEntries(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := storage.NewFile(1024)
	tr := New(f)
	want := map[[2]uint32]bool{}
	const trajs, segs = 20, 60
	for i := 0; i < trajs; i++ {
		traj := randTraj(rng, trajectory.ID(i+1), segs+1)
		if err := tr.InsertTrajectory(&traj); err != nil {
			t.Fatal(err)
		}
		for s := 0; s < segs; s++ {
			want[[2]uint32{uint32(traj.ID), uint32(s)}] = true
		}
	}
	cnt, err := tr.CheckInvariants()
	if err != nil {
		t.Fatal(err)
	}
	if cnt != trajs*segs {
		t.Fatalf("entries = %d, want %d", cnt, trajs*segs)
	}
	for _, e := range collectAll(t, tr) {
		key := [2]uint32{uint32(e.TrajID), e.SeqNo}
		if !want[key] {
			t.Fatalf("unexpected or duplicate entry %+v", e)
		}
		delete(want, key)
	}
	if len(want) != 0 {
		t.Fatalf("%d entries missing", len(want))
	}
}

func TestInterleavedInsertion(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := storage.NewFile(1024)
	tr := New(f)
	trajs := make([]trajectory.Trajectory, 12)
	for i := range trajs {
		trajs[i] = randTraj(rng, trajectory.ID(i+1), 50)
	}
	for s := 0; s < 49; s++ {
		for i := range trajs {
			e := index.LeafEntry{TrajID: trajs[i].ID, SeqNo: uint32(s), Seg: trajs[i].Segment(s)}
			if err := tr.Insert(e); err != nil {
				t.Fatal(err)
			}
		}
	}
	cnt, err := tr.CheckInvariants()
	if err != nil {
		t.Fatal(err)
	}
	if cnt != 12*49 {
		t.Fatalf("entries = %d", cnt)
	}
}

// Trajectory preservation: consecutive segments of one trajectory should
// mostly share leaves, so the number of distinct (trajectory, leaf) pairs
// stays far below the segment count.
func TestTrajectoryClustering(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := storage.NewFile(1024)
	tr := New(f)
	const n = 10
	for i := 0; i < n; i++ {
		traj := randTraj(rng, trajectory.ID(i+1), 101)
		if err := tr.InsertTrajectory(&traj); err != nil {
			t.Fatal(err)
		}
	}
	// Count leaf changes per trajectory along seq order.
	type key struct {
		id trajectory.ID
		pg storage.PageID
	}
	pairs := map[key]bool{}
	stack := []storage.PageID{tr.Root()}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		node, err := tr.ReadNode(id)
		if err != nil {
			t.Fatal(err)
		}
		if node.Leaf {
			for _, e := range node.Leaves {
				pairs[key{e.TrajID, node.Page}] = true
			}
			continue
		}
		for _, c := range node.Children {
			stack = append(stack, c.Page)
		}
	}
	segsPerTraj := 100
	leafCap := index.MaxLeafEntries(1024) // 18
	minLeavesPerTraj := segsPerTraj / leafCap
	// Perfect bundling would give ~6 leaves/trajectory; allow 3× slack but
	// fail if segments scatter across tens of leaves (R-tree behaviour).
	if len(pairs) > n*minLeavesPerTraj*3 {
		t.Fatalf("poor trajectory clustering: %d (trajectory, leaf) pairs for %d trajectories",
			len(pairs), n)
	}
}

func TestOpenReadOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	f := storage.NewFile(1024)
	tr := New(f)
	traj := randTraj(rng, 1, 60)
	if err := tr.InsertTrajectory(&traj); err != nil {
		t.Fatal(err)
	}
	view := Open(storage.NewStripedPool(f, 4, 1), tr.Meta())
	if _, err := view.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := view.Insert(index.LeafEntry{}); !errors.Is(err, index.ErrReadOnly) {
		t.Fatalf("insert into reopened tree = %v", err)
	}
}

func TestEmptyTree(t *testing.T) {
	tr := New(storage.NewFile(1024))
	if cnt, err := tr.CheckInvariants(); err != nil || cnt != 0 {
		t.Fatalf("empty: %d, %v", cnt, err)
	}
	if tr.Root() != storage.NilPage {
		t.Fatal("empty tree must have no root")
	}
}

func TestQuadraticSplitMinFill(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for iter := 0; iter < 100; iter++ {
		n := 10 + rng.Intn(40)
		minFill := 1 + rng.Intn(n/3)
		boxes := make([]geom.MBB, n)
		for i := range boxes {
			x, y, tt := rng.Float64()*100, rng.Float64()*100, rng.Float64()*100
			boxes[i] = geom.MBB{MinX: x, MinY: y, MinT: tt, MaxX: x + 1, MaxY: y + 1, MaxT: tt + 1}
		}
		ga, gb := quadraticSplit(boxes, minFill)
		if len(ga)+len(gb) != n || len(ga) < minFill || len(gb) < minFill {
			t.Fatalf("bad split: %d/%d of %d (min %d)", len(ga), len(gb), n, minFill)
		}
	}
}

func TestGenericRangeSearchOnSTRTree(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := storage.NewFile(1024)
	tr := New(f)
	var all []index.LeafEntry
	for i := 0; i < 25; i++ {
		traj := randTraj(rng, trajectory.ID(i+1), 60)
		for s := 0; s < traj.NumSegments(); s++ {
			all = append(all, index.LeafEntry{TrajID: traj.ID, SeqNo: uint32(s), Seg: traj.Segment(s)})
		}
		if err := tr.InsertTrajectory(&traj); err != nil {
			t.Fatal(err)
		}
	}
	for q := 0; q < 30; q++ {
		box := geom.MBB{MinX: rng.Float64() * 90, MinY: rng.Float64() * 90, MinT: rng.Float64() * 30}
		box.MaxX = box.MinX + rng.Float64()*30
		box.MaxY = box.MinY + rng.Float64()*30
		box.MaxT = box.MinT + rng.Float64()*20
		got, err := index.RangeSearch(tr, box)
		if err != nil {
			t.Fatal(err)
		}
		want := 0
		for _, e := range all {
			if e.MBB().Intersects(box) {
				want++
			}
		}
		if len(got) != want {
			t.Fatalf("query %d: got %d, want %d", q, len(got), want)
		}
	}
}

var viewSink *Tree

// TestOpenAllocatesOnlyTheCore: a read view rejects inserts before it
// would touch the build state, so opening one builds the core alone.
func TestOpenAllocatesOnlyTheCore(t *testing.T) {
	f := storage.NewFile(1024)
	tr := New(f)
	traj := randTraj(rand.New(rand.NewSource(8)), 1, 60)
	if err := tr.InsertTrajectory(&traj); err != nil {
		t.Fatal(err)
	}
	m := tr.Meta()
	if n := testing.AllocsPerRun(100, func() { viewSink = Open(f, m) }); n != 1 {
		t.Fatalf("opening an STR-tree view costs %v allocations, want 1", n)
	}
}
