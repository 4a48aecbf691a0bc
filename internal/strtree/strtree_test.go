package strtree

import (
	"bytes"
	"context"
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

// TestReopenThenInsert reopens a tree with Open part-way through an
// interleaved build and requires the rest of the build to write exactly
// the pages of a tree that was never reopened: the first Insert after Open
// must recover the tail table, the tail SeqNos and the parent pointers the
// uninterrupted build kept in memory.
func TestReopenThenInsert(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var trajs []trajectory.Trajectory
	for id := 1; id <= 6; id++ {
		trajs = append(trajs, randTraj(rng, trajectory.ID(id), 50))
	}
	// Round-robin segments, as live position updates arrive.
	var entries []index.LeafEntry
	for s := 0; s < 49; s++ {
		for i := range trajs {
			entries = append(entries, index.LeafEntry{TrajID: trajs[i].ID, SeqNo: uint32(s), Seg: trajs[i].Segment(s)})
		}
	}

	twinFile := storage.NewFile(1024) // leaf fan-out 18
	twin := New(twinFile)
	halfFull, split := -1, -1
	for i, e := range entries {
		if tail, ok := twin.tail[e.TrajID]; ok && halfFull < 0 {
			if n, err := twin.ReadNode(tail); err == nil && len(n.Leaves) == twin.MaxLeaf/2 {
				halfFull = i
			}
		}
		nodes := twin.NumNodes()
		if err := twin.Insert(e); err != nil {
			t.Fatal(err)
		}
		if split < 0 && i > 0 && twin.NumNodes() > nodes {
			split = i + 1
		}
	}
	if halfFull < 0 || split < 0 {
		t.Fatalf("the build never reached a reopen point: half-full %d, split %d", halfFull, split)
	}

	for _, c := range []struct {
		name   string
		reopen func(i int) bool // reopen before inserting entries[i]
	}{
		{"empty tree", func(i int) bool { return i == 0 }},
		{"half-full tail leaf", func(i int) bool { return i == halfFull }},
		{"just after a time split", func(i int) bool { return i == split }},
		{"before every insert", func(int) bool { return true }},
	} {
		t.Run(c.name, func(t *testing.T) {
			f := storage.NewFile(1024)
			tr := New(f)
			for i, e := range entries {
				if c.reopen(i) {
					tr = Open(f, tr.Meta())
				}
				if err := tr.Insert(e); err != nil {
					t.Fatalf("insert %d: %v", i, err)
				}
			}
			if tr.Meta() != twin.Meta() {
				t.Fatalf("meta %+v, never-reopened twin %+v", tr.Meta(), twin.Meta())
			}
			if f.NumPages() != twinFile.NumPages() {
				t.Fatalf("%d pages, twin %d", f.NumPages(), twinFile.NumPages())
			}
			for id := storage.PageID(0); int(id) < f.NumPages(); id++ {
				a, errA := f.Read(id)
				b, errB := twinFile.Read(id)
				if errA != nil || errB != nil || !bytes.Equal(a, b) {
					t.Fatalf("page %d differs from the never-reopened twin (%v, %v)", id, errA, errB)
				}
			}
			if _, err := tr.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
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
		got, err := index.RangeSearchContext(context.Background(), tr, box)
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

// TestOpenAllocatesOnlyTheCore: Open leaves the build state to the first
// Insert, so opening a per-query read view builds the core alone.
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
