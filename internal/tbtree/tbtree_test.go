package tbtree

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

func TestInsertSingleTrajectory(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := storage.NewFile(1024) // leaf fanout (1024-12)/56 = 18
	tr := New(f)
	traj := randTraj(rng, 7, 100)
	if err := tr.InsertTrajectory(&traj); err != nil {
		t.Fatal(err)
	}
	cnt, err := tr.CheckInvariants()
	if err != nil {
		t.Fatal(err)
	}
	if cnt != 99 {
		t.Fatalf("entries = %d, want 99", cnt)
	}
	// Chain reconstruction returns all segments in order.
	tail, ok := tr.TailLeaf(7)
	if !ok {
		t.Fatal("tail leaf missing")
	}
	chain, err := tr.WalkChain(tail)
	if err != nil {
		t.Fatal(err)
	}
	var seq []uint32
	for _, id := range chain {
		n, err := tr.ReadNode(id)
		if err != nil {
			t.Fatal(err)
		}
		if !n.Leaf {
			t.Fatal("chain must contain only leaves")
		}
		for _, e := range n.Leaves {
			seq = append(seq, e.SeqNo)
		}
	}
	if len(seq) != 99 {
		t.Fatalf("chain yields %d segments", len(seq))
	}
	for i, s := range seq {
		if s != uint32(i) {
			t.Fatalf("chain out of order at %d: %d", i, s)
		}
	}
}

func TestInterleavedTrajectories(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := storage.NewFile(1024)
	tr := New(f)
	trajs := make([]trajectory.Trajectory, 10)
	for i := range trajs {
		trajs[i] = randTraj(rng, trajectory.ID(i+1), 80)
	}
	// Interleave insertion round-robin, as positions would arrive live.
	for s := 0; s < 79; s++ {
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
	if cnt != 790 {
		t.Fatalf("entries = %d, want 790", cnt)
	}
	// Every chain must reconstruct its trajectory completely and in order.
	for i := range trajs {
		tail, ok := tr.TailLeaf(trajs[i].ID)
		if !ok {
			t.Fatalf("trajectory %d has no tail", trajs[i].ID)
		}
		chain, err := tr.WalkChain(tail)
		if err != nil {
			t.Fatal(err)
		}
		var n int
		for _, id := range chain {
			node, err := tr.ReadNode(id)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range node.Leaves {
				if e.TrajID != trajs[i].ID {
					t.Fatalf("chain of %d contains segment of %d", trajs[i].ID, e.TrajID)
				}
				if e.SeqNo != uint32(n) {
					t.Fatalf("chain of %d out of order: %d at %d", trajs[i].ID, e.SeqNo, n)
				}
				n++
			}
		}
		if n != 79 {
			t.Fatalf("chain of %d yields %d segments", trajs[i].ID, n)
		}
	}
}

func TestLeavesAreSingleTrajectory(t *testing.T) {
	// Implicitly covered by CheckInvariants; verify explicitly on a larger
	// interleaved build with tiny pages.
	rng := rand.New(rand.NewSource(3))
	f := storage.NewFile(512)
	tr := New(f)
	for i := 0; i < 30; i++ {
		traj := randTraj(rng, trajectory.ID(i+1), 40)
		if err := tr.InsertTrajectory(&traj); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	all := collectAll(t, tr)
	if len(all) != 30*39 {
		t.Fatalf("total entries = %d", len(all))
	}
}

func TestRangeSearchMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
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

// TestReopenThenInsert reopens a tree with Open part-way through an
// interleaved build and requires the rest of the build to write exactly
// the pages of a tree that was never reopened: the first Insert after Open
// must recover the tail table and the parent pointers the uninterrupted
// build kept in memory.
func TestReopenThenInsert(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var trajs []trajectory.Trajectory
	for id := 1; id <= 6; id++ {
		trajs = append(trajs, randTraj(rng, trajectory.ID(id), 60))
	}
	// Round-robin segments, as live position updates arrive.
	var entries []index.LeafEntry
	for s := 0; s < 59; s++ {
		for i := range trajs {
			entries = append(entries, index.LeafEntry{TrajID: trajs[i].ID, SeqNo: uint32(s), Seg: trajs[i].Segment(s)})
		}
	}

	twinFile := storage.NewFile(1024) // leaf fan-out 18
	twin := New(twinFile)
	halfFull, chained := -1, -1
	for i, e := range entries {
		if tail, ok := twin.TailLeaf(e.TrajID); ok && halfFull < 0 {
			if n, err := twin.ReadNode(tail); err == nil && len(n.Leaves) == twin.MaxLeaf/2 {
				halfFull = i
			}
		}
		nodes := twin.NumNodes()
		if err := twin.Insert(e); err != nil {
			t.Fatal(err)
		}
		if chained < 0 && e.SeqNo > 0 && twin.NumNodes() > nodes {
			chained = i + 1
		}
	}
	if halfFull < 0 || chained < 0 {
		t.Fatalf("the build never reached a reopen point: half-full %d, chained %d", halfFull, chained)
	}

	for _, c := range []struct {
		name   string
		reopen func(i int) bool // reopen before inserting entries[i]
	}{
		{"empty tree", func(i int) bool { return i == 0 }},
		{"half-full tail leaf", func(i int) bool { return i == halfFull }},
		{"just after a chained leaf", func(i int) bool { return i == chained }},
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

func TestTBTreeDenserThanRTreeFill(t *testing.T) {
	// Append-only bundling should pack leaves essentially full for long
	// trajectories: node count ≈ segments / leaf fanout (+ internals).
	rng := rand.New(rand.NewSource(6))
	f := storage.NewFile(1024)
	tr := New(f)
	const trajLen = 200
	for i := 0; i < 10; i++ {
		traj := randTraj(rng, trajectory.ID(i+1), trajLen+1)
		if err := tr.InsertTrajectory(&traj); err != nil {
			t.Fatal(err)
		}
	}
	leafCap := index.MaxLeafEntries(1024)
	minLeaves := 10 * trajLen / leafCap
	if tr.NumNodes() > minLeaves+minLeaves/2+10 {
		t.Fatalf("TB-tree too sparse: %d nodes for ≥%d full leaves", tr.NumNodes(), minLeaves)
	}
}

func TestEmptyTree(t *testing.T) {
	f := storage.NewFile(1024)
	tr := New(f)
	if cnt, err := tr.CheckInvariants(); err != nil || cnt != 0 {
		t.Fatalf("empty invariants: %d, %v", cnt, err)
	}
	got, err := index.RangeSearchContext(context.Background(), tr, geom.MBB{MaxX: 1, MaxY: 1, MaxT: 1})
	if err != nil || got != nil {
		t.Fatalf("empty range search: %v, %v", got, err)
	}
	if tr.Root() != storage.NilPage {
		t.Fatal("empty tree must have no root")
	}
}

func BenchmarkInsertTrajectory(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	f := storage.NewFile(4096)
	tr := New(f)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		traj := randTraj(rng, trajectory.ID(i+1), 100)
		if err := tr.InsertTrajectory(&traj); err != nil {
			b.Fatal(err)
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
		t.Fatalf("opening a TB-tree view costs %v allocations, want 1", n)
	}
}
