package rtree

import (
	"context"
	"math/rand"
	"sort"
	"testing"

	"mstsearch/internal/geom"
	"mstsearch/internal/index"
	"mstsearch/internal/storage"
	"mstsearch/internal/trajectory"
)

func randEntry(rng *rand.Rand, id int) index.LeafEntry {
	t0 := rng.Float64() * 1000
	x, y := rng.Float64()*100, rng.Float64()*100
	return index.LeafEntry{
		TrajID: trajectory.ID(id / 100),
		SeqNo:  uint32(id % 100),
		Seg: geom.Segment{
			A: geom.STPoint{X: x, Y: y, T: t0},
			B: geom.STPoint{X: x + rng.NormFloat64(), Y: y + rng.NormFloat64(), T: t0 + rng.Float64()},
		},
	}
}

func entryKey(e index.LeafEntry) [2]uint32 { return [2]uint32{uint32(e.TrajID), e.SeqNo} }

// collectAll traverses the tree and returns every leaf entry.
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

func TestInsertSmall(t *testing.T) {
	f := storage.NewFile(4096)
	tr := New(f)
	if tr.Root() != storage.NilPage || tr.Height() != 0 {
		t.Fatal("fresh tree must be empty")
	}
	rng := rand.New(rand.NewSource(1))
	e := randEntry(rng, 0)
	if err := tr.Insert(e); err != nil {
		t.Fatal(err)
	}
	if tr.Height() != 1 || tr.NumNodes() != 1 {
		t.Fatalf("height=%d nodes=%d", tr.Height(), tr.NumNodes())
	}
	got := collectAll(t, tr)
	if len(got) != 1 || got[0] != e {
		t.Fatalf("contents = %+v", got)
	}
	if _, err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertManyPreservesAllEntries(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := storage.NewFile(1024) // small pages force deep trees
	tr := New(f)
	const n = 3000
	want := map[[2]uint32]bool{}
	for i := 0; i < n; i++ {
		e := randEntry(rng, i)
		if err := tr.Insert(e); err != nil {
			t.Fatal(err)
		}
		want[entryKey(e)] = true
	}
	cnt, err := tr.CheckInvariants()
	if err != nil {
		t.Fatal(err)
	}
	if cnt != n {
		t.Fatalf("invariant count = %d, want %d", cnt, n)
	}
	got := collectAll(t, tr)
	if len(got) != n {
		t.Fatalf("traversal found %d entries, want %d", len(got), n)
	}
	for _, e := range got {
		if !want[entryKey(e)] {
			t.Fatalf("unexpected entry %+v", e)
		}
		delete(want, entryKey(e))
	}
	if len(want) != 0 {
		t.Fatalf("%d entries missing", len(want))
	}
	if tr.Height() < 3 {
		t.Fatalf("expected a deep tree with 1KB pages, height = %d", tr.Height())
	}
}

func TestRangeSearchMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := storage.NewFile(1024)
	tr := New(f)
	var all []index.LeafEntry
	for i := 0; i < 1500; i++ {
		e := randEntry(rng, i)
		all = append(all, e)
		if err := tr.Insert(e); err != nil {
			t.Fatal(err)
		}
	}
	for q := 0; q < 50; q++ {
		box := geom.MBB{
			MinX: rng.Float64() * 90, MinY: rng.Float64() * 90, MinT: rng.Float64() * 900,
		}
		box.MaxX = box.MinX + rng.Float64()*30
		box.MaxY = box.MinY + rng.Float64()*30
		box.MaxT = box.MinT + rng.Float64()*300
		got, err := index.RangeSearchContext(context.Background(), tr, box)
		if err != nil {
			t.Fatal(err)
		}
		var want []index.LeafEntry
		for _, e := range all {
			if e.MBB().Intersects(box) {
				want = append(want, e)
			}
		}
		sortEntries(got)
		sortEntries(want)
		if len(got) != len(want) {
			t.Fatalf("query %d: got %d entries, want %d", q, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("query %d: entry %d mismatch", q, i)
			}
		}
	}
}

func sortEntries(es []index.LeafEntry) {
	sort.Slice(es, func(i, j int) bool {
		if es[i].TrajID != es[j].TrajID {
			return es[i].TrajID < es[j].TrajID
		}
		return es[i].SeqNo < es[j].SeqNo
	})
}

func TestBulkLoadEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var all []index.LeafEntry
	for i := 0; i < 2000; i++ {
		all = append(all, randEntry(rng, i))
	}
	f := storage.NewFile(1024)
	entries := make([]index.LeafEntry, len(all))
	copy(entries, all)
	tr, err := BulkLoad(f, entries)
	if err != nil {
		t.Fatal(err)
	}
	cnt, err := tr.CheckInvariants()
	if err != nil {
		t.Fatal(err)
	}
	if cnt != len(all) {
		t.Fatalf("bulk tree has %d entries, want %d", cnt, len(all))
	}
	// Range query equivalence against brute force.
	for q := 0; q < 20; q++ {
		box := geom.MBB{MinX: rng.Float64() * 80, MinY: rng.Float64() * 80, MinT: rng.Float64() * 800}
		box.MaxX = box.MinX + 20
		box.MaxY = box.MinY + 20
		box.MaxT = box.MinT + 200
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
			t.Fatalf("bulk range query %d: %d vs %d", q, len(got), want)
		}
	}
	// Bulk-loaded trees are denser than dynamically built ones.
	f2 := storage.NewFile(1024)
	dyn := New(f2)
	for _, e := range all {
		if err := dyn.Insert(e); err != nil {
			t.Fatal(err)
		}
	}
	if tr.NumNodes() >= dyn.NumNodes() {
		t.Fatalf("bulk tree (%d nodes) should be denser than dynamic (%d nodes)",
			tr.NumNodes(), dyn.NumNodes())
	}
}

func TestBulkLoadEmptyAndTiny(t *testing.T) {
	f := storage.NewFile(1024)
	tr, err := BulkLoad(f, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Root() != storage.NilPage || tr.NumNodes() != 0 {
		t.Fatal("empty bulk load must produce empty tree")
	}
	rng := rand.New(rand.NewSource(5))
	tr2, err := BulkLoad(storage.NewFile(1024), []index.LeafEntry{randEntry(rng, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if tr2.Height() != 1 || tr2.NumNodes() != 1 {
		t.Fatalf("single-entry bulk tree: height=%d nodes=%d", tr2.Height(), tr2.NumNodes())
	}
	if _, err := tr2.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestOpenWithBufferPool(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	f := storage.NewFile(1024)
	tr := New(f)
	for i := 0; i < 500; i++ {
		if err := tr.Insert(randEntry(rng, i)); err != nil {
			t.Fatal(err)
		}
	}
	bp := storage.NewStripedPool(f, 8, 1)
	view := Open(bp, tr.Meta())
	if view.Height() != tr.Height() || view.NumNodes() != tr.NumNodes() {
		t.Fatal("reopened metadata mismatch")
	}
	cnt, err := view.CheckInvariants()
	if err != nil {
		t.Fatal(err)
	}
	if cnt != 500 {
		t.Fatalf("reopened view sees %d entries", cnt)
	}
	if s := bp.Stats(); s.Misses == 0 {
		t.Fatalf("buffered traversal should miss on first touch: %+v", s)
	}
	// A repeated root read must be served from the buffer.
	for i := 0; i < 2; i++ {
		if _, err := view.ReadNode(view.Root()); err != nil {
			t.Fatal(err)
		}
	}
	if s := bp.Stats(); s.Hits == 0 {
		t.Fatalf("repeated root read should hit the buffer: %+v", s)
	}
}

func TestRootMBBCoversEverything(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := storage.NewFile(1024)
	tr := New(f)
	want := geom.EmptyMBB()
	for i := 0; i < 800; i++ {
		e := randEntry(rng, i)
		want = want.Expand(e.MBB())
		if err := tr.Insert(e); err != nil {
			t.Fatal(err)
		}
	}
	root, err := tr.ReadNode(tr.Root())
	if err != nil {
		t.Fatal(err)
	}
	got := root.MBB()
	if !got.Contains(want) || !want.Contains(got) {
		t.Fatalf("root MBB %+v, want %+v", got, want)
	}
}

func TestQuadraticSplitProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for iter := 0; iter < 200; iter++ {
		n := 10 + rng.Intn(60)
		minFill := 1 + rng.Intn(n/3)
		boxes := make([]geom.MBB, n)
		for i := range boxes {
			x, y, tt := rng.Float64()*100, rng.Float64()*100, rng.Float64()*100
			boxes[i] = geom.MBB{MinX: x, MinY: y, MinT: tt, MaxX: x + 1, MaxY: y + 1, MaxT: tt + 1}
		}
		ga, gb := quadraticSplit(boxes, minFill)
		if len(ga)+len(gb) != n {
			t.Fatalf("split lost entries: %d + %d != %d", len(ga), len(gb), n)
		}
		if len(ga) < minFill || len(gb) < minFill {
			t.Fatalf("split violates min fill %d: %d/%d", minFill, len(ga), len(gb))
		}
		seen := map[int]bool{}
		for _, i := range append(append([]int{}, ga...), gb...) {
			if seen[i] {
				t.Fatalf("index %d assigned twice", i)
			}
			seen[i] = true
		}
	}
}

func BenchmarkInsert(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	f := storage.NewFile(4096)
	tr := New(f)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tr.Insert(randEntry(rng, i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBulkLoad10k(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	entries := make([]index.LeafEntry, 10000)
	for i := range entries {
		entries[i] = randEntry(rng, i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cp := make([]index.LeafEntry, len(entries))
		copy(cp, entries)
		if _, err := BulkLoad(storage.NewFile(4096), cp); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationBulkVsDynamic compares the two 3D R-tree construction
// paths on trajectory-shaped data: Guttman dynamic insertion (what a live
// MOD does, and what the experiments use) versus STR bulk loading (what a
// warehouse rebuild would do), reporting the node-count difference that
// drives query I/O.
func BenchmarkAblationBulkVsDynamic(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var entries []index.LeafEntry
	for id := 1; id <= 50; id++ {
		x, y := rng.Float64()*100, rng.Float64()*100
		for s := 0; s < 300; s++ {
			a := geom.STPoint{X: x, Y: y, T: float64(s)}
			x += rng.NormFloat64()
			y += rng.NormFloat64()
			entries = append(entries, index.LeafEntry{
				TrajID: trajectory.ID(id), SeqNo: uint32(s),
				Seg: geom.Segment{A: a, B: geom.STPoint{X: x, Y: y, T: float64(s + 1)}},
			})
		}
	}
	b.Run("dynamic", func(b *testing.B) {
		var nodes int
		for i := 0; i < b.N; i++ {
			t := New(storage.NewFile(storage.DefaultPageSize))
			for _, e := range entries {
				if err := t.Insert(e); err != nil {
					b.Fatal(err)
				}
			}
			nodes = t.NumNodes()
		}
		b.ReportMetric(float64(nodes), "nodes")
	})
	b.Run("bulkSTR", func(b *testing.B) {
		var nodes int
		for i := 0; i < b.N; i++ {
			cp := make([]index.LeafEntry, len(entries))
			copy(cp, entries)
			t, err := BulkLoad(storage.NewFile(storage.DefaultPageSize), cp)
			if err != nil {
				b.Fatal(err)
			}
			nodes = t.NumNodes()
		}
		b.ReportMetric(float64(nodes), "nodes")
	})
}

func TestRStarSplitProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for iter := 0; iter < 200; iter++ {
		n := 10 + rng.Intn(60)
		minFill := 1 + rng.Intn(n/3)
		boxes := make([]geom.MBB, n)
		for i := range boxes {
			x, y, tt := rng.Float64()*100, rng.Float64()*100, rng.Float64()*100
			boxes[i] = geom.MBB{MinX: x, MinY: y, MinT: tt, MaxX: x + 1, MaxY: y + 1, MaxT: tt + 1}
		}
		ga, gb := rstarSplit(boxes, minFill)
		if len(ga)+len(gb) != n {
			t.Fatalf("split lost entries: %d + %d != %d", len(ga), len(gb), n)
		}
		if len(ga) < minFill || len(gb) < minFill {
			t.Fatalf("split violates min fill %d: %d/%d", minFill, len(ga), len(gb))
		}
		seen := map[int]bool{}
		for _, i := range append(append([]int{}, ga...), gb...) {
			if seen[i] {
				t.Fatalf("index %d assigned twice", i)
			}
			seen[i] = true
		}
	}
}

func TestRStarTreeInvariantsAndEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	var all []index.LeafEntry
	for i := 0; i < 2000; i++ {
		all = append(all, randEntry(rng, i))
	}
	rstar := New(storage.NewFile(1024))
	rstar.SetSplitAlgorithm(RStar)
	quad := New(storage.NewFile(1024))
	for _, e := range all {
		if err := rstar.Insert(e); err != nil {
			t.Fatal(err)
		}
		if err := quad.Insert(e); err != nil {
			t.Fatal(err)
		}
	}
	cnt, err := rstar.CheckInvariants()
	if err != nil {
		t.Fatal(err)
	}
	if cnt != len(all) {
		t.Fatalf("R* tree holds %d entries, want %d", cnt, len(all))
	}
	// Identical range-query answers.
	for q := 0; q < 25; q++ {
		box := geom.MBB{MinX: rng.Float64() * 80, MinY: rng.Float64() * 80, MinT: rng.Float64() * 800}
		box.MaxX = box.MinX + 25
		box.MaxY = box.MinY + 25
		box.MaxT = box.MinT + 250
		a, err := index.RangeSearchContext(context.Background(), rstar, box)
		if err != nil {
			t.Fatal(err)
		}
		b, err := index.RangeSearchContext(context.Background(), quad, box)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("query %d: R* returned %d, quadratic %d", q, len(a), len(b))
		}
	}
}
