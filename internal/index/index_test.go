package index

import (
	"math"
	"math/rand"
	"testing"

	"mstsearch/internal/geom"
	"mstsearch/internal/storage"
	"mstsearch/internal/trajectory"
)

func TestFanouts(t *testing.T) {
	// 4 KB pages: (4096-12)/56 = 72 leaf entries, (4096-12)/52 = 78 children.
	if got := MaxLeafEntries(4096); got != 72 {
		t.Fatalf("leaf fanout = %d", got)
	}
	if got := MaxChildEntries(4096); got != 78 {
		t.Fatalf("child fanout = %d", got)
	}
	if MaxLeafEntries(1024) < 10 || MaxChildEntries(1024) < 10 {
		t.Fatal("1 KB pages should still hold a useful fanout")
	}
}

func randLeafEntry(rng *rand.Rand) LeafEntry {
	t0 := rng.Float64() * 100
	return LeafEntry{
		TrajID: trajectory.ID(rng.Intn(1000)),
		SeqNo:  uint32(rng.Intn(10000)),
		Seg: geom.Segment{
			A: geom.STPoint{X: rng.NormFloat64() * 10, Y: rng.NormFloat64() * 10, T: t0},
			B: geom.STPoint{X: rng.NormFloat64() * 10, Y: rng.NormFloat64() * 10, T: t0 + rng.Float64()},
		},
	}
}

func TestNodeCodecRoundTripLeaf(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := &Node{Page: 7, Leaf: true, PrevLeaf: 3, NextLeaf: 9}
	for i := 0; i < MaxLeafEntries(4096); i++ {
		n.Leaves = append(n.Leaves, randLeafEntry(rng))
	}
	buf, err := EncodeNode(n, 4096)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeNode(7, buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Leaf || got.PrevLeaf != 3 || got.NextLeaf != 9 || got.Page != 7 {
		t.Fatalf("header mismatch: %+v", got)
	}
	if len(got.Leaves) != len(n.Leaves) {
		t.Fatalf("entry count %d vs %d", len(got.Leaves), len(n.Leaves))
	}
	for i := range n.Leaves {
		if got.Leaves[i] != n.Leaves[i] {
			t.Fatalf("entry %d mismatch: %+v vs %+v", i, got.Leaves[i], n.Leaves[i])
		}
	}
}

func TestNodeCodecRoundTripInternal(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := &Node{Page: 1, Leaf: false, PrevLeaf: storage.NilPage, NextLeaf: storage.NilPage}
	for i := 0; i < MaxChildEntries(4096); i++ {
		e := randLeafEntry(rng)
		n.Children = append(n.Children, ChildEntry{MBB: e.MBB(), Page: storage.PageID(i)})
	}
	buf, err := EncodeNode(n, 4096)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeNode(1, buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Leaf || got.PrevLeaf != storage.NilPage {
		t.Fatalf("header mismatch: %+v", got)
	}
	for i := range n.Children {
		if got.Children[i] != n.Children[i] {
			t.Fatalf("child %d mismatch", i)
		}
	}
}

func TestEncodeNodeOverflow(t *testing.T) {
	n := &Node{Leaf: true}
	for i := 0; i <= MaxLeafEntries(1024); i++ {
		n.Leaves = append(n.Leaves, LeafEntry{})
	}
	if _, err := EncodeNode(n, 1024); err == nil {
		t.Fatal("overflowing leaf must fail to encode")
	}
	m := &Node{}
	for i := 0; i <= MaxChildEntries(1024); i++ {
		m.Children = append(m.Children, ChildEntry{})
	}
	if _, err := EncodeNode(m, 1024); err == nil {
		t.Fatal("overflowing internal node must fail to encode")
	}
}

func TestDecodeNodeCorrupt(t *testing.T) {
	if _, err := DecodeNode(0, make([]byte, 4)); err == nil {
		t.Fatal("short page must fail")
	}
	// Count larger than the page can hold.
	buf := make([]byte, 64)
	buf[0] = 1
	buf[1] = 0xFF
	buf[2] = 0xFF
	if _, err := DecodeNode(0, buf); err == nil {
		t.Fatal("oversized count must fail")
	}
}

func TestWriteReadNodeThroughPager(t *testing.T) {
	f := storage.NewFile(4096)
	id, _ := f.Alloc()
	rng := rand.New(rand.NewSource(3))
	n := &Node{Page: id, Leaf: true, PrevLeaf: storage.NilPage, NextLeaf: storage.NilPage}
	n.Leaves = append(n.Leaves, randLeafEntry(rng), randLeafEntry(rng))
	if err := WriteNode(f, n); err != nil {
		t.Fatal(err)
	}
	got, err := ReadNode(f, id)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Leaves) != 2 || got.Leaves[0] != n.Leaves[0] {
		t.Fatalf("round trip through pager failed: %+v", got)
	}
}

func TestNodeMBB(t *testing.T) {
	n := &Node{Leaf: true}
	n.Leaves = append(n.Leaves,
		LeafEntry{Seg: geom.Segment{A: geom.STPoint{X: 0, Y: 0, T: 0}, B: geom.STPoint{X: 2, Y: 2, T: 1}}},
		LeafEntry{Seg: geom.Segment{A: geom.STPoint{X: -1, Y: 5, T: 2}, B: geom.STPoint{X: 0, Y: 6, T: 3}}},
	)
	b := n.MBB()
	want := geom.MBB{MinX: -1, MinY: 0, MinT: 0, MaxX: 2, MaxY: 6, MaxT: 3}
	if b != want {
		t.Fatalf("node MBB = %+v, want %+v", b, want)
	}
	in := &Node{Children: []ChildEntry{{MBB: want, Page: 1}}}
	if in.MBB() != want {
		t.Fatal("internal MBB mismatch")
	}
	if n.Len() != 2 || in.Len() != 1 {
		t.Fatal("Len mismatch")
	}
}

func mkTraj(samples ...[3]float64) trajectory.Trajectory {
	tr := trajectory.Trajectory{ID: 1}
	for _, s := range samples {
		tr.Samples = append(tr.Samples, trajectory.Sample{X: s[0], Y: s[1], T: s[2]})
	}
	return tr
}

func TestMinDistTrajMBB(t *testing.T) {
	q := mkTraj([3]float64{0, 0, 0}, [3]float64{10, 0, 10})
	box := geom.MBB{MinX: 3, MinY: 5, MinT: 2, MaxX: 6, MaxY: 8, MaxT: 8}
	d, ok := MinDistTrajMBB(&q, box, 0, 10)
	if !ok || math.Abs(d-5) > 1e-12 {
		t.Fatalf("d=%v ok=%v, want 5", d, ok)
	}
	// Restricting the window changes nothing here (same spatial course).
	d, _ = MinDistTrajMBB(&q, box, 2, 8)
	if math.Abs(d-5) > 1e-12 {
		t.Fatalf("restricted window d=%v", d)
	}
	// No temporal overlap with the window.
	if _, ok := MinDistTrajMBB(&q, box, 20, 30); ok {
		t.Fatal("window beyond both must report ok=false")
	}
	// Box after the query's lifetime.
	late := geom.MBB{MinX: 0, MinY: 0, MinT: 50, MaxX: 1, MaxY: 1, MaxT: 60}
	if _, ok := MinDistTrajMBB(&q, late, 0, 100); ok {
		t.Fatal("box after query lifetime must report ok=false")
	}
	// Query passes through the box → 0.
	through := geom.MBB{MinX: 4, MinY: -1, MinT: 0, MaxX: 6, MaxY: 1, MaxT: 10}
	d, ok = MinDistTrajMBB(&q, through, 0, 10)
	if !ok || d != 0 {
		t.Fatalf("through-box d=%v ok=%v", d, ok)
	}
	// A single instant between two samples is a zero-duration clip of the
	// segment around it.
	d, ok = MinDistTrajMBB(&q, box, 4.5, 4.5)
	if !ok || math.Abs(d-5) > 1e-12 {
		t.Fatalf("instant window d=%v ok=%v, want 5", d, ok)
	}
	// A query of one sample has no segment: the distance is the point's.
	one := mkTraj([3]float64{0, 1, 4})
	d, ok = MinDistTrajMBB(&one, box, 0, 10)
	if !ok || math.Abs(d-5) > 1e-12 {
		t.Fatalf("one-sample query d=%v ok=%v, want 5", d, ok)
	}
}

// MINDIST must lower-bound the distance from the query to every segment a
// node could contain — verified against points sampled inside the box's
// spatiotemporal extent.
func TestMinDistTrajMBBLowerBound(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for iter := 0; iter < 300; iter++ {
		var q trajectory.Trajectory
		q.ID = 1
		tt := 0.0
		x, y := rng.Float64()*50, rng.Float64()*50
		for i := 0; i < 8; i++ {
			q.Samples = append(q.Samples, trajectory.Sample{X: x, Y: y, T: tt})
			tt += 0.5 + rng.Float64()
			x += rng.NormFloat64() * 5
			y += rng.NormFloat64() * 5
		}
		box := geom.MBB{
			MinX: rng.Float64() * 50, MinY: rng.Float64() * 50, MinT: rng.Float64() * 3,
		}
		box.MaxX = box.MinX + rng.Float64()*20
		box.MaxY = box.MinY + rng.Float64()*20
		box.MaxT = box.MinT + rng.Float64()*4
		d, ok := MinDistTrajMBB(&q, box, q.StartTime(), q.EndTime())
		if !ok {
			continue
		}
		// Sample spatial points inside the box at times inside the overlap.
		lo := math.Max(box.MinT, q.StartTime())
		hi := math.Min(box.MaxT, q.EndTime())
		for i := 0; i < 200; i++ {
			ts := lo + rng.Float64()*(hi-lo)
			p := geom.Point{
				X: box.MinX + rng.Float64()*(box.MaxX-box.MinX),
				Y: box.MinY + rng.Float64()*(box.MaxY-box.MinY),
			}
			if got := q.At(ts).Spatial().Dist(p); got < d-1e-9 {
				t.Fatalf("iter %d: point %v at t=%v is %v from query, below MINDIST %v",
					iter, p, ts, got, d)
			}
		}
	}
}
