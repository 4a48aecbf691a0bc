package index

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"testing"

	"mstsearch/internal/geom"
	"mstsearch/internal/storage"
	"mstsearch/internal/trajectory"
)

// memTree is a minimal in-memory Tree used to test the generic queries
// without depending on the concrete tree packages (which live above this
// one in the import graph).
type memTree struct {
	nodes map[storage.PageID]*Node
	root  storage.PageID
	h     int
}

func (m *memTree) Root() storage.PageID                      { return m.root }
func (m *memTree) ReadNode(id storage.PageID) (*Node, error) { return m.nodes[id], nil }
func (m *memTree) Height() int                               { return m.h }
func (m *memTree) NumNodes() int                             { return len(m.nodes) }

// buildMemTree packs entries into leaves of the given size under one root.
func buildMemTree(entries []LeafEntry, leafSize int) *memTree {
	m := &memTree{nodes: map[storage.PageID]*Node{}}
	var next storage.PageID
	root := &Node{Page: next}
	next++
	for lo := 0; lo < len(entries); lo += leafSize {
		hi := lo + leafSize
		if hi > len(entries) {
			hi = len(entries)
		}
		leaf := &Node{Page: next, Leaf: true, PrevLeaf: storage.NilPage, NextLeaf: storage.NilPage}
		next++
		leaf.Leaves = append(leaf.Leaves, entries[lo:hi]...)
		m.nodes[leaf.Page] = leaf
		root.Children = append(root.Children, ChildEntry{MBB: leaf.MBB(), Page: leaf.Page})
	}
	m.nodes[root.Page] = root
	m.root = root.Page
	m.h = 2
	return m
}

func randEntries(rng *rand.Rand, n int) []LeafEntry {
	out := make([]LeafEntry, n)
	for i := range out {
		t0 := rng.Float64() * 100
		x, y := rng.Float64()*100, rng.Float64()*100
		out[i] = LeafEntry{
			TrajID: trajectory.ID(i/10 + 1),
			SeqNo:  uint32(i % 10),
			Seg: geom.Segment{
				A: geom.STPoint{X: x, Y: y, T: t0},
				B: geom.STPoint{X: x + rng.NormFloat64(), Y: y + rng.NormFloat64(), T: t0 + 1 + rng.Float64()},
			},
		}
	}
	return out
}

func TestGenericRangeSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	entries := randEntries(rng, 500)
	tree := buildMemTree(entries, 16)
	for q := 0; q < 40; q++ {
		box := geom.MBB{MinX: rng.Float64() * 80, MinY: rng.Float64() * 80, MinT: rng.Float64() * 80}
		box.MaxX = box.MinX + 25
		box.MaxY = box.MinY + 25
		box.MaxT = box.MinT + 25
		got, err := RangeSearchContext(context.Background(), tree, box)
		if err != nil {
			t.Fatal(err)
		}
		want := 0
		for _, e := range entries {
			if e.MBB().Intersects(box) {
				want++
			}
		}
		if len(got) != want {
			t.Fatalf("query %d: got %d, want %d", q, len(got), want)
		}
	}
}

func TestGenericRangeSearchEmpty(t *testing.T) {
	m := &memTree{nodes: map[storage.PageID]*Node{}, root: storage.NilPage}
	got, err := RangeSearchContext(context.Background(), m, geom.MBB{MaxX: 1, MaxY: 1, MaxT: 1})
	if err != nil || got != nil {
		t.Fatalf("empty tree range: %v, %v", got, err)
	}
}

func TestNearestAtMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	entries := randEntries(rng, 600)
	tree := buildMemTree(entries, 16)
	for q := 0; q < 40; q++ {
		p := geom.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}
		tt := rng.Float64() * 100
		k := 1 + rng.Intn(4)
		got, err := NearestAtContext(context.Background(), tree, p, tt, k)
		if err != nil {
			t.Fatal(err)
		}
		// Brute force: best distance per object among segments alive at tt.
		best := map[trajectory.ID]float64{}
		for _, e := range entries {
			if tt < e.Seg.A.T || tt > e.Seg.B.T {
				continue
			}
			d := e.Seg.At(tt).Spatial().Dist(p)
			if cur, ok := best[e.TrajID]; !ok || d < cur {
				best[e.TrajID] = d
			}
		}
		type pair struct {
			id trajectory.ID
			d  float64
		}
		var want []pair
		for id, d := range best {
			want = append(want, pair{id, d})
		}
		sort.Slice(want, func(i, j int) bool {
			if want[i].d != want[j].d {
				return want[i].d < want[j].d
			}
			return want[i].id < want[j].id
		})
		if len(want) > k {
			want = want[:k]
		}
		if len(got) != len(want) {
			t.Fatalf("query %d: got %d results, want %d", q, len(got), len(want))
		}
		for i := range want {
			if got[i].TrajID != want[i].id || math.Abs(got[i].Dist-want[i].d) > 1e-9 {
				t.Fatalf("query %d rank %d: got %+v, want %+v", q, i, got[i], want[i])
			}
		}
	}
}

func TestNearestAtNoObjectAlive(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	entries := randEntries(rng, 50)
	tree := buildMemTree(entries, 16)
	got, err := NearestAtContext(context.Background(), tree, geom.Point{}, 1e9, 2)
	if err != nil || len(got) != 0 {
		t.Fatalf("no-alive query: %v, %v", got, err)
	}
}
