package rtree

import (
	"math"
	"sort"

	"mstsearch/internal/index"
	"mstsearch/internal/storage"
)

// BulkLoad builds a tree from all entries at once using Sort-Tile-Recursive
// packing on the 3D box centers (x slabs → y runs → t order). Leaves are
// filled near-uniformly so every node respects the minimum occupancy, and
// upper levels are packed from the spatially ordered child sequence. The
// entries slice is reordered in place.
func BulkLoad(pager storage.Pager, entries []index.LeafEntry) (*Tree, error) {
	t := New(pager)
	if len(entries) == 0 {
		return t, nil
	}
	strSort(entries, t.MaxLeaf)

	// Pack leaves.
	level := make([]index.ChildEntry, 0, len(entries)/t.MaxLeaf+1)
	for _, chunk := range evenChunks(len(entries), t.MaxLeaf) {
		n, err := t.AllocNode(true)
		if err != nil {
			return nil, err
		}
		n.Leaves = append(n.Leaves, entries[chunk[0]:chunk[1]]...)
		if err := t.WriteNode(n); err != nil {
			return nil, err
		}
		level = append(level, index.ChildEntry{MBB: n.MBB(), Page: n.Page})
	}
	height := 1

	// Pack upper levels until a single node remains.
	for len(level) > 1 {
		next := make([]index.ChildEntry, 0, len(level)/t.MaxChild+1)
		for _, chunk := range evenChunks(len(level), t.MaxChild) {
			n, err := t.AllocNode(false)
			if err != nil {
				return nil, err
			}
			n.Children = append(n.Children, level[chunk[0]:chunk[1]]...)
			if err := t.WriteNode(n); err != nil {
				return nil, err
			}
			next = append(next, index.ChildEntry{MBB: n.MBB(), Page: n.Page})
		}
		level = next
		height++
	}
	t.SetRoot(level[0].Page, height)
	return t, nil
}

// strSort orders entries by STR tiling: slabs along x, runs along y, then
// time order within each run, so consecutive chunks of size capacity form
// compact leaves.
func strSort(entries []index.LeafEntry, capacity int) {
	n := len(entries)
	leaves := (n + capacity - 1) / capacity
	sx := int(math.Ceil(math.Cbrt(float64(leaves))))
	perX := sx * sx * capacity // entries per x-slab (≈)
	cx := func(e index.LeafEntry) float64 { b := e.MBB(); return (b.MinX + b.MaxX) / 2 }
	cy := func(e index.LeafEntry) float64 { b := e.MBB(); return (b.MinY + b.MaxY) / 2 }
	ct := func(e index.LeafEntry) float64 { b := e.MBB(); return (b.MinT + b.MaxT) / 2 }

	sort.Slice(entries, func(i, j int) bool { return cx(entries[i]) < cx(entries[j]) })
	for lo := 0; lo < n; lo += perX {
		hi := lo + perX
		if hi > n {
			hi = n
		}
		slab := entries[lo:hi]
		sort.Slice(slab, func(i, j int) bool { return cy(slab[i]) < cy(slab[j]) })
		perY := sx * capacity
		for l2 := 0; l2 < len(slab); l2 += perY {
			h2 := l2 + perY
			if h2 > len(slab) {
				h2 = len(slab)
			}
			run := slab[l2:h2]
			sort.Slice(run, func(i, j int) bool { return ct(run[i]) < ct(run[j]) })
		}
	}
}

// evenChunks splits n items into ceil(n/capacity) nearly equal runs, returning
// [start, end) pairs. Even sizing keeps every chunk at ≥ floor(n/k) items,
// which satisfies the 40 % minimum fill whenever more than one chunk is
// needed.
func evenChunks(n, capacity int) [][2]int {
	k := (n + capacity - 1) / capacity
	out := make([][2]int, 0, k)
	base := n / k
	rem := n % k
	start := 0
	for i := 0; i < k; i++ {
		size := base
		if i < rem {
			size++
		}
		out = append(out, [2]int{start, start + size})
		start += size
	}
	return out
}
