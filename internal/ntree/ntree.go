// Package ntree implements a metric-space trajectory index in the spirit
// of the N-tree (Güting et al.) and the M-tree family: whole trajectories
// are organized by distance to pivot trajectories, with per-subtree
// covering radii enabling triangle-inequality pruning for exact kNN.
//
// The base distance is DISSIM over the two trajectories' common time
// span (+Inf when the spans are disjoint). This choice makes query-time
// pruning sound for window-restricted DISSIM queries: the integrand is
// non-negative, so for any query window W contained in both trajectories'
// spans, DISSIM over W is at most the base distance — a stored radius R
// covering base distances also covers every window-restricted distance,
// and the triangle bound d_W(q, pivot) − R lower-bounds d_W(q, x) for
// every member x (the triangle inequality holds for DISSIM over a fixed
// window, since it is induced by the L2 point metric integrated over W).
//
// Crucially, the base distance is NOT a metric across differing common
// spans, so the tree never derives one stored distance from another via
// the triangle inequality: every stored DistToPivot and covering Radius
// is computed exactly against the actual members. Insertion updates the
// aggregates along the descent path with directly computed distances, and
// node splits recompute the affected radii by enumerating the subtree's
// members — O(subtree) per split, the price of exactness.
//
// The tree keeps no build state beyond its pages, so a reopened tree
// accepts inserts like a fresh one. Nodes share the page store and CRC
// discipline of the MBB trees via the metric node codec in internal/index
// (flag bit1).
package ntree

import (
	"errors"
	"fmt"
	"math"

	"mstsearch/internal/dissim"
	"mstsearch/internal/geom"
	"mstsearch/internal/index"
	"mstsearch/internal/storage"
	"mstsearch/internal/trajectory"
)

// Lookup resolves a trajectory ID to its stored geometry. The tree holds
// no geometry of its own — distances are computed against the caller's
// trajectory store, which must outlive the tree and must not mutate
// indexed trajectories (the DB layer rebuilds on append for this reason).
type Lookup func(trajectory.ID) *trajectory.Trajectory

// Tree is an N-tree bound to a pager and a trajectory store.
type Tree struct {
	index.Core
	lookup Lookup
}

// New creates an empty N-tree on the pager.
func New(pager storage.Pager, lookup Lookup) *Tree {
	return Open(pager, index.Meta{Root: storage.NilPage}, lookup)
}

// Open reattaches a built tree, writable, to a pager over its pages.
func Open(pager storage.Pager, m index.Meta, lookup Lookup) *Tree {
	ps := pager.PageSize()
	core := index.NewCore(pager, m, index.MaxMetricLeafEntries(ps), index.MaxMetricChildEntries(ps))
	return &Tree{Core: core, lookup: lookup}
}

// Lookup returns the trajectory resolver the tree was bound to, so a
// caller can reopen a view of the tree against the same store.
func (t *Tree) Lookup() Lookup { return t.lookup }

// ReadMetricNode implements index.MetricTree.
func (t *Tree) ReadMetricNode(id storage.PageID) (*index.MetricNode, error) {
	return index.ReadMetricNode(t.Pager(), id)
}

var _ index.MetricTree = (*Tree)(nil)

// BaseDist is the tree's base distance: exact DISSIM over the common time
// span of a and b, +Inf when the spans are disjoint or degenerate. It is
// the distance every stored DistToPivot and Radius refers to.
func BaseDist(a, b *trajectory.Trajectory) float64 {
	lo := math.Max(a.StartTime(), b.StartTime())
	hi := math.Min(a.EndTime(), b.EndTime())
	if !(lo < hi) {
		return math.Inf(1)
	}
	d, ok := dissim.Exact(a, b, lo, hi)
	if !ok {
		return math.Inf(1)
	}
	return d
}

func (t *Tree) get(id trajectory.ID) (*trajectory.Trajectory, error) {
	if t.lookup == nil {
		return nil, errors.New("ntree: no trajectory lookup bound")
	}
	tr := t.lookup(id)
	if tr == nil {
		return nil, fmt.Errorf("ntree: unknown trajectory %d", id)
	}
	return tr, nil
}

func (t *Tree) allocNode(leaf bool) (*index.MetricNode, error) {
	id, err := t.AllocPage()
	if err != nil {
		return nil, err
	}
	return &index.MetricNode{Page: id, Leaf: leaf}, nil
}

func (t *Tree) writeNode(n *index.MetricNode) error {
	return index.WriteMetricNode(t.Pager(), n)
}

// step is one level of the descent path: the internal node read and the
// child entry index the descent followed.
type step struct {
	node  *index.MetricNode
	child int
}

// InsertTrajectory indexes one whole trajectory. Trajectories must be
// inserted exactly once; the tree records the ID, sample count, MBB and
// pivot distance, never the geometry itself.
func (t *Tree) InsertTrajectory(tr *trajectory.Trajectory) error {
	if len(tr.Samples) < 2 {
		return fmt.Errorf("ntree: trajectory %d has %d samples, need >= 2", tr.ID, len(tr.Samples))
	}
	if t.Root() == storage.NilPage {
		leaf, err := t.allocNode(true)
		if err != nil {
			return err
		}
		leaf.PivotID = tr.ID
		leaf.Leaves = []index.MetricLeafEntry{{
			TrajID:      tr.ID,
			Samples:     uint32(len(tr.Samples)),
			DistToPivot: BaseDist(tr, tr),
			MBB:         tr.Bounds(),
		}}
		if err := t.writeNode(leaf); err != nil {
			return err
		}
		t.SetRoot(leaf.Page, 1)
		return nil
	}

	// Descend to the leaf whose pivot is nearest, recording the path.
	// Ties break to the first entry, keeping builds deterministic.
	var path []step
	page := t.Root()
	for {
		n, err := t.ReadMetricNode(page)
		if err != nil {
			return err
		}
		if n.Leaf {
			return t.insertAtLeaf(path, n, tr)
		}
		best, bestD := -1, math.Inf(1)
		for i, c := range n.Children {
			p, err := t.get(c.PivotID)
			if err != nil {
				return err
			}
			if d := BaseDist(p, tr); best == -1 || d < bestD {
				best, bestD = i, d
			}
		}
		path = append(path, step{n, best})
		page = n.Children[best].Page
	}
}

func (t *Tree) insertAtLeaf(path []step, leaf *index.MetricNode, tr *trajectory.Trajectory) error {
	piv, err := t.get(leaf.PivotID)
	if err != nil {
		return err
	}
	e := index.MetricLeafEntry{
		TrajID:      tr.ID,
		Samples:     uint32(len(tr.Samples)),
		DistToPivot: BaseDist(piv, tr),
		MBB:         tr.Bounds(),
	}
	if len(leaf.Leaves) < t.MaxLeaf {
		leaf.Leaves = append(leaf.Leaves, e)
		if err := t.writeNode(leaf); err != nil {
			return err
		}
		return t.updatePath(path, tr)
	}
	n1, n2, err := t.splitLeaf(leaf, e)
	if err != nil {
		return err
	}
	e1 := leafRoutingEntry(n1)
	e2 := leafRoutingEntry(n2)
	return t.addChild(path, e1, e2, tr)
}

// splitLeaf partitions the full leaf plus the overflowing entry into two
// leaves: the old page keeps the old pivot p1; a new page is pivoted on
// p2, the member farthest from p1 (tie → first). Members go to the nearer
// pivot (tie → p1); every DistToPivot is computed directly, never via the
// triangle inequality.
func (t *Tree) splitLeaf(leaf *index.MetricNode, extra index.MetricLeafEntry) (n1, n2 *index.MetricNode, err error) {
	all := make([]index.MetricLeafEntry, 0, len(leaf.Leaves)+1)
	all = append(all, leaf.Leaves...)
	all = append(all, extra)
	p1 := leaf.PivotID
	p2idx := -1
	for i, e := range all {
		if e.TrajID == p1 {
			continue
		}
		if p2idx == -1 || e.DistToPivot > all[p2idx].DistToPivot {
			p2idx = i
		}
	}
	if p2idx == -1 {
		return nil, nil, fmt.Errorf("ntree: leaf %d has no split pivot candidate", leaf.Page)
	}
	p2 := all[p2idx].TrajID
	p2tr, err := t.get(p2)
	if err != nil {
		return nil, nil, err
	}
	var g1, g2 []index.MetricLeafEntry
	for _, e := range all {
		switch e.TrajID {
		case p1:
			g1 = append(g1, e)
			continue
		case p2:
			e.DistToPivot = BaseDist(p2tr, p2tr)
			g2 = append(g2, e)
			continue
		}
		x, err := t.get(e.TrajID)
		if err != nil {
			return nil, nil, err
		}
		d2 := BaseDist(p2tr, x)
		if d2 < e.DistToPivot {
			e.DistToPivot = d2
			g2 = append(g2, e)
		} else {
			g1 = append(g1, e)
		}
	}
	n1 = leaf
	n1.Leaves = g1
	n2, err = t.allocNode(true)
	if err != nil {
		return nil, nil, err
	}
	n2.PivotID = p2
	n2.Leaves = g2
	if err := t.writeNode(n1); err != nil {
		return nil, nil, err
	}
	if err := t.writeNode(n2); err != nil {
		return nil, nil, err
	}
	return n1, n2, nil
}

// leafRoutingEntry computes the exact routing entry for a leaf: the
// radius is the max stored pivot distance, the aggregates fold over the
// members.
func leafRoutingEntry(n *index.MetricNode) index.MetricChildEntry {
	c := index.MetricChildEntry{Page: n.Page, PivotID: n.PivotID, MBB: geom.EmptyMBB()}
	for i, e := range n.Leaves {
		if e.DistToPivot > c.Radius {
			c.Radius = e.DistToPivot
		}
		c.MBB = c.MBB.Expand(e.MBB)
		if i == 0 || e.Samples < c.MinSamples {
			c.MinSamples = e.Samples
		}
		if e.Samples > c.MaxSamples {
			c.MaxSamples = e.Samples
		}
	}
	return c
}

// addChild replaces the routing entry of a just-split node with its exact
// recomputation and inserts the new sibling's entry, splitting upward as
// needed. tr is the trajectory whose insertion triggered the split; the
// untouched ancestors above the split point still need their aggregates
// widened for it.
func (t *Tree) addChild(path []step, replace, add index.MetricChildEntry, tr *trajectory.Trajectory) error {
	if len(path) == 0 {
		root, err := t.allocNode(false)
		if err != nil {
			return err
		}
		root.PivotID = replace.PivotID
		root.Children = []index.MetricChildEntry{replace, add}
		if err := t.writeNode(root); err != nil {
			return err
		}
		t.SetRoot(root.Page, t.Height()+1)
		return nil
	}
	last := path[len(path)-1]
	parent := last.node
	parent.Children[last.child] = replace
	if len(parent.Children) < t.MaxChild {
		parent.Children = append(parent.Children, add)
		if err := t.writeNode(parent); err != nil {
			return err
		}
		return t.updatePath(path[:len(path)-1], tr)
	}
	e1, e2, err := t.splitInternal(parent, add)
	if err != nil {
		return err
	}
	return t.addChild(path[:len(path)-1], e1, e2, tr)
}

// splitInternal partitions a full internal node plus one extra entry into
// two nodes, pivoted on the node's pivot p1 and the child pivot farthest
// from it. The two routing radii are recomputed exactly by enumerating
// the members of each half — the base distance is interval-dependent, so
// no triangle shortcut is sound here.
func (t *Tree) splitInternal(node *index.MetricNode, extra index.MetricChildEntry) (e1, e2 index.MetricChildEntry, err error) {
	all := make([]index.MetricChildEntry, 0, len(node.Children)+1)
	all = append(all, node.Children...)
	all = append(all, extra)
	p1 := node.PivotID
	p1tr, err := t.get(p1)
	if err != nil {
		return e1, e2, err
	}
	d1 := make([]float64, len(all))
	for i, c := range all {
		p, err := t.get(c.PivotID)
		if err != nil {
			return e1, e2, err
		}
		d1[i] = BaseDist(p1tr, p)
	}
	p2idx := -1
	for i, c := range all {
		if c.PivotID == p1 {
			continue
		}
		if p2idx == -1 || d1[i] > d1[p2idx] {
			p2idx = i
		}
	}
	if p2idx == -1 {
		return e1, e2, fmt.Errorf("ntree: internal %d has no split pivot candidate", node.Page)
	}
	p2 := all[p2idx].PivotID
	p2tr, err := t.get(p2)
	if err != nil {
		return e1, e2, err
	}
	var g1, g2 []index.MetricChildEntry
	for i, c := range all {
		switch c.PivotID {
		case p1:
			g1 = append(g1, c)
			continue
		case p2:
			g2 = append(g2, c)
			continue
		}
		p, err := t.get(c.PivotID)
		if err != nil {
			return e1, e2, err
		}
		if BaseDist(p2tr, p) < d1[i] {
			g2 = append(g2, c)
		} else {
			g1 = append(g1, c)
		}
	}
	n1 := node
	n1.Children = g1
	n2, err := t.allocNode(false)
	if err != nil {
		return e1, e2, err
	}
	n2.PivotID = p2
	n2.Children = g2
	if err := t.writeNode(n1); err != nil {
		return e1, e2, err
	}
	if err := t.writeNode(n2); err != nil {
		return e1, e2, err
	}
	if e1, err = t.internalRoutingEntry(n1, p1tr); err != nil {
		return e1, e2, err
	}
	if e2, err = t.internalRoutingEntry(n2, p2tr); err != nil {
		return e1, e2, err
	}
	return e1, e2, nil
}

// internalRoutingEntry computes the exact routing entry for an internal
// node: aggregates fold over the child entries; the radius enumerates the
// subtree's members against the node's pivot.
func (t *Tree) internalRoutingEntry(n *index.MetricNode, pivot *trajectory.Trajectory) (index.MetricChildEntry, error) {
	c := index.MetricChildEntry{Page: n.Page, PivotID: n.PivotID, MBB: geom.EmptyMBB()}
	for i, ch := range n.Children {
		c.MBB = c.MBB.Expand(ch.MBB)
		if i == 0 || ch.MinSamples < c.MinSamples {
			c.MinSamples = ch.MinSamples
		}
		if ch.MaxSamples > c.MaxSamples {
			c.MaxSamples = ch.MaxSamples
		}
	}
	err := t.walkMembers(n.Page, func(id trajectory.ID) error {
		x, err := t.get(id)
		if err != nil {
			return err
		}
		if d := BaseDist(pivot, x); d > c.Radius {
			c.Radius = d
		}
		return nil
	})
	return c, err
}

// walkMembers visits every trajectory ID stored under page.
func (t *Tree) walkMembers(page storage.PageID, fn func(trajectory.ID) error) error {
	n, err := t.ReadMetricNode(page)
	if err != nil {
		return err
	}
	if n.Leaf {
		for _, e := range n.Leaves {
			if err := fn(e.TrajID); err != nil {
				return err
			}
		}
		return nil
	}
	for _, c := range n.Children {
		if err := t.walkMembers(c.Page, fn); err != nil {
			return err
		}
	}
	return nil
}

// updatePath widens the aggregates of the descent path's routing entries
// for the newly inserted trajectory: each ancestor's entry gets its
// radius maxed with the directly computed distance to that entry's pivot,
// its MBB expanded, and its sample bounds widened.
func (t *Tree) updatePath(path []step, tr *trajectory.Trajectory) error {
	mbb := tr.Bounds()
	samples := uint32(len(tr.Samples))
	for i := len(path) - 1; i >= 0; i-- {
		n, ci := path[i].node, path[i].child
		c := &n.Children[ci]
		p, err := t.get(c.PivotID)
		if err != nil {
			return err
		}
		if d := BaseDist(p, tr); d > c.Radius {
			c.Radius = d
		}
		c.MBB = c.MBB.Expand(mbb)
		if samples < c.MinSamples {
			c.MinSamples = samples
		}
		if samples > c.MaxSamples {
			c.MaxSamples = samples
		}
		if err := t.writeNode(n); err != nil {
			return err
		}
	}
	return nil
}

// CheckInvariants walks the whole tree and verifies the structural and
// metric invariants search soundness depends on: uniform leaf depth, the
// recorded node count, pivot membership (every node's pivot is stored in
// its own subtree), aggregate containment (entry MBB and sample bounds
// cover the members), exact leaf pivot distances, and covering radii
// (every member's directly recomputed base distance to the routing pivot
// is within the stored radius). It needs the trajectory lookup, so a tree
// opened without one cannot be checked.
func (t *Tree) CheckInvariants() error {
	if t.Root() == storage.NilPage {
		if t.Height() != 0 || t.NumNodes() != 0 {
			return fmt.Errorf("ntree: empty tree with height %d, %d nodes", t.Height(), t.NumNodes())
		}
		return nil
	}
	seen := 0
	var walk func(page storage.PageID, depth int) (agg index.MetricChildEntry, members []trajectory.ID, err error)
	walk = func(page storage.PageID, depth int) (index.MetricChildEntry, []trajectory.ID, error) {
		var agg index.MetricChildEntry
		n, err := t.ReadMetricNode(page)
		if err != nil {
			return agg, nil, err
		}
		seen++
		if n.Leaf {
			if depth != t.Height()-1 {
				return agg, nil, fmt.Errorf("ntree: leaf %d at depth %d, want %d", page, depth, t.Height()-1)
			}
			piv, err := t.get(n.PivotID)
			if err != nil {
				return agg, nil, err
			}
			members := make([]trajectory.ID, 0, len(n.Leaves))
			agg = leafRoutingEntry(n)
			found := false
			for _, e := range n.Leaves {
				members = append(members, e.TrajID)
				found = found || e.TrajID == n.PivotID
				x, err := t.get(e.TrajID)
				if err != nil {
					return agg, nil, err
				}
				if d := BaseDist(piv, x); d != e.DistToPivot && !(math.IsInf(d, 1) && math.IsInf(e.DistToPivot, 1)) {
					return agg, nil, fmt.Errorf("ntree: leaf %d entry %d: stored pivot distance %v, recomputed %v",
						page, e.TrajID, e.DistToPivot, d)
				}
			}
			if !found {
				return agg, nil, fmt.Errorf("ntree: leaf %d pivot %d not among its members", page, n.PivotID)
			}
			return agg, members, nil
		}
		if len(n.Children) == 0 {
			return agg, nil, fmt.Errorf("ntree: internal %d is empty", page)
		}
		pivotAmongChildren := false
		var all []trajectory.ID
		agg = index.MetricChildEntry{Page: page, PivotID: n.PivotID, MBB: geom.EmptyMBB()}
		for i, c := range n.Children {
			pivotAmongChildren = pivotAmongChildren || c.PivotID == n.PivotID
			sub, members, err := walk(c.Page, depth+1)
			if err != nil {
				return agg, nil, err
			}
			if sub.PivotID != c.PivotID {
				return agg, nil, fmt.Errorf("ntree: node %d child %d: entry pivot %d, node header pivot %d",
					page, c.Page, c.PivotID, sub.PivotID)
			}
			if !c.MBB.Contains(sub.MBB) {
				return agg, nil, fmt.Errorf("ntree: node %d child %d: entry MBB does not contain subtree MBB", page, c.Page)
			}
			if sub.MinSamples < c.MinSamples || sub.MaxSamples > c.MaxSamples {
				return agg, nil, fmt.Errorf("ntree: node %d child %d: sample bounds [%d,%d] outside entry [%d,%d]",
					page, c.Page, sub.MinSamples, sub.MaxSamples, c.MinSamples, c.MaxSamples)
			}
			piv, err := t.get(c.PivotID)
			if err != nil {
				return agg, nil, err
			}
			for _, id := range members {
				x, err := t.get(id)
				if err != nil {
					return agg, nil, err
				}
				if d := BaseDist(piv, x); d > c.Radius {
					return agg, nil, fmt.Errorf("ntree: node %d child %d: member %d at distance %v outside radius %v",
						page, c.Page, id, d, c.Radius)
				}
			}
			agg.MBB = agg.MBB.Expand(c.MBB)
			if i == 0 || c.MinSamples < agg.MinSamples {
				agg.MinSamples = c.MinSamples
			}
			if c.MaxSamples > agg.MaxSamples {
				agg.MaxSamples = c.MaxSamples
			}
			all = append(all, members...)
		}
		if !pivotAmongChildren {
			return agg, nil, fmt.Errorf("ntree: internal %d pivot %d not among child pivots", page, n.PivotID)
		}
		return agg, all, nil
	}
	if _, _, err := walk(t.Root(), 0); err != nil {
		return err
	}
	if seen != t.NumNodes() {
		return fmt.Errorf("ntree: walked %d nodes, metadata says %d", seen, t.NumNodes())
	}
	return nil
}
