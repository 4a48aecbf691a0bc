// Package strtree implements the STR-tree (Spatio-Temporal R-tree) of
// Pfoser, Jensen and Theodoridis [13] — the third structure the paper
// names among the R-tree family members its search algorithm runs on
// (§4.5). The STR-tree is a compromise between the 3D R-tree's pure
// spatial discrimination and the TB-tree's pure trajectory bundling:
//
//   - insertion first tries to place a segment in the leaf holding its
//     predecessor (trajectory preservation), falling back to Guttman's
//     least-enlargement descent when the predecessor's leaf is full or
//     unknown;
//   - leaf splits are time-oriented: entries are ordered by start time
//     and cut at the median, keeping trajectory runs together, while
//     internal splits use the quadratic algorithm.
//
// Leaves may therefore mix trajectories (unlike the TB-tree) but keep
// consecutive segments of one trajectory clustered (unlike the plain 3D
// R-tree).
package strtree

import (
	"sort"

	"mstsearch/internal/geom"
	"mstsearch/internal/index"
	"mstsearch/internal/storage"
	"mstsearch/internal/trajectory"
)

// Tree is an STR-tree bound to a pager. The per-trajectory tail table and
// the parent pointers are build state: Open leaves them nil, and only the
// first Insert recovers them from the pages (the parent map is set last,
// once the walk succeeds).
type Tree struct {
	index.NodeStore

	tail    map[trajectory.ID]storage.PageID
	tailSeq map[trajectory.ID]uint32
	parent  map[storage.PageID]storage.PageID // build-time parent pointers
}

// New creates an empty STR-tree on the pager.
func New(pager storage.Pager) *Tree { return Open(pager, index.Meta{Root: storage.NilPage}) }

// Open reattaches a built tree, writable, to a pager over its pages.
func Open(pager storage.Pager, m index.Meta) *Tree {
	return &Tree{NodeStore: index.NewNodeStore(pager, m)}
}

// recoverMaps derives the build state with one walk of the pages: a
// trajectory's tail is the leaf holding its largest SeqNo, tailSeq is that
// SeqNo, and a node's parent is the node whose entry names it.
func (t *Tree) recoverMaps() error {
	t.tail = make(map[trajectory.ID]storage.PageID)
	t.tailSeq = make(map[trajectory.ID]uint32)
	parent := make(map[storage.PageID]storage.PageID)
	err := t.Walk(func(n *index.Node, _ int, up index.PathStep) error {
		if up.Node != nil {
			parent[n.Page] = up.Node.Page
		}
		t.refreshTails(n)
		return nil
	})
	if err == nil {
		t.parent = parent
	}
	return err
}

// Insert adds one segment, preferring the predecessor's leaf.
func (t *Tree) Insert(e index.LeafEntry) error {
	if t.parent == nil {
		if err := t.recoverMaps(); err != nil {
			return err
		}
	}
	if t.Root() == storage.NilPage {
		root, err := t.AllocNode(true)
		if err != nil {
			return err
		}
		root.Leaves = append(root.Leaves, e)
		t.SetRoot(root.Page, 1)
		t.setTail(e.TrajID, e.SeqNo, root.Page)
		return t.WriteNode(root)
	}

	// Trajectory-preservation fast path: append to the predecessor's leaf
	// when it has room and can be reached from the root.
	if tailID, ok := t.tail[e.TrajID]; ok {
		leafNode, err := t.ReadNode(tailID)
		if err != nil {
			return err
		}
		path, ok, err := t.LeafPath(t.parent, tailID)
		if err != nil {
			return err
		}
		if ok && len(leafNode.Leaves) < t.MaxLeaf {
			leafNode.Leaves = append(leafNode.Leaves, e)
			if err := t.WriteNode(leafNode); err != nil {
				return err
			}
			t.setTail(e.TrajID, e.SeqNo, leafNode.Page)
			return t.WidenPath(path, e.MBB())
		}
	}

	// Spatial fallback: Guttman descent with time-oriented leaf split.
	return t.spatialInsert(e)
}

// InsertTrajectory appends every segment of tr.
func (t *Tree) InsertTrajectory(tr *trajectory.Trajectory) error {
	return index.InsertTrajectory(t.Insert, tr)
}

// spatialInsert is the standard R-tree insertion used when trajectory
// preservation is impossible.
func (t *Tree) spatialInsert(e index.LeafEntry) error {
	var (
		path    []*index.Node
		pathIdx []int
	)
	cur, err := t.ReadNode(t.Root())
	if err != nil {
		return err
	}
	for !cur.Leaf {
		ci := index.ChooseSubtree(cur.Children, e.MBB())
		path = append(path, cur)
		pathIdx = append(pathIdx, ci)
		cur, err = t.ReadNode(cur.Children[ci].Page)
		if err != nil {
			return err
		}
	}

	cur.Leaves = append(cur.Leaves, e)
	var split *index.Node
	if len(cur.Leaves) > t.MaxLeaf {
		split, err = t.splitLeafByTime(cur)
		if err != nil {
			return err
		}
	} else {
		if err := t.WriteNode(cur); err != nil {
			return err
		}
		t.setTail(e.TrajID, e.SeqNo, cur.Page)
	}

	for i := len(path) - 1; i >= 0; i-- {
		parent := path[i]
		parent.Children[pathIdx[i]].MBB = cur.MBB()
		if split != nil {
			parent.Children = append(parent.Children,
				index.ChildEntry{MBB: split.MBB(), Page: split.Page})
			t.parent[split.Page] = parent.Page
			split = nil
		}
		if len(parent.Children) > t.MaxChild {
			split, err = t.splitInternal(parent)
			if err != nil {
				return err
			}
		} else if err := t.WriteNode(parent); err != nil {
			return err
		}
		cur = parent
	}

	if split != nil {
		newRoot, err := t.AllocNode(false)
		if err != nil {
			return err
		}
		newRoot.Children = []index.ChildEntry{
			{MBB: cur.MBB(), Page: cur.Page},
			{MBB: split.MBB(), Page: split.Page},
		}
		t.parent[cur.Page] = newRoot.Page
		t.parent[split.Page] = newRoot.Page
		t.SetRoot(newRoot.Page, t.Height()+1)
		return t.WriteNode(newRoot)
	}
	return nil
}

// splitLeafByTime performs the STR-tree's time-oriented leaf split: order
// entries by (start time, trajectory, seq) and cut at the median so the
// newest runs move to the fresh node together. The tail table is refreshed
// for every trajectory whose newest segment moved.
func (t *Tree) splitLeafByTime(n *index.Node) (*index.Node, error) {
	sort.Slice(n.Leaves, func(i, j int) bool {
		a, b := n.Leaves[i], n.Leaves[j]
		if a.Seg.A.T != b.Seg.A.T {
			return a.Seg.A.T < b.Seg.A.T
		}
		if a.TrajID != b.TrajID {
			return a.TrajID < b.TrajID
		}
		return a.SeqNo < b.SeqNo
	})
	mid := len(n.Leaves) / 2
	sib, err := t.AllocNode(true)
	if err != nil {
		return nil, err
	}
	sib.Leaves = append(sib.Leaves, n.Leaves[mid:]...)
	n.Leaves = n.Leaves[:mid]
	if err := t.WriteNode(n); err != nil {
		return nil, err
	}
	if err := t.WriteNode(sib); err != nil {
		return nil, err
	}
	t.refreshTails(n)
	t.refreshTails(sib)
	return sib, nil
}

// refreshTails re-points a trajectory's tail at this leaf only when the
// leaf holds that trajectory's globally newest segment — a split of an old
// leaf must not steal the tail from the leaf actually holding the head of
// the trajectory.
func (t *Tree) refreshTails(n *index.Node) {
	for _, e := range n.Leaves {
		if e.SeqNo >= t.tailSeq[e.TrajID] {
			t.setTail(e.TrajID, e.SeqNo, n.Page)
		}
	}
}

// setTail records the leaf holding the trajectory's newest segment.
func (t *Tree) setTail(id trajectory.ID, seq uint32, page storage.PageID) {
	t.tail[id] = page
	if seq >= t.tailSeq[id] {
		t.tailSeq[id] = seq
	}
}

// splitInternal uses the quadratic split on child bounds.
func (t *Tree) splitInternal(n *index.Node) (*index.Node, error) {
	boxes := make([]geom.MBB, len(n.Children))
	for i, c := range n.Children {
		boxes[i] = c.MBB
	}
	ga, gb := quadraticSplit(boxes, max(1, t.MaxChild*2/5))
	sib, err := t.AllocNode(false)
	if err != nil {
		return nil, err
	}
	old := n.Children
	n.Children = index.Pick(old, ga)
	sib.Children = index.Pick(old, gb)
	for _, c := range sib.Children {
		t.parent[c.Page] = sib.Page // the moved subtrees change parents
	}
	if err := t.WriteNode(n); err != nil {
		return nil, err
	}
	if err := t.WriteNode(sib); err != nil {
		return nil, err
	}
	return sib, nil
}

// quadraticSplit partitions boxes into two groups. It seeds like Guttman's
// quadratic split but is not package rtree's split: it has no PickNext,
// assigning the remaining boxes in index order to the group needing less
// enlargement, and it meets minFill afterwards by moving the last-assigned
// entries across. STR-tree pages depend on it, so it is kept apart from
// rtree's (see DESIGN.md, "The paged-tree core").
func quadraticSplit(boxes []geom.MBB, minFill int) (groupA, groupB []int) {
	n := len(boxes)
	sa, sb := 0, 1
	worst := -1.0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := boxes[i].Expand(boxes[j]).Volume() - boxes[i].Volume() - boxes[j].Volume()
			if d > worst {
				worst, sa, sb = d, i, j
			}
		}
	}
	groupA = append(groupA, sa)
	groupB = append(groupB, sb)
	mbbA, mbbB := boxes[sa], boxes[sb]
	for i := 0; i < n; i++ {
		if i == sa || i == sb {
			continue
		}
		dA := mbbA.Enlargement(boxes[i])
		dB := mbbB.Enlargement(boxes[i])
		if dA < dB || (dA == dB && len(groupA) <= len(groupB)) {
			groupA = append(groupA, i)
			mbbA = mbbA.Expand(boxes[i])
		} else {
			groupB = append(groupB, i)
			mbbB = mbbB.Expand(boxes[i])
		}
	}
	// Rebalance to satisfy min fill (move last-assigned entries).
	for len(groupA) < minFill && len(groupB) > minFill {
		groupA = append(groupA, groupB[len(groupB)-1])
		groupB = groupB[:len(groupB)-1]
	}
	for len(groupB) < minFill && len(groupA) > minFill {
		groupB = append(groupB, groupA[len(groupA)-1])
		groupA = groupA[:len(groupA)-1]
	}
	return groupA, groupB
}

// CheckInvariants walks the whole tree verifying its structural
// invariants and returns the total entry count.
func (t *Tree) CheckInvariants() (int, error) {
	return t.NodeStore.CheckInvariants(index.Shape{})
}

var _ index.Tree = (*Tree)(nil)
