// Package rtree implements a paged 3D R-tree over trajectory line segments
// — the "3D R-tree" of the paper's experimental study [19]: a classic
// Guttman R-tree whose keys are (x, y, t) minimum bounding boxes. It
// supports dynamic insertion with quadratic splitting and an STR bulk
// loader, and exposes the index.Tree read interface consumed by the k-MST
// search.
package rtree

import (
	"math"

	"mstsearch/internal/geom"
	"mstsearch/internal/index"
	"mstsearch/internal/storage"
	"mstsearch/internal/trajectory"
)

// MinFillRatio is the Guttman minimum node occupancy enforced on splits.
const MinFillRatio = 0.4

// Tree is a 3D R-tree bound to a pager. Unlike the TB-tree and the
// STR-tree it keeps no build state: its insert needs only the pages.
type Tree struct {
	index.NodeStore
	minLeaf  int
	minChild int
}

// New creates an empty tree on the pager.
func New(pager storage.Pager) *Tree { return Open(pager, index.Meta{Root: storage.NilPage}) }

// Open reattaches a previously built tree (identified by its Meta) to a
// pager over the same underlying pages.
func Open(pager storage.Pager, m index.Meta) *Tree {
	t := &Tree{NodeStore: index.NewNodeStore(pager, m)}
	t.minLeaf = int(math.Max(1, math.Floor(MinFillRatio*float64(t.MaxLeaf))))
	t.minChild = int(math.Max(1, math.Floor(MinFillRatio*float64(t.MaxChild))))
	return t
}

// Insert adds one trajectory segment using Guttman's algorithm: ChooseLeaf
// by least volume enlargement, quadratic split on overflow, and MBB
// adjustment up the insertion path.
func (t *Tree) Insert(e index.LeafEntry) error {
	if t.Root() == storage.NilPage {
		root, err := t.AllocNode(true)
		if err != nil {
			return err
		}
		root.Leaves = append(root.Leaves, e)
		t.SetRoot(root.Page, 1)
		return t.WriteNode(root)
	}

	// Descend, remembering the path.
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
		split, err = t.splitLeaf(cur)
		if err != nil {
			return err
		}
	} else if err := t.WriteNode(cur); err != nil {
		return err
	}

	// Adjust MBBs upward, installing splits as they propagate.
	for i := len(path) - 1; i >= 0; i-- {
		parent := path[i]
		parent.Children[pathIdx[i]].MBB = cur.MBB()
		if split != nil {
			parent.Children = append(parent.Children,
				index.ChildEntry{MBB: split.MBB(), Page: split.Page})
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
		// Root split: grow the tree.
		newRoot, err := t.AllocNode(false)
		if err != nil {
			return err
		}
		newRoot.Children = []index.ChildEntry{
			{MBB: cur.MBB(), Page: cur.Page},
			{MBB: split.MBB(), Page: split.Page},
		}
		t.SetRoot(newRoot.Page, t.Height()+1)
		return t.WriteNode(newRoot)
	}
	return nil
}

func (t *Tree) splitLeaf(n *index.Node) (*index.Node, error) {
	boxes := make([]geom.MBB, len(n.Leaves))
	for i, e := range n.Leaves {
		boxes[i] = e.MBB()
	}
	ga, gb := quadraticSplit(boxes, t.minLeaf)
	sib, err := t.AllocNode(true)
	if err != nil {
		return nil, err
	}
	oldEntries := n.Leaves
	n.Leaves = index.Pick(oldEntries, ga)
	sib.Leaves = index.Pick(oldEntries, gb)
	if err := t.WriteNode(n); err != nil {
		return nil, err
	}
	if err := t.WriteNode(sib); err != nil {
		return nil, err
	}
	return sib, nil
}

func (t *Tree) splitInternal(n *index.Node) (*index.Node, error) {
	boxes := make([]geom.MBB, len(n.Children))
	for i, c := range n.Children {
		boxes[i] = c.MBB
	}
	ga, gb := quadraticSplit(boxes, t.minChild)
	sib, err := t.AllocNode(false)
	if err != nil {
		return nil, err
	}
	oldEntries := n.Children
	n.Children = index.Pick(oldEntries, ga)
	sib.Children = index.Pick(oldEntries, gb)
	if err := t.WriteNode(n); err != nil {
		return nil, err
	}
	if err := t.WriteNode(sib); err != nil {
		return nil, err
	}
	return sib, nil
}

// InsertTrajectory inserts every segment of tr.
func (t *Tree) InsertTrajectory(tr *trajectory.Trajectory) error {
	return index.InsertTrajectory(t.Insert, tr)
}

// CheckInvariants walks the whole tree verifying its structural
// invariants, the Guttman minimum fill among them, and returns the total
// number of leaf entries.
func (t *Tree) CheckInvariants() (int, error) {
	return t.NodeStore.CheckInvariants(index.Shape{MinLeaf: t.minLeaf, MinChild: t.minChild})
}

var _ index.Tree = (*Tree)(nil)
