// Package tbtree implements the TB-tree (Trajectory-Bundle tree) of Pfoser,
// Jensen and Theodoridis [13], the second index structure of the paper's
// experimental study. It is an R-tree-like structure with two defining
// properties:
//
//   - a leaf node contains line segments of exactly one trajectory, so
//     leaves "bundle" trajectory pieces, trading spatial discrimination
//     for trajectory preservation;
//   - all leaves of one trajectory are connected in a doubly-linked list
//     (PrevLeaf/NextLeaf), making trajectory reconstruction a chain walk.
//
// Insertion appends a segment to the trajectory's newest leaf when it has
// room; otherwise a fresh leaf is started, linked into the trajectory's
// chain, and attached to the tree along the rightmost path — segments
// arrive in temporal order, so the tree grows to the "right" like a
// B⁺-tree bulk append and leaves end up fully packed (the reason TB-tree
// index sizes in Table 2 are roughly half the 3D R-tree's).
package tbtree

import (
	"fmt"

	"mstsearch/internal/index"
	"mstsearch/internal/storage"
	"mstsearch/internal/trajectory"
)

// Tree is a TB-tree bound to a pager. The per-trajectory tail-leaf table
// and the parent pointers are build state: Open leaves them nil, and only
// the first Insert recovers them from the pages (the parent map is set
// last, once the walk succeeds).
type Tree struct {
	index.NodeStore

	// Build state.
	tail   map[trajectory.ID]storage.PageID  // newest leaf per trajectory
	parent map[storage.PageID]storage.PageID // parent pointers for O(height) path lookup
}

// New creates an empty TB-tree on the pager.
func New(pager storage.Pager) *Tree { return Open(pager, index.Meta{Root: storage.NilPage}) }

// Open reattaches a built tree, writable, to a pager over its pages.
func Open(pager storage.Pager, m index.Meta) *Tree {
	return &Tree{NodeStore: index.NewNodeStore(pager, m)}
}

// recoverMaps derives the build state with one walk of the pages: a
// trajectory's tail is its leaf with no successor, and a node's parent is
// the node whose entry names it.
func (t *Tree) recoverMaps() error {
	t.tail = make(map[trajectory.ID]storage.PageID)
	parent := make(map[storage.PageID]storage.PageID)
	err := t.Walk(func(n *index.Node, _ int, up index.PathStep) error {
		if up.Node != nil {
			parent[n.Page] = up.Node.Page
		}
		if n.Leaf && n.NextLeaf == storage.NilPage {
			t.tail[n.Leaves[0].TrajID] = n.Page
		}
		return nil
	})
	if err == nil {
		t.parent = parent
	}
	return err
}

// Insert appends one segment. Segments of each trajectory must arrive in
// temporal order (their natural order); interleaving different
// trajectories is fine.
func (t *Tree) Insert(e index.LeafEntry) error {
	if t.parent == nil {
		if err := t.recoverMaps(); err != nil {
			return err
		}
	}
	// Fast path: the trajectory's tail leaf has room.
	if tailID, ok := t.tail[e.TrajID]; ok {
		leafNode, err := t.ReadNode(tailID)
		if err != nil {
			return err
		}
		if len(leafNode.Leaves) < t.MaxLeaf {
			leafNode.Leaves = append(leafNode.Leaves, e)
			if err := t.WriteNode(leafNode); err != nil {
				return err
			}
			// The tail leaf is almost always on (or near) the rightmost
			// path, but interleaved trajectories scatter tails away from
			// it, so widen the leaf's own path.
			path, ok, err := t.LeafPath(t.parent, tailID)
			if err != nil {
				return err
			}
			if !ok {
				return fmt.Errorf("tbtree: leaf %d not reachable from root", tailID)
			}
			return t.WidenPath(path, e.MBB())
		}
		// Tail full: start a new leaf chained after it.
		newLeaf, err := t.AllocNode(true)
		if err != nil {
			return err
		}
		newLeaf.Leaves = append(newLeaf.Leaves, e)
		newLeaf.PrevLeaf = tailID
		leafNode.NextLeaf = newLeaf.Page
		if err := t.WriteNode(leafNode); err != nil {
			return err
		}
		if err := t.WriteNode(newLeaf); err != nil {
			return err
		}
		t.tail[e.TrajID] = newLeaf.Page
		return t.attachLeaf(newLeaf)
	}
	// First segment of this trajectory.
	newLeaf, err := t.AllocNode(true)
	if err != nil {
		return err
	}
	newLeaf.Leaves = append(newLeaf.Leaves, e)
	if err := t.WriteNode(newLeaf); err != nil {
		return err
	}
	t.tail[e.TrajID] = newLeaf.Page
	return t.attachLeaf(newLeaf)
}

// attachLeaf hooks a fresh leaf into the tree along the rightmost path.
func (t *Tree) attachLeaf(leaf *index.Node) error {
	if t.Root() == storage.NilPage {
		t.SetRoot(leaf.Page, 1)
		return nil
	}
	if t.Height() == 1 {
		// Root is a leaf: grow an internal root above both.
		oldRoot, err := t.ReadNode(t.Root())
		if err != nil {
			return err
		}
		newRoot, err := t.AllocNode(false)
		if err != nil {
			return err
		}
		newRoot.Children = []index.ChildEntry{
			{MBB: oldRoot.MBB(), Page: oldRoot.Page},
			{MBB: leaf.MBB(), Page: leaf.Page},
		}
		t.parent[oldRoot.Page] = newRoot.Page
		t.parent[leaf.Page] = newRoot.Page
		t.SetRoot(newRoot.Page, 2)
		return t.WriteNode(newRoot)
	}

	// Descend the rightmost path to the lowest internal level.
	path, err := t.rightmostPath()
	if err != nil {
		return err
	}
	entry := index.ChildEntry{MBB: leaf.MBB(), Page: leaf.Page}
	for i := len(path) - 1; i >= 0; i-- {
		n := path[i]
		if len(n.Children) < t.MaxChild {
			n.Children = append(n.Children, entry)
			t.parent[entry.Page] = n.Page
			if err := t.WriteNode(n); err != nil {
				return err
			}
			// Refresh ancestor MBBs for the grown subtree.
			return t.refreshPathMBBs(path[:i+1])
		}
		// Node full: start a sibling holding the carried entry and carry
		// the sibling upward.
		sib, err := t.AllocNode(false)
		if err != nil {
			return err
		}
		sib.Children = []index.ChildEntry{entry}
		t.parent[entry.Page] = sib.Page
		if err := t.WriteNode(sib); err != nil {
			return err
		}
		entry = index.ChildEntry{MBB: sib.MBB(), Page: sib.Page}
	}
	// The root itself was full: grow a new root.
	newRoot, err := t.AllocNode(false)
	if err != nil {
		return err
	}
	newRoot.Children = []index.ChildEntry{
		{MBB: path[0].MBB(), Page: path[0].Page},
		entry,
	}
	t.parent[path[0].Page] = newRoot.Page
	t.parent[entry.Page] = newRoot.Page
	t.SetRoot(newRoot.Page, t.Height()+1)
	return t.WriteNode(newRoot)
}

// rightmostPath reads the internal nodes along the rightmost spine, from
// root down to the lowest internal level.
func (t *Tree) rightmostPath() ([]*index.Node, error) {
	var path []*index.Node
	cur, err := t.ReadNode(t.Root())
	if err != nil {
		return nil, err
	}
	for !cur.Leaf {
		path = append(path, cur)
		last := cur.Children[len(cur.Children)-1]
		next, err := t.ReadNode(last.Page)
		if err != nil {
			return nil, err
		}
		if next.Leaf {
			break
		}
		cur = next
	}
	return path, nil
}

// refreshPathMBBs recomputes the child-entry MBB for each step of the
// given rightmost path (bottom-up), after the bottom node changed.
func (t *Tree) refreshPathMBBs(path []*index.Node) error {
	for i := len(path) - 1; i >= 0; i-- {
		n := path[i]
		li := len(n.Children) - 1
		child, err := t.ReadNode(n.Children[li].Page)
		if err != nil {
			return err
		}
		n.Children[li].MBB = child.MBB()
		if err := t.WriteNode(n); err != nil {
			return err
		}
	}
	return nil
}

// InsertTrajectory appends every segment of tr.
func (t *Tree) InsertTrajectory(tr *trajectory.Trajectory) error {
	return index.InsertTrajectory(t.Insert, tr)
}

// WalkChain follows the leaf chain of the trajectory whose newest leaf is
// the given page, returning leaf pages oldest-first. Used for trajectory
// reconstruction and by tests.
func (t *Tree) WalkChain(tailID storage.PageID) ([]storage.PageID, error) {
	var rev []storage.PageID
	for id := tailID; id != storage.NilPage; {
		rev = append(rev, id)
		n, err := t.ReadNode(id)
		if err != nil {
			return nil, err
		}
		id = n.PrevLeaf
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev, nil
}

// TailLeaf returns the newest leaf of a trajectory (build state only).
func (t *Tree) TailLeaf(id trajectory.ID) (storage.PageID, bool) {
	p, ok := t.tail[id]
	return p, ok
}

// CheckInvariants walks the whole tree verifying its structural
// invariants, the TB-tree's own among them: every leaf holds consecutive
// segments of exactly one trajectory. Returns total leaf entries.
func (t *Tree) CheckInvariants() (int, error) {
	return t.NodeStore.CheckInvariants(index.Shape{Leaf: checkBundle})
}

// checkBundle is the TB-tree's leaf rule: one trajectory, seq order.
func checkBundle(n *index.Node) error {
	first := n.Leaves[0]
	for i, e := range n.Leaves {
		if e.TrajID != first.TrajID {
			return fmt.Errorf("tbtree: leaf %d mixes trajectories %d and %d", n.Page, first.TrajID, e.TrajID)
		}
		if i > 0 && e.SeqNo != n.Leaves[i-1].SeqNo+1 {
			return fmt.Errorf("tbtree: leaf %d has non-consecutive seq", n.Page)
		}
	}
	return nil
}

var _ index.Tree = (*Tree)(nil)
