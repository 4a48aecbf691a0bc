package index

import (
	"fmt"
	"math"
	"slices"

	"mstsearch/internal/geom"
	"mstsearch/internal/storage"
	"mstsearch/internal/trajectory"
)

// This file is the paged-tree skeleton every index kind shares. Core owns
// what each tree stores about itself (pager, root metadata, fan-outs);
// NodeStore adds what the MBB trees share. Each tree package keeps only
// what defines its kind: its insertion policy, its split rule and its leaf
// rule.

// Meta is the root information that reopens a tree over another pager
// holding the same pages (a buffer pool, a restored snapshot): the root
// page, the number of levels and the number of nodes.
type Meta struct {
	Root   storage.PageID
	Height int
	Nodes  int
}

// Core is the state every paged tree embeds. A tree sets its root only
// through SetRoot and counts its nodes only through AllocPage, so Meta
// always describes the pages written.
type Core struct {
	pager storage.Pager
	meta  Meta
	// MaxLeaf and MaxChild are the leaf and internal fan-outs of the
	// tree's page layout.
	MaxLeaf, MaxChild int
}

// NewCore binds a tree to a pager. m is its root metadata (Root NilPage
// for an empty tree); maxLeaf and maxChild are its page layout's fan-outs.
func NewCore(p storage.Pager, m Meta, maxLeaf, maxChild int) Core {
	return Core{pager: p, meta: m, MaxLeaf: maxLeaf, MaxChild: maxChild}
}

// Meta returns the tree's reopen information.
func (c *Core) Meta() Meta { return c.meta }

// Root implements Index.
func (c *Core) Root() storage.PageID { return c.meta.Root }

// Height implements Index.
func (c *Core) Height() int { return c.meta.Height }

// NumNodes implements Index.
func (c *Core) NumNodes() int { return c.meta.Nodes }

// Pager returns the pager the tree reads and writes through.
func (c *Core) Pager() storage.Pager { return c.pager }

// AllocPage allocates the page of a new node and counts the node.
func (c *Core) AllocPage() (storage.PageID, error) {
	id, err := c.pager.Alloc()
	if err != nil {
		return storage.NilPage, err
	}
	c.meta.Nodes++
	return id, nil
}

// SetRoot installs page as the root of a tree of the given height.
func (c *Core) SetRoot(page storage.PageID, height int) {
	c.meta.Root, c.meta.Height = page, height
}

// NodeStore is the Core of an MBB tree (3D R-tree, TB-tree, STR-tree): it
// adds node reads, allocation and writes in the MBB codec, the tree walk
// and the leaf path. It is a type of its own so that the N-tree, whose
// pages use the metric codec, never satisfies Tree.
type NodeStore struct{ Core }

// NewNodeStore binds an MBB tree to a pager with the MBB codec's fan-outs.
func NewNodeStore(p storage.Pager, m Meta) NodeStore {
	ps := p.PageSize()
	return NodeStore{NewCore(p, m, MaxLeafEntries(ps), MaxChildEntries(ps))}
}

// ReadNode implements Tree.
func (s *NodeStore) ReadNode(id storage.PageID) (*Node, error) { return ReadNode(s.pager, id) }

// WriteNode encodes and stores n.
func (s *NodeStore) WriteNode(n *Node) error { return WriteNode(s.pager, n) }

// AllocNode allocates an empty, unlinked node.
func (s *NodeStore) AllocNode(leaf bool) (*Node, error) {
	id, err := s.AllocPage()
	if err != nil {
		return nil, err
	}
	return &Node{Page: id, Leaf: leaf, PrevLeaf: storage.NilPage, NextLeaf: storage.NilPage}, nil
}

// Shape is what CheckInvariants enforces beyond the rules every MBB tree
// shares.
type Shape struct {
	// MinLeaf and MinChild are the fewest entries a non-root leaf or
	// internal node may hold; no node may be empty, whatever they say.
	MinLeaf, MinChild int
	// Leaf, when set, checks the contents of every leaf.
	Leaf func(*Node) error
}

// Walk passes every node to visit once, parents first, with its depth (1
// at the root) and the step that reached it (zero at the root): the one
// tree walk, behind CheckInvariants and TB-/STR-tree build-state recovery.
// An undecodable page, an empty node or a node below the height stops it
// with an error wrapping ErrCorruptNode, or with the pager's own error.
func (s *NodeStore) Walk(visit func(n *Node, depth int, up PathStep) error) error {
	var walk func(id storage.PageID, depth int, up PathStep) error
	walk = func(id storage.PageID, depth int, up PathStep) error {
		if depth > s.meta.Height {
			return fmt.Errorf("%w: node %d below the tree's height %d", ErrCorruptNode, id, s.meta.Height)
		}
		n, err := s.ReadNode(id)
		if err != nil {
			return err
		}
		if n.Len() == 0 {
			return fmt.Errorf("%w: node %d holds no entries", ErrCorruptNode, id)
		}
		if err := visit(n, depth, up); err != nil {
			return err
		}
		for i, c := range n.Children {
			if err := walk(c.Page, depth+1, PathStep{Node: n, Child: i}); err != nil {
				return err
			}
		}
		return nil
	}
	if s.meta.Root == storage.NilPage {
		return nil
	}
	return walk(s.meta.Root, 1, PathStep{})
}

// CheckInvariants walks the whole tree verifying that each parent entry
// contains its node's bound, every leaf sits at the tree's height, every
// node's occupancy lies within the fan-out and shape's minimum (an
// internal root holds at least two children, a root leaf at least one
// entry), every leaf passes shape.Leaf, and the node counter matches the
// walk. It returns the total number of leaf entries.
func (s *NodeStore) CheckInvariants(shape Shape) (int, error) {
	if s.meta.Root == storage.NilPage && s.meta.Height != 0 {
		return 0, fmt.Errorf("index: empty tree with height %d", s.meta.Height)
	}
	entries, visited := 0, 0
	err := s.Walk(func(n *Node, depth int, up PathStep) error {
		visited++
		if up.Node != nil && !up.Node.Children[up.Child].MBB.Contains(n.MBB()) {
			return fmt.Errorf("index: node %d not contained in its parent entry", n.Page)
		}
		if n.Leaf && depth != s.meta.Height {
			return fmt.Errorf("index: leaf %d at depth %d, height %d", n.Page, depth, s.meta.Height)
		}
		lo, hi := shape.MinChild, s.MaxChild
		if n.Leaf {
			lo, hi = shape.MinLeaf, s.MaxLeaf
		}
		if depth == 1 {
			lo = 2 // every kind grows a new internal root with two children
			if n.Leaf {
				lo = 1
			}
		}
		if count := n.Len(); count < lo || count > hi {
			return fmt.Errorf("index: node %d holds %d entries, outside [%d, %d]", n.Page, count, lo, hi)
		}
		if n.Leaf {
			if shape.Leaf != nil {
				if err := shape.Leaf(n); err != nil {
					return err
				}
			}
			entries += len(n.Leaves)
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	if visited != s.meta.Nodes {
		return 0, fmt.Errorf("index: visited %d nodes, counter says %d", visited, s.meta.Nodes)
	}
	return entries, nil
}

// PathStep is one ancestor on a leaf's path: an internal node and the
// index of its entry leading down toward the leaf.
type PathStep struct {
	Node  *Node
	Child int
}

// LeafPath returns the ancestors of leaf, its parent first and the root
// last, by following build-time parent pointers: O(height · fan-out)
// reads instead of a tree-wide search. ok is false when a pointer is
// missing or stale, so the leaf cannot be reached from the root.
func (s *NodeStore) LeafPath(parent map[storage.PageID]storage.PageID, leaf storage.PageID) (path []PathStep, ok bool, err error) {
	if s.meta.Root == storage.NilPage {
		return nil, false, nil
	}
	for cur := leaf; cur != s.meta.Root; {
		p, found := parent[cur]
		if !found {
			return nil, false, nil
		}
		n, err := s.ReadNode(p)
		if err != nil {
			return nil, false, err
		}
		ci := slices.IndexFunc(n.Children, func(c ChildEntry) bool { return c.Page == cur })
		if ci < 0 {
			return nil, false, nil
		}
		path = append(path, PathStep{Node: n, Child: ci})
		cur = p
	}
	return path, true, nil
}

// WidenPath expands the entries along a LeafPath to cover grown, from the
// leaf's parent upward, writing each node it changes and stopping at the
// first entry that already covers grown.
func (s *NodeStore) WidenPath(path []PathStep, grown geom.MBB) error {
	for _, st := range path {
		c := &st.Node.Children[st.Child]
		widened := c.MBB.Expand(grown)
		if widened == c.MBB {
			return nil
		}
		c.MBB = widened
		if err := s.WriteNode(st.Node); err != nil {
			return err
		}
	}
	return nil
}

// ChooseSubtree picks the child needing the least volume enlargement to
// cover b, breaking ties by smaller volume, then lower index — Guttman's
// ChooseLeaf step.
func ChooseSubtree(children []ChildEntry, b geom.MBB) int {
	best := 0
	bestEnl := math.Inf(1)
	bestVol := math.Inf(1)
	for i, c := range children {
		enl := c.MBB.Enlargement(b)
		vol := c.MBB.Volume()
		if enl < bestEnl || (enl == bestEnl && vol < bestVol) {
			best, bestEnl, bestVol = i, enl, vol
		}
	}
	return best
}

// Pick returns the elements of src at the given indexes, in that order:
// one group of a split.
func Pick[E any](src []E, idx []int) []E {
	out := make([]E, len(idx))
	for i, j := range idx {
		out[i] = src[j]
	}
	return out
}

// InsertTrajectory passes every segment of tr to insert, in sequence
// order.
func InsertTrajectory(insert func(LeafEntry) error, tr *trajectory.Trajectory) error {
	for i := 0; i < tr.NumSegments(); i++ {
		if err := insert(LeafEntry{TrajID: tr.ID, SeqNo: uint32(i), Seg: tr.Segment(i)}); err != nil {
			return err
		}
	}
	return nil
}
