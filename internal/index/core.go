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
// adds node reads, allocation and writes in the MBB codec, the tree walk,
// the leaf path and, once TrackOwners has built it, the leaf-owner table.
// It is a type of its own so that the N-tree, whose pages use the metric
// codec, never satisfies Tree.
type NodeStore struct {
	Core
	owners *LeafOwners // nil until TrackOwners succeeds
}

// NewNodeStore binds an MBB tree to a pager with the MBB codec's fan-outs.
func NewNodeStore(p storage.Pager, m Meta) NodeStore {
	ps := p.PageSize()
	return NodeStore{Core: NewCore(p, m, MaxLeafEntries(ps), MaxChildEntries(ps))}
}

// ReadNode implements Tree.
func (s *NodeStore) ReadNode(id storage.PageID) (*Node, error) { return ReadNode(s.pager, id) }

// WriteNode encodes and stores n, and keeps the leaf-owner table, when
// tracked, in step with the page. A failed write clears the page's entry:
// a page without an owner is always read.
func (s *NodeStore) WriteNode(n *Node) error {
	err := WriteNode(s.pager, n)
	if s.owners != nil {
		if err != nil {
			s.owners.set(n.Page, 0, false)
		} else {
			s.owners.note(n)
		}
	}
	return err
}

// LeafOwners is the leaf-owner table of an MBB tree: for every leaf page
// holding segments of one trajectory only, that trajectory. It is derived
// from the pages and holds nothing they do not: NodeStore.TrackOwners
// builds it with one walk and NodeStore.WriteNode keeps it in step, so it
// is never persisted and the page layout does not change. Like the pages,
// it is read under the owner's read lock and written under its write lock.
type LeafOwners struct {
	byPage []leafOwner // indexed by page; the zero entry names no owner
}

type leafOwner struct {
	id  trajectory.ID
	set bool
}

// Owner returns the one trajectory whose segments leaf page p holds; ok is
// false for an internal node, a leaf mixing trajectories, or a page the
// table does not know.
func (o *LeafOwners) Owner(p storage.PageID) (id trajectory.ID, ok bool) {
	if int(p) >= len(o.byPage) {
		return 0, false
	}
	e := o.byPage[p]
	return e.id, e.set
}

// note records n's owner, or clears its page's entry when n has none.
func (o *LeafOwners) note(n *Node) {
	id, ok := soleOwner(n)
	o.set(n.Page, id, ok)
}

func (o *LeafOwners) set(p storage.PageID, id trajectory.ID, ok bool) {
	if int(p) >= len(o.byPage) {
		if !ok {
			return
		}
		o.byPage = append(o.byPage, make([]leafOwner, int(p)+1-len(o.byPage))...)
	}
	o.byPage[p] = leafOwner{id: id, set: ok}
}

// equal reports whether both tables name the same owner for every page.
func (o *LeafOwners) equal(other *LeafOwners) bool {
	for p := 0; p < max(len(o.byPage), len(other.byPage)); p++ {
		a, aok := o.Owner(storage.PageID(p))
		b, bok := other.Owner(storage.PageID(p))
		if aok != bok || a != b {
			return false
		}
	}
	return true
}

// soleOwner returns the trajectory of every entry of n when n is a
// non-empty leaf whose entries all belong to one trajectory.
func soleOwner(n *Node) (trajectory.ID, bool) {
	if !n.Leaf || len(n.Leaves) == 0 {
		return 0, false
	}
	id := n.Leaves[0].TrajID
	for i := 1; i < len(n.Leaves); i++ {
		if n.Leaves[i].TrajID != id {
			return 0, false
		}
	}
	return id, true
}

// TrackOwners builds the leaf-owner table with one walk of the tree; from
// then on WriteNode keeps it in step. When the walk fails the store keeps
// no table and returns the walk's error.
func (s *NodeStore) TrackOwners() error {
	o := &LeafOwners{}
	err := s.Walk(func(n *Node, _ int, _ PathStep) error {
		o.note(n)
		return nil
	})
	if err != nil {
		s.owners = nil
		return err
	}
	s.owners = o
	return nil
}

// Owners returns the leaf-owner table, nil when TrackOwners has not built
// one.
func (s *NodeStore) Owners() *LeafOwners { return s.owners }

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
// tree walk, behind CheckInvariants, TrackOwners and TB-/STR-tree
// build-state recovery.
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
// entry), every leaf passes shape.Leaf, the node counter matches the walk,
// and the leaf-owner table, when tracked, equals the one the walk derives
// from the pages. It returns the total number of leaf entries.
func (s *NodeStore) CheckInvariants(shape Shape) (int, error) {
	if s.meta.Root == storage.NilPage && s.meta.Height != 0 {
		return 0, fmt.Errorf("index: empty tree with height %d", s.meta.Height)
	}
	entries, visited := 0, 0
	fresh := &LeafOwners{}
	err := s.Walk(func(n *Node, depth int, up PathStep) error {
		visited++
		fresh.note(n)
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
	if s.owners != nil && !s.owners.equal(fresh) {
		return 0, fmt.Errorf("index: leaf-owner table differs from the pages")
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
