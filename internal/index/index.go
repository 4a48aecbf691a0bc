// Package index defines the node model shared by every R-tree-like
// structure in this library (the 3D R-tree, the TB-tree and the STR-tree),
// the on-page node codec, the paged-tree core every index kind embeds
// (core.go), and the Tree interface the k-MST search algorithm is written
// against. Because BFMSTSearch only needs best-first traversal over nodes
// with 3D MBBs and leaf-level trajectory segments, it runs unchanged on any
// structure implementing Tree — the property the paper emphasizes
// ("does not require any dedicated index structure").
package index

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"mstsearch/internal/debugassert"
	"mstsearch/internal/geom"
	"mstsearch/internal/storage"
	"mstsearch/internal/trajectory"
)

// LeafEntry is one indexed trajectory line segment: the motion of object
// TrajID between samples SeqNo and SeqNo+1.
type LeafEntry struct {
	TrajID trajectory.ID
	SeqNo  uint32
	Seg    geom.Segment
}

// MBB returns the entry's tight bounding box.
func (e LeafEntry) MBB() geom.MBB { return geom.MBBOfSegment(e.Seg) }

// ChildEntry is an internal-node entry: the bound of a subtree and the
// page holding its root.
type ChildEntry struct {
	MBB  geom.MBB
	Page storage.PageID
}

// Node is the in-memory form of one tree node. Exactly one of Leaves /
// Children is used, per Leaf. PrevLeaf/NextLeaf implement the TB-tree's
// per-trajectory doubly-linked leaf chain and are NilPage for R-tree
// nodes.
type Node struct {
	Page     storage.PageID
	Leaf     bool
	PrevLeaf storage.PageID
	NextLeaf storage.PageID
	Leaves   []LeafEntry
	Children []ChildEntry
}

// MBB computes the tight bound over the node's entries.
func (n *Node) MBB() geom.MBB {
	b := geom.EmptyMBB()
	if n.Leaf {
		for _, e := range n.Leaves {
			b = b.Expand(e.MBB())
		}
	} else {
		for _, c := range n.Children {
			b = b.Expand(c.MBB)
		}
	}
	return b
}

// Len returns the number of entries in the node.
func (n *Node) Len() int {
	if n.Leaf {
		return len(n.Leaves)
	}
	return len(n.Children)
}

// Index is the structure-agnostic read-side interface: what every index
// kind — MBB trees and metric trees alike — exposes to the layers above
// (stats, persistence, cost accounting). Search algorithms downcast to
// the capability interface they need: Tree for MBB best-first k-MST,
// MetricTree for pivot/radius pruning.
type Index interface {
	// Root returns the root node's page (NilPage for an empty index).
	Root() storage.PageID
	// Height returns the number of levels (1 = root is a leaf; 0 = empty).
	Height() int
	// NumNodes returns the total number of nodes, the denominator of the
	// pruning-power metric.
	NumNodes() int
}

// Tree is the read-side interface the MBB-based k-MST search consumes.
type Tree interface {
	Index
	// ReadNode fetches and decodes one node.
	ReadNode(id storage.PageID) (*Node, error)
}

// MetricTree is the read-side interface of a metric-space index: same
// page-level accounting as Tree, but nodes carry pivots and covering
// radii instead of raw segments. See metricnode.go for the node model.
type MetricTree interface {
	Index
	// ReadMetricNode fetches and decodes one metric node.
	ReadMetricNode(id storage.PageID) (*MetricNode, error)
}

// Node page layout (little endian):
//
//	[0]    flags: bit0 = leaf, bit1 = metric node (see metricnode.go)
//	[1:3]  entry count (uint16)
//	[3:7]  prev leaf page (uint32; TB-tree chains)
//	[7:11] next leaf page (uint32)
//	[11:12] padding
//	[12:]  entries
//
// Leaf entry (56 B):  trajID u32, seqNo u32, ax ay at bx by bt f64
// Child entry (52 B): minx miny mint maxx maxy maxt f64, page u32
const (
	nodeHeaderSize = 12
	leafEntrySize  = 56
	childEntrySize = 52
)

// MaxLeafEntries returns the leaf fan-out for a page size.
func MaxLeafEntries(pageSize int) int { return (pageSize - nodeHeaderSize) / leafEntrySize }

// MaxChildEntries returns the internal fan-out for a page size.
func MaxChildEntries(pageSize int) int { return (pageSize - nodeHeaderSize) / childEntrySize }

// ErrCorruptNode reports an undecodable page.
var ErrCorruptNode = errors.New("index: corrupt node page")

// EncodeNode serializes n into a page-sized buffer.
func EncodeNode(n *Node, pageSize int) ([]byte, error) {
	buf := make([]byte, pageSize)
	var flags byte
	if n.Leaf {
		flags |= 1
	}
	buf[0] = flags
	binary.LittleEndian.PutUint16(buf[1:3], uint16(n.Len()))
	binary.LittleEndian.PutUint32(buf[3:7], uint32(n.PrevLeaf))
	binary.LittleEndian.PutUint32(buf[7:11], uint32(n.NextLeaf))
	off := nodeHeaderSize
	putF := func(v float64) {
		binary.LittleEndian.PutUint64(buf[off:], math.Float64bits(v))
		off += 8
	}
	if n.Leaf {
		if len(n.Leaves) > MaxLeafEntries(pageSize) {
			return nil, fmt.Errorf("index: leaf overflow: %d entries", len(n.Leaves))
		}
		for _, e := range n.Leaves {
			if debugassert.Enabled {
				debugassert.Assertf(e.Seg.A.T <= e.Seg.B.T,
					"encoding leaf page %d: segment (traj %d seq %d) violates A.T <= B.T: %v > %v",
					n.Page, e.TrajID, e.SeqNo, e.Seg.A.T, e.Seg.B.T)
			}
			binary.LittleEndian.PutUint32(buf[off:], uint32(e.TrajID))
			off += 4
			binary.LittleEndian.PutUint32(buf[off:], e.SeqNo)
			off += 4
			putF(e.Seg.A.X)
			putF(e.Seg.A.Y)
			putF(e.Seg.A.T)
			putF(e.Seg.B.X)
			putF(e.Seg.B.Y)
			putF(e.Seg.B.T)
		}
	} else {
		if len(n.Children) > MaxChildEntries(pageSize) {
			return nil, fmt.Errorf("index: internal overflow: %d entries", len(n.Children))
		}
		for _, c := range n.Children {
			if debugassert.Enabled {
				debugassert.Assertf(c.MBB.WellFormed(),
					"encoding internal page %d: child (page %d) MBB not well-formed: %+v",
					n.Page, c.Page, c.MBB)
			}
			putF(c.MBB.MinX)
			putF(c.MBB.MinY)
			putF(c.MBB.MinT)
			putF(c.MBB.MaxX)
			putF(c.MBB.MaxY)
			putF(c.MBB.MaxT)
			binary.LittleEndian.PutUint32(buf[off:], uint32(c.Page))
			off += 4
		}
	}
	return buf, nil
}

// DecodeNode parses a node page.
func DecodeNode(page storage.PageID, buf []byte) (*Node, error) {
	if len(buf) < nodeHeaderSize {
		return nil, ErrCorruptNode
	}
	if buf[0]&flagMetric != 0 {
		// Metric pages (bit1) use a different entry layout; decoding one
		// as an MBB node would hand out garbage segments.
		return nil, ErrCorruptNode
	}
	n := &Node{
		Page:     page,
		Leaf:     buf[0]&1 != 0,
		PrevLeaf: storage.PageID(binary.LittleEndian.Uint32(buf[3:7])),
		NextLeaf: storage.PageID(binary.LittleEndian.Uint32(buf[7:11])),
	}
	count := int(binary.LittleEndian.Uint16(buf[1:3]))
	off := nodeHeaderSize
	getF := func() float64 {
		v := math.Float64frombits(binary.LittleEndian.Uint64(buf[off:]))
		off += 8
		return v
	}
	if n.Leaf {
		if nodeHeaderSize+count*leafEntrySize > len(buf) {
			return nil, ErrCorruptNode
		}
		n.Leaves = make([]LeafEntry, count)
		for i := 0; i < count; i++ {
			e := &n.Leaves[i]
			e.TrajID = trajectory.ID(binary.LittleEndian.Uint32(buf[off:]))
			off += 4
			e.SeqNo = binary.LittleEndian.Uint32(buf[off:])
			off += 4
			e.Seg.A.X = getF()
			e.Seg.A.Y = getF()
			e.Seg.A.T = getF()
			e.Seg.B.X = getF()
			e.Seg.B.Y = getF()
			e.Seg.B.T = getF()
			// The decoder never hands out entries violating the time
			// order invariant (NaN fails the comparison too).
			if !(e.Seg.A.T <= e.Seg.B.T) {
				return nil, ErrCorruptNode
			}
		}
	} else {
		if nodeHeaderSize+count*childEntrySize > len(buf) {
			return nil, ErrCorruptNode
		}
		n.Children = make([]ChildEntry, count)
		for i := 0; i < count; i++ {
			c := &n.Children[i]
			c.MBB.MinX = getF()
			c.MBB.MinY = getF()
			c.MBB.MinT = getF()
			c.MBB.MaxX = getF()
			c.MBB.MaxY = getF()
			c.MBB.MaxT = getF()
			c.Page = storage.PageID(binary.LittleEndian.Uint32(buf[off:]))
			off += 4
			// Malformed child bounds (min > max or NaN) are corruption,
			// not a decodable node.
			if !c.MBB.WellFormed() {
				return nil, ErrCorruptNode
			}
		}
	}
	return n, nil
}

// WriteNode encodes and stores n through the pager.
func WriteNode(p storage.Pager, n *Node) error {
	buf, err := EncodeNode(n, p.PageSize())
	if err != nil {
		return err
	}
	return p.Write(n.Page, buf)
}

// ReadNode fetches and decodes the node at id through the pager.
func ReadNode(p storage.Pager, id storage.PageID) (*Node, error) {
	buf, err := p.Read(id)
	if err != nil {
		return nil, err
	}
	return DecodeNode(id, buf)
}
