package mstsearch

import (
	"errors"
	"fmt"
	"strings"

	"mstsearch/internal/index"
	"mstsearch/internal/ntree"
	"mstsearch/internal/rtree"
	"mstsearch/internal/storage"
	"mstsearch/internal/strtree"
	"mstsearch/internal/tbtree"
)

// IndexKind selects the index structure backing a DB.
type IndexKind int

// The index structures a DB can run on. The first three are the
// R-tree-family structures of the paper's §4.5 — all answer the same
// queries: the 3D R-tree discriminates purely spatially (fastest short
// queries), the TB-tree bundles each trajectory's segments into dedicated
// leaves (smallest index, best I/O on long queries), and the STR-tree sits
// between the two. The N-tree is a metric-space index over whole
// trajectories (pivots and covering radii instead of segment MBBs): it
// answers the same k-MST queries and additionally serves exact kNN under
// the non-DISSIM metrics (DTW/LCSS/EDR), which MBB geometry cannot bound.
const (
	RTree3D IndexKind = iota
	TBTree
	STRTree
	NTree
)

// kindSpec is one registry row: the canonical display name (String) and
// the lowercase spellings ParseIndexKind accepts for it.
type kindSpec struct {
	kind    IndexKind
	name    string
	aliases []string
}

// kindRegistry is the single source of truth for kind naming. Every
// binary and the persistence layer resolve kinds through it, so adding a
// kind here is the whole registration step.
var kindRegistry = []kindSpec{
	{RTree3D, "3D R-tree", []string{"rtree", "r", "3d", "3d r-tree"}},
	{TBTree, "TB-tree", []string{"tb", "tbtree", "tb-tree"}},
	{STRTree, "STR-tree", []string{"str", "strtree", "str-tree"}},
	{NTree, "N-tree", []string{"ntree", "n", "n-tree", "metric"}},
}

// String names the structure.
func (k IndexKind) String() string {
	for _, s := range kindRegistry {
		if s.kind == k {
			return s.name
		}
	}
	return fmt.Sprintf("IndexKind(%d)", int(k))
}

// Valid reports whether k is a registered index kind.
func (k IndexKind) Valid() bool {
	for _, s := range kindRegistry {
		if s.kind == k {
			return true
		}
	}
	return false
}

// Metric reports whether the kind is a metric-space index: one that can
// serve exact kNN under every Request.Metric, not only DISSIM.
func (k IndexKind) Metric() bool { return k == NTree }

// ErrUnknownIndexKind reports an index kind name or value no registry row
// matches — the one typed error every kind-resolving surface (CLI flags,
// snapshot headers, WAL kind records) returns.
var ErrUnknownIndexKind = errors.New("mstsearch: unknown index kind")

// ParseIndexKind resolves a kind name (case-insensitively) to its
// IndexKind — the inverse of IndexKind.String, which it also accepts.
func ParseIndexKind(s string) (IndexKind, error) {
	t := strings.ToLower(strings.TrimSpace(s))
	for _, spec := range kindRegistry {
		if t == strings.ToLower(spec.name) {
			return spec.kind, nil
		}
		for _, a := range spec.aliases {
			if t == a {
				return spec.kind, nil
			}
		}
	}
	return 0, fmt.Errorf("%w: %q", ErrUnknownIndexKind, s)
}

// IndexKinds returns every registered kind in declaration order — the
// list CLI fallback loops and test matrices iterate.
func IndexKinds() []IndexKind {
	out := make([]IndexKind, len(kindRegistry))
	for i, s := range kindRegistry {
		out[i] = s.kind
	}
	return out
}

// errRebuildRequired is an engine's way of telling the DB that it cannot
// apply an incremental append and the index must be rebuilt from the
// trajectory store instead (the N-tree: a new tail segment changes the
// trajectory's distances to every pivot, which no local update can fix).
var errRebuildRequired = errors.New("mstsearch: index append requires rebuild")

// indexEngine adapts one concrete index structure to the DB's mutation
// and read paths. Engines are not safe for concurrent use on their own;
// the DB serializes calls through its lock.
type indexEngine interface {
	// meta returns the root metadata for the snapshot header.
	meta() index.Meta
	// view opens a read view of the index over the given pager. Search
	// code type-switches the result to the capability it needs
	// (index.Tree for MBB search, index.MetricTree for metric search).
	view(p storage.Pager) index.Index
	// insertTrajectory indexes one whole trajectory (the Add path). The
	// trajectory is already in the DB's store when this is called.
	insertTrajectory(tr *Trajectory) error
	// appendSegment indexes one new tail segment (the AppendSample
	// path); tr already includes the new sample. Engines that cannot
	// append incrementally return errRebuildRequired.
	appendSegment(e index.LeafEntry, tr *Trajectory) error
}

// newEngine binds a writable engine of the given kind to the tree m
// describes in the page file (Root NilPage for an empty tree). The DB's
// trajectory store backs metric engines' geometry lookups; callers must
// hold db.mu (write side) while mutating through the engine.
//
// An MBB engine's tree tracks its leaf-owner table from here on: one walk
// of the pages builds it, and every node write keeps it in step. Every
// engine is made here, so no path that installs pages (Load, OpenDurable,
// a replica re-seed) can leave the table stale. When the walk fails the
// tree keeps no table: the search then reads every leaf, and the damage
// surfaces where a query or the first insert reads the bad page.
func (db *DB) newEngine(kind IndexKind, file storage.Pager, m index.Meta) indexEngine {
	open := openRTree
	switch kind {
	case NTree:
		return &ntreeEngine{t: ntree.Open(file, m, db.lookupLocked)}
	case TBTree:
		open = openTBTree
	case STRTree:
		open = openSTRTree
	}
	t := open(file, m)
	_ = t.TrackOwners() // a failed walk leaves no table; see above
	return &mbbEngine{t: t, open: open}
}

// lookupLocked resolves a trajectory ID against the store for the metric
// engine. It runs inside engine calls, which the DB only makes under
// db.mu, so the unlocked get is safe.
func (db *DB) lookupLocked(id ID) *Trajectory { return db.get(id) }

// mbbTree is what the DB needs of an MBB tree kind: the k-MST read
// interface, its reopen information, its insertion and its leaf-owner
// table.
type mbbTree interface {
	index.Tree
	Meta() index.Meta
	Insert(index.LeafEntry) error
	InsertTrajectory(*Trajectory) error
	TrackOwners() error
	Owners() *index.LeafOwners
}

// The reopen functions of the MBB kinds, which a view opens per query.
func openRTree(p storage.Pager, m index.Meta) mbbTree   { return rtree.Open(p, m) }
func openTBTree(p storage.Pager, m index.Meta) mbbTree  { return tbtree.Open(p, m) }
func openSTRTree(p storage.Pager, m index.Meta) mbbTree { return strtree.Open(p, m) }

// mbbEngine adapts any MBB tree kind; only the tree and its reopen
// function differ between kinds.
type mbbEngine struct {
	t    mbbTree
	open func(storage.Pager, index.Meta) mbbTree
}

func (e *mbbEngine) meta() index.Meta { return e.t.Meta() }

func (e *mbbEngine) view(p storage.Pager) index.Index { return e.open(p, e.t.Meta()) }

func (e *mbbEngine) insertTrajectory(tr *Trajectory) error { return e.t.InsertTrajectory(tr) }

func (e *mbbEngine) appendSegment(le index.LeafEntry, _ *Trajectory) error {
	return e.t.Insert(le)
}

type ntreeEngine struct{ t *ntree.Tree }

func (e *ntreeEngine) meta() index.Meta { return e.t.Meta() }

func (e *ntreeEngine) view(p storage.Pager) index.Index {
	return ntree.Open(p, e.t.Meta(), e.t.Lookup())
}

func (e *ntreeEngine) insertTrajectory(tr *Trajectory) error { return e.t.InsertTrajectory(tr) }

func (e *ntreeEngine) appendSegment(_ index.LeafEntry, _ *Trajectory) error {
	return errRebuildRequired
}
