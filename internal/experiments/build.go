// Package experiments reproduces the paper's experimental study (§5):
// dataset construction (Trucks-like fleet + GSTD synthetics S0100…S1000),
// index building on the 3D R-tree and the TB-tree over 4 KB pages with the
// paper's buffering policy, the quality experiment of Fig. 9, the TD-TR
// compression illustration of Fig. 8, the dataset/index summary of
// Table 2, and the performance experiments Q1–Q3 of Fig. 10 (Table 3).
package experiments

import (
	"fmt"
	"time"

	"mstsearch/internal/gstd"
	"mstsearch/internal/index"
	"mstsearch/internal/rtree"
	"mstsearch/internal/storage"
	"mstsearch/internal/strtree"
	"mstsearch/internal/tbtree"
	"mstsearch/internal/trajectory"
	"mstsearch/internal/trucks"
)

// TreeKind selects an index structure.
type TreeKind int

// The structures of the paper's §4.5. The paper evaluates the 3D R-tree
// and the TB-tree; the STR-tree is available as an extension series.
const (
	RTree3D TreeKind = iota
	TBTree
	STRTree
)

// String returns the paper's name for the structure.
func (k TreeKind) String() string {
	switch k {
	case TBTree:
		return "TB-tree"
	case STRTree:
		return "STR-tree"
	default:
		return "3D R-tree"
	}
}

// TreeKinds lists the paper's two structures in presentation order;
// AllTreeKinds adds the STR-tree extension series.
var (
	TreeKinds    = []TreeKind{RTree3D, TBTree}
	AllTreeKinds = []TreeKind{RTree3D, TBTree, STRTree}
)

// BuiltIndex is a dataset indexed by one structure: the backing page file,
// reopen metadata, and build statistics.
type BuiltIndex struct {
	Kind      TreeKind
	File      *storage.File
	Meta      index.Meta
	BuildTime time.Duration
	open      func(storage.Pager, index.Meta) index.Tree
}

// BuildIndex inserts every segment of the dataset into a fresh index of
// the requested kind, trajectory by trajectory (the insertion order a MOD
// would see as histories are archived).
func BuildIndex(kind TreeKind, data *trajectory.Dataset) (*BuiltIndex, error) {
	f := storage.NewFile(storage.DefaultPageSize)
	b := &BuiltIndex{Kind: kind, File: f}
	var t interface {
		InsertTrajectory(*trajectory.Trajectory) error
		Meta() index.Meta
	}
	switch kind {
	case TBTree:
		t = tbtree.New(f)
		b.open = func(p storage.Pager, m index.Meta) index.Tree { return tbtree.Open(p, m) }
	case STRTree:
		t = strtree.New(f)
		b.open = func(p storage.Pager, m index.Meta) index.Tree { return strtree.Open(p, m) }
	default:
		t = rtree.New(f)
		b.open = func(p storage.Pager, m index.Meta) index.Tree { return rtree.Open(p, m) }
	}
	start := time.Now()
	for i := range data.Trajs {
		if err := t.InsertTrajectory(&data.Trajs[i]); err != nil {
			return nil, fmt.Errorf("experiments: %s build: %w", kind, err)
		}
	}
	b.BuildTime = time.Since(start)
	b.Meta = t.Meta()
	return b, nil
}

// SizeMB returns the index size in megabytes (pages × page size), the
// quantity reported in Table 2.
func (b *BuiltIndex) SizeMB() float64 {
	return float64(b.File.SizeBytes()) / (1024 * 1024)
}

// View reopens the index for querying behind the paper's buffer policy
// (10 % of the index, ≤1000 pages) and returns the buffer pool for I/O
// accounting.
func (b *BuiltIndex) View() (index.Tree, *storage.StripedPool) {
	bp := storage.NewStripedPool(b.File, storage.PaperCapacity(b.File.NumPages()), 1)
	return b.open(bp, b.Meta), bp
}

// SyntheticDataset generates the GSTD dataset of the given cardinality
// with the study's fixed parameters (Table 2: lognormal speeds, σ = 0.6,
// ~2000 positions per object). samplesPerObject ≤ 0 selects the paper's
// 2001.
func SyntheticDataset(numObjects, samplesPerObject int, seed int64) *trajectory.Dataset {
	cfg := gstd.Config{
		NumObjects:       numObjects,
		SamplesPerObject: samplesPerObject,
		Seed:             seed,
	}
	if samplesPerObject <= 0 {
		cfg.SamplesPerObject = 2001
	}
	return gstd.Generate(cfg)
}

// TrucksDataset generates the Trucks-like fleet (see DESIGN.md for the
// substitution rationale). scale ∈ (0, 1] shrinks both the fleet and the
// per-truck sampling for fast test runs; 1 reproduces the published
// cardinalities.
func TrucksDataset(scale float64, seed int64) *trajectory.Dataset {
	if scale <= 0 || scale > 1 {
		scale = 1
	}
	return trucks.Generate(trucks.Config{
		NumTrucks:      maxInt(3, int(273*scale)),
		TargetSegments: maxInt(60, int(112203*scale*scale)),
		Seed:           seed,
	})
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
