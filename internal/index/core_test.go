package index_test

import (
	"errors"
	"strings"
	"testing"

	"mstsearch/internal/gstd"
	"mstsearch/internal/index"
	"mstsearch/internal/rtree"
	"mstsearch/internal/storage"
	"mstsearch/internal/strtree"
	"mstsearch/internal/tbtree"
	"mstsearch/internal/trajectory"
)

// checkedTree is what the corruption cases need of an MBB tree kind.
type checkedTree interface {
	index.Tree
	Meta() index.Meta
	InsertTrajectory(*trajectory.Trajectory) error
	CheckInvariants() (int, error)
	TrackOwners() error
	Owners() *index.LeafOwners
}

var mbbKinds = []struct {
	name  string
	build func(storage.Pager) checkedTree
	open  func(storage.Pager, index.Meta) checkedTree
}{
	{"rtree",
		func(p storage.Pager) checkedTree { return rtree.New(p) },
		func(p storage.Pager, m index.Meta) checkedTree { return rtree.Open(p, m) }},
	{"strtree",
		func(p storage.Pager) checkedTree { return strtree.New(p) },
		func(p storage.Pager, m index.Meta) checkedTree { return strtree.Open(p, m) }},
	{"tbtree",
		func(p storage.Pager) checkedTree { return tbtree.New(p) },
		func(p storage.Pager, m index.Meta) checkedTree { return tbtree.Open(p, m) }},
}

// smallPager reports a quarter of the real page size, so a tree opened
// over it has fan-outs its full pages overflow.
type smallPager struct{ storage.Pager }

func (p smallPager) PageSize() int { return p.Pager.PageSize() / 4 }

func readNode(t *testing.T, f *storage.File, id storage.PageID) *index.Node {
	t.Helper()
	n, err := index.ReadNode(f, id)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func writeNode(t *testing.T, f *storage.File, n *index.Node) {
	t.Helper()
	if err := index.WriteNode(f, n); err != nil {
		t.Fatal(err)
	}
}

// firstLeaf descends the first child of every node down to a leaf.
func firstLeaf(t *testing.T, f *storage.File, root storage.PageID) *index.Node {
	t.Helper()
	n := readNode(t, f, root)
	for !n.Leaf {
		n = readNode(t, f, n.Children[0].Page)
	}
	return n
}

// TestCheckInvariantsReportsCorruption corrupts one thing per case in a
// small tree of each MBB kind and requires the shared walk to report it.
func TestCheckInvariantsReportsCorruption(t *testing.T) {
	fleet := gstd.Generate(gstd.Config{NumObjects: 12, SamplesPerObject: 40, Seed: 5}).Trajs
	cases := []struct {
		name  string
		kinds string // the kinds the rule applies to; empty for all
		want  string
		// corrupt damages the pages in f or the metadata, returning the
		// pager and Meta to reopen the tree with.
		corrupt func(t *testing.T, f *storage.File, m index.Meta) (storage.Pager, index.Meta)
	}{
		{"child MBB does not contain its node", "", "not contained",
			func(t *testing.T, f *storage.File, m index.Meta) (storage.Pager, index.Meta) {
				root := readNode(t, f, m.Root)
				root.Children[0].MBB.MaxX = root.Children[0].MBB.MinX
				writeNode(t, f, root)
				return f, m
			}},
		{"leaf at the wrong depth", "", "at depth",
			func(t *testing.T, f *storage.File, m index.Meta) (storage.Pager, index.Meta) {
				m.Height++
				return f, m
			}},
		{"overflowing node", "", "outside",
			func(t *testing.T, f *storage.File, m index.Meta) (storage.Pager, index.Meta) {
				return smallPager{f}, m
			}},
		{"wrong node counter", "", "counter says",
			func(t *testing.T, f *storage.File, m index.Meta) (storage.Pager, index.Meta) {
				m.Nodes++
				return f, m
			}},
		{"R-tree underflow", "rtree", "outside",
			func(t *testing.T, f *storage.File, m index.Meta) (storage.Pager, index.Meta) {
				leaf := firstLeaf(t, f, m.Root)
				leaf.Leaves = leaf.Leaves[:1]
				writeNode(t, f, leaf)
				return f, m
			}},
		{"TB-tree leaf mixes trajectories", "tbtree", "mixes trajectories",
			func(t *testing.T, f *storage.File, m index.Meta) (storage.Pager, index.Meta) {
				leaf := firstLeaf(t, f, m.Root)
				leaf.Leaves[1].TrajID += 1000
				writeNode(t, f, leaf)
				return f, m
			}},
		{"TB-tree leaf skips a SeqNo", "tbtree", "non-consecutive",
			func(t *testing.T, f *storage.File, m index.Meta) (storage.Pager, index.Meta) {
				leaf := firstLeaf(t, f, m.Root)
				leaf.Leaves[1].SeqNo++
				writeNode(t, f, leaf)
				return f, m
			}},
	}
	for _, kind := range mbbKinds {
		for _, c := range cases {
			if c.kinds != "" && c.kinds != kind.name {
				continue
			}
			t.Run(kind.name+"/"+c.name, func(t *testing.T) {
				f := storage.NewFile(1024)
				tr := kind.build(f)
				for i := range fleet {
					if err := tr.InsertTrajectory(&fleet[i]); err != nil {
						t.Fatal(err)
					}
				}
				if tr.Height() < 2 {
					t.Fatalf("height %d: the cases need an internal root", tr.Height())
				}
				if _, err := tr.CheckInvariants(); err != nil {
					t.Fatalf("intact tree: %v", err)
				}
				p, m := c.corrupt(t, f, tr.Meta())
				_, err := kind.open(p, m).CheckInvariants()
				if err == nil || !strings.Contains(err.Error(), c.want) {
					t.Fatalf("CheckInvariants = %v, want an error containing %q", err, c.want)
				}
			})
		}
	}
}

// TestFirstInsertAfterOpenReportsDamage damages one leaf of a reopened
// TB- or STR-tree and requires the first insert, whose walk recovers the
// build state, to return a typed error instead of panicking.
func TestFirstInsertAfterOpenReportsDamage(t *testing.T) {
	fleet := gstd.Generate(gstd.Config{NumObjects: 12, SamplesPerObject: 40, Seed: 6}).Trajs
	extra := gstd.Generate(gstd.Config{NumObjects: 1, SamplesPerObject: 10, Seed: 7}).Trajs[0]
	extra.ID = 999
	damages := []struct {
		name   string
		damage func(t *testing.T, f *storage.File, leaf *index.Node)
	}{
		{"leaf does not decode", func(t *testing.T, f *storage.File, leaf *index.Node) {
			buf, err := f.Read(leaf.Page)
			if err != nil {
				t.Fatal(err)
			}
			bad := append([]byte(nil), buf...)
			bad[1], bad[2] = 0xFF, 0xFF // an entry count no page holds
			if err := f.Write(leaf.Page, bad); err != nil {
				t.Fatal(err)
			}
		}},
		{"leaf holds no entries", func(t *testing.T, f *storage.File, leaf *index.Node) {
			leaf.Leaves = nil
			writeNode(t, f, leaf)
		}},
		{"leaf fails its checksum", func(t *testing.T, f *storage.File, leaf *index.Node) {
			if err := f.CorruptPage(leaf.Page, 20); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, kind := range mbbKinds {
		if kind.name == "rtree" {
			continue // keeps no build state, so its insert walks nothing
		}
		for _, d := range damages {
			t.Run(kind.name+"/"+d.name, func(t *testing.T) {
				f := storage.NewFile(1024)
				tr := kind.build(f)
				for i := range fleet {
					if err := tr.InsertTrajectory(&fleet[i]); err != nil {
						t.Fatal(err)
					}
				}
				d.damage(t, f, firstLeaf(t, f, tr.Meta().Root))
				err := kind.open(f, tr.Meta()).InsertTrajectory(&extra)
				if !errors.Is(err, index.ErrCorruptNode) && !errors.As(err, new(storage.ErrPageCorrupt)) {
					t.Fatalf("first insert after Open = %v, want a typed corruption error", err)
				}
			})
		}
	}
}

// TestLeafOwnersTrackPages builds each MBB kind with its leaf-owner table
// tracked from the empty tree on, as a DB does, and requires the table
// WriteNode maintained to name, for every page, what a walk of the built
// pages names: the one trajectory of a single-trajectory leaf, nothing for
// any other node. A leaf rewritten behind the store's back makes the
// invariant walk report the stale table, and a damaged page makes the
// building walk fail with a typed error and leave no table.
func TestLeafOwnersTrackPages(t *testing.T) {
	fleet := gstd.Generate(gstd.Config{NumObjects: 12, SamplesPerObject: 120, Seed: 8}).Trajs
	for _, kind := range mbbKinds {
		t.Run(kind.name, func(t *testing.T) {
			f := storage.NewFile(1024)
			tr := kind.build(f)
			if err := tr.TrackOwners(); err != nil {
				t.Fatal(err)
			}
			for i := range fleet {
				if err := tr.InsertTrajectory(&fleet[i]); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := tr.CheckInvariants(); err != nil {
				t.Fatalf("intact tree: %v", err)
			}
			walked := kind.open(f, tr.Meta())
			if err := walked.TrackOwners(); err != nil {
				t.Fatal(err)
			}
			var owned []*index.Node
			for p := storage.PageID(0); int(p) < f.NumPages(); p++ {
				got, gok := tr.Owners().Owner(p)
				want, wok := walked.Owners().Owner(p)
				if got != want || gok != wok {
					t.Fatalf("page %d: maintained owner (%d, %t), walked (%d, %t)", p, got, gok, want, wok)
				}
				if n := readNode(t, f, p); wok {
					owned = append(owned, n)
					for _, e := range n.Leaves {
						if !n.Leaf || e.TrajID != want {
							t.Fatalf("page %d owned by %d holds an entry of %d", p, want, e.TrajID)
						}
					}
				}
			}
			if len(owned) == 0 {
				t.Fatal("no leaf holds one trajectory only; the comparison was vacuous")
			}

			leaf := owned[0]
			for i := range leaf.Leaves {
				leaf.Leaves[i].TrajID += 1000 // another sole trajectory
			}
			writeNode(t, f, leaf)
			if _, err := tr.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "leaf-owner table") {
				t.Fatalf("CheckInvariants after a leaf rewritten behind the store = %v", err)
			}

			if err := f.CorruptPage(leaf.Page, 20); err != nil {
				t.Fatal(err)
			}
			damaged := kind.open(f, tr.Meta())
			if err := damaged.TrackOwners(); !errors.Is(err, index.ErrCorruptNode) && !errors.As(err, new(storage.ErrPageCorrupt)) {
				t.Fatalf("TrackOwners over a damaged page = %v, want a typed corruption error", err)
			}
			if damaged.Owners() != nil {
				t.Fatal("a failed walk left a leaf-owner table")
			}
		})
	}
}

// failingWrites fails every page write.
type failingWrites struct{ storage.Pager }

func (failingWrites) Write(storage.PageID, []byte) error { return errors.New("write refused") }

// TestLeafOwnersFollowWrites drives one NodeStore's table write by write:
// a single-trajectory leaf sets its page's owner, a mixed leaf or an
// internal node clears it, and a failed write clears it too, since the
// page may then hold anything.
func TestLeafOwnersFollowWrites(t *testing.T) {
	f := storage.NewFile(1024)
	s := index.NewNodeStore(f, index.Meta{Root: storage.NilPage})
	if err := s.TrackOwners(); err != nil {
		t.Fatal(err)
	}
	n, err := s.AllocNode(true)
	if err != nil {
		t.Fatal(err)
	}
	check := func(step string, wantID trajectory.ID, wantOK bool) {
		t.Helper()
		if id, ok := s.Owners().Owner(n.Page); id != wantID || ok != wantOK {
			t.Fatalf("%s: Owner = (%d, %t), want (%d, %t)", step, id, ok, wantID, wantOK)
		}
	}
	check("allocated", 0, false)
	seg := index.LeafEntry{TrajID: 7}
	n.Leaves = []index.LeafEntry{seg, seg}
	if err := s.WriteNode(n); err != nil {
		t.Fatal(err)
	}
	check("one trajectory", 7, true)
	n.Leaves = append(n.Leaves, index.LeafEntry{TrajID: 8})
	if err := s.WriteNode(n); err != nil {
		t.Fatal(err)
	}
	check("two trajectories", 0, false)
	n.Leaves = n.Leaves[:1]
	if err := s.WriteNode(n); err != nil {
		t.Fatal(err)
	}
	check("one again", 7, true)
	n.Leaf, n.Leaves, n.Children = false, nil, []index.ChildEntry{{Page: 9}}
	if err := s.WriteNode(n); err != nil {
		t.Fatal(err)
	}
	check("internal node", 0, false)
	if _, ok := s.Owners().Owner(storage.PageID(1 << 20)); ok {
		t.Fatal("a page past the table has an owner")
	}

	n.Leaf, n.Leaves, n.Children = true, []index.LeafEntry{seg}, nil
	if err := s.WriteNode(n); err != nil {
		t.Fatal(err)
	}
	check("leaf again", 7, true)
	w := index.NewNodeStore(failingWrites{f}, index.Meta{Root: storage.NilPage})
	if err := w.TrackOwners(); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteNode(n); err == nil {
		t.Fatal("write through a failing pager succeeded")
	}
	if _, ok := w.Owners().Owner(n.Page); ok {
		t.Fatal("a failed write left its page an owner")
	}
}
