package ntree

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"mstsearch/internal/storage"
	"mstsearch/internal/trajectory"
)

// makeFleet builds n seeded random-walk trajectories in the unit
// workspace over [0, 1], returning them plus a Lookup over the slice.
func makeFleet(n, samples int, seed int64) ([]trajectory.Trajectory, Lookup) {
	rng := rand.New(rand.NewSource(seed))
	trajs := make([]trajectory.Trajectory, n)
	for i := range trajs {
		tr := trajectory.Trajectory{ID: trajectory.ID(i + 1), Samples: make([]trajectory.Sample, samples)}
		x, y := rng.Float64(), rng.Float64()
		for j := 0; j < samples; j++ {
			tr.Samples[j] = trajectory.Sample{X: x, Y: y, T: float64(j) / float64(samples-1)}
			x += rng.NormFloat64() * 0.02
			y += rng.NormFloat64() * 0.02
		}
		trajs[i] = tr
	}
	byID := make(map[trajectory.ID]*trajectory.Trajectory, n)
	for i := range trajs {
		byID[trajs[i].ID] = &trajs[i]
	}
	return trajs, func(id trajectory.ID) *trajectory.Trajectory { return byID[id] }
}

// TestBuildInvariants grows trees through every split regime — single
// root leaf, one split, multi-level — and checks the full structural
// invariant set (stored pivot distances exact, covering radii cover,
// MBB/sample aggregates contain) after each growth stage.
func TestBuildInvariants(t *testing.T) {
	for _, n := range []int{1, 5, 40, 150, 400} {
		trajs, lookup := makeFleet(n, 17, int64(n))
		tr := New(storage.NewFile(512), lookup)
		for i := range trajs {
			if err := tr.InsertTrajectory(&trajs[i]); err != nil {
				t.Fatalf("n=%d: insert %d: %v", n, trajs[i].ID, err)
			}
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if n >= 150 && tr.Height() < 2 {
			t.Fatalf("n=%d on 512 B pages stayed flat (height %d); splits untested", n, tr.Height())
		}
	}
}

// TestReopenThenInsert reopens a tree with Open part-way through a build
// and requires the rest of the build to write exactly the pages of a tree
// that was never reopened: the N-tree keeps no build state off its pages.
func TestReopenThenInsert(t *testing.T) {
	trajs, lookup := makeFleet(60, 9, 3)
	twinFile := storage.NewFile(512)
	twin := New(twinFile, lookup)
	split := -1
	for i := range trajs {
		nodes := twin.NumNodes()
		if err := twin.InsertTrajectory(&trajs[i]); err != nil {
			t.Fatal(err)
		}
		if split < 0 && i > 0 && twin.NumNodes() > nodes {
			split = i + 1
		}
	}
	if split < 0 {
		t.Fatal("the build never split a node")
	}

	for _, c := range []struct {
		name   string
		reopen func(i int) bool // reopen before inserting trajs[i]
	}{
		{"empty tree", func(i int) bool { return i == 0 }},
		{"half-built tree", func(i int) bool { return i == len(trajs)/2 }},
		{"just after a split", func(i int) bool { return i == split }},
		{"before every insert", func(int) bool { return true }},
	} {
		t.Run(c.name, func(t *testing.T) {
			f := storage.NewFile(512)
			tr := New(f, lookup)
			for i := range trajs {
				if c.reopen(i) {
					tr = Open(f, tr.Meta(), lookup)
				}
				if err := tr.InsertTrajectory(&trajs[i]); err != nil {
					t.Fatalf("insert %d: %v", i, err)
				}
			}
			if tr.Meta() != twin.Meta() {
				t.Fatalf("meta %+v, never-reopened twin %+v", tr.Meta(), twin.Meta())
			}
			if f.NumPages() != twinFile.NumPages() {
				t.Fatalf("%d pages, twin %d", f.NumPages(), twinFile.NumPages())
			}
			for id := storage.PageID(0); int(id) < f.NumPages(); id++ {
				a, errA := f.Read(id)
				b, errB := twinFile.Read(id)
				if errA != nil || errB != nil || !bytes.Equal(a, b) {
					t.Fatalf("page %d differs from the never-reopened twin (%v, %v)", id, errA, errB)
				}
			}
			if err := tr.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestBaseDist pins the base distance's contract: exact zero on self,
// symmetric, and +Inf exactly when the time spans are disjoint.
func TestBaseDist(t *testing.T) {
	trajs, _ := makeFleet(6, 11, 5)
	for i := range trajs {
		if d := BaseDist(&trajs[i], &trajs[i]); d > 1e-12 {
			t.Fatalf("self distance %g, want ~0", d)
		}
		for j := range trajs {
			a, b := BaseDist(&trajs[i], &trajs[j]), BaseDist(&trajs[j], &trajs[i])
			if math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("asymmetric base distance: %v vs %v", a, b)
			}
		}
	}
	late := trajectory.Trajectory{ID: 99, Samples: []trajectory.Sample{{X: 0, Y: 0, T: 5}, {X: 1, Y: 1, T: 6}}}
	if d := BaseDist(&trajs[0], &late); !math.IsInf(d, 1) {
		t.Fatalf("disjoint spans: %v, want +Inf", d)
	}
}
