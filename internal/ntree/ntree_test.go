package ntree

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"mstsearch/internal/index"
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

// TestOpenReadOnly: a reopened tree serves reads over the same pages but
// rejects inserts with ErrReadOnly.
func TestOpenReadOnly(t *testing.T) {
	trajs, lookup := makeFleet(60, 9, 3)
	file := storage.NewFile(512)
	tr := New(file, lookup)
	for i := range trajs {
		if err := tr.InsertTrajectory(&trajs[i]); err != nil {
			t.Fatal(err)
		}
	}
	ro := Open(file, tr.Meta(), lookup)
	if !ro.ReadOnly() {
		t.Fatal("Open returned a writable tree")
	}
	if ro.Meta() != tr.Meta() {
		t.Fatalf("meta drifted across reopen: %+v vs %+v", ro.Meta(), tr.Meta())
	}
	if err := ro.CheckInvariants(); err != nil {
		t.Fatalf("reopened tree fails invariants: %v", err)
	}
	if err := ro.InsertTrajectory(&trajs[0]); !errors.Is(err, index.ErrReadOnly) {
		t.Fatalf("insert on reopened tree: %v, want ErrReadOnly", err)
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
