package mstsearch

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"

	"mstsearch/internal/testutil"
)

func TestRangeQueryMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	trajs := fleet(rng, 25, 40)
	for _, kind := range []IndexKind{RTree3D, TBTree} {
		db, err := NewDB(kind, trajs)
		if err != nil {
			t.Fatal(err)
		}
		for q := 0; q < 20; q++ {
			minX, minY := rng.Float64()*80, rng.Float64()*80
			t1 := rng.Float64() * 8
			hits, err := db.Range(context.Background(), Window{minX, minY, minX + 20, minY + 20}, Interval{t1, t1 + 2})
			if err != nil {
				t.Fatal(err)
			}
			want := 0
			for i := range trajs {
				tr := &trajs[i]
				for s := 0; s < tr.NumSegments(); s++ {
					seg := tr.Segment(s)
					lo, hi := seg.A.T, seg.B.T
					sMinX, sMaxX := math.Min(seg.A.X, seg.B.X), math.Max(seg.A.X, seg.B.X)
					sMinY, sMaxY := math.Min(seg.A.Y, seg.B.Y), math.Max(seg.A.Y, seg.B.Y)
					if hi >= t1 && lo <= t1+2 &&
						sMaxX >= minX && sMinX <= minX+20 &&
						sMaxY >= minY && sMinY <= minY+20 {
						want++
					}
				}
			}
			if len(hits) != want {
				t.Fatalf("%s query %d: got %d hits, want %d", kind, q, len(hits), want)
			}
		}
	}
}

func TestNearestFacade(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	trajs := fleet(rng, 30, 30)
	db, err := NewDB(RTree3D, trajs)
	if err != nil {
		t.Fatal(err)
	}
	// Query at the exact position of object 5 at t=4: object 5 must win
	// with distance ~0.
	p := trajs[4].At(4)
	res, err := db.Nearest(context.Background(), p.X, p.Y, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("results = %d", len(res))
	}
	if res[0].TrajID != 5 || res[0].Dist > 1e-9 {
		t.Fatalf("top neighbour = %+v, want object 5 at 0", res[0])
	}
	if res[0].Dist > res[1].Dist || res[1].Dist > res[2].Dist {
		t.Fatal("neighbours must be sorted by distance")
	}
	// Instant outside every lifespan.
	res, err = db.Nearest(context.Background(), 0, 0, 1e9, 2)
	if err != nil || len(res) != 0 {
		t.Fatalf("no-alive instant: %v, %v", res, err)
	}
}

func TestRelaxedFacade(t *testing.T) {
	// Object 2 repeats object 1's course 3 time units later over a longer
	// lifespan; a relaxed query with object 1's motion must match object 2
	// near-perfectly despite the shift.
	line := func(id ID, t0, dur float64, n int, yOff float64) Trajectory {
		tr := Trajectory{ID: id}
		for i := 0; i < n; i++ {
			f := float64(i) / float64(n-1)
			tr.Samples = append(tr.Samples, Sample{X: 50 * f, Y: yOff, T: t0 + dur*f})
		}
		return tr
	}
	a := line(1, 0, 10, 11, 0)
	b := line(2, 0, 16, 17, 0)
	// b's motion: stand still 3 units, then drive the course.
	for i := range b.Samples {
		tt := b.Samples[i].T
		switch {
		case tt < 3:
			b.Samples[i].X = 0
		case tt > 13:
			b.Samples[i].X = 50
		default:
			b.Samples[i].X = 50 * (tt - 3) / 10
		}
	}
	c := line(3, 0, 16, 17, 40) // far away
	db, err := NewDB(TBTree, []Trajectory{b, c})
	if err != nil {
		t.Fatal(err)
	}
	q := a.Clone()
	q.ID = 0
	res, err := db.Relaxed(context.Background(), &q, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 || res[0].TrajID != 2 {
		t.Fatalf("relaxed results = %+v", res)
	}
	if math.Abs(res[0].Offset-3) > 0.05 {
		t.Fatalf("offset = %v, want ≈3", res[0].Offset)
	}
	if res[0].Dissim > 0.01 {
		t.Fatalf("relaxed dissim = %v, want ≈0", res[0].Dissim)
	}
}

func TestConcurrentQueries(t *testing.T) {
	testutil.CheckGoroutines(t)
	rng := rand.New(rand.NewSource(9))
	trajs := fleet(rng, 30, 40)
	db, err := NewDB(RTree3D, trajs)
	if err != nil {
		t.Fatal(err)
	}
	queries := make([]Trajectory, 8)
	for i := range queries {
		q := trajs[i].Clone()
		q.ID = 0
		queries[i] = q
	}
	var wg sync.WaitGroup
	errs := make(chan error, len(queries))
	for i := range queries {
		wg.Add(1)
		go func(q Trajectory, want ID) {
			defer wg.Done()
			resp, err := db.Query(context.Background(), Request{Q: &q, Interval: Interval{0, 10}, K: 1})
			if err != nil {
				errs <- err
				return
			}
			res := resp.Results
			if len(res) != 1 || res[0].TrajID != want {
				errs <- fmt.Errorf("query for %d returned %+v", want, res)
			}
		}(queries[i], ID(i+1))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestEstimateQueryCost(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	trajs := fleet(rng, 40, 60)
	db, err := NewDB(RTree3D, trajs)
	if err != nil {
		t.Fatal(err)
	}
	q := trajs[3].Clone()
	q.ID = 0
	est1, err := db.EstimateQueryCost(&q, 2, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	est10, err := db.EstimateQueryCost(&q, 2, 8, 10)
	if err != nil {
		t.Fatal(err)
	}
	if est1.CorridorRadius <= 0 || est1.ExpectedLeafPages < 1 {
		t.Fatalf("degenerate estimate %+v", est1)
	}
	if est10.CorridorRadius < est1.CorridorRadius ||
		est10.ExpectedSegments < est1.ExpectedSegments {
		t.Fatalf("k=10 estimate below k=1: %+v vs %+v", est10, est1)
	}
	if est1.RangeSelectivity <= 0 || est1.RangeSelectivity > 1 {
		t.Fatalf("selectivity out of range: %+v", est1)
	}
}

func TestEstimateRangeCountTracksActual(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	trajs := fleet(rng, 40, 60)
	db, err := NewDB(RTree3D, trajs)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		minX, minY := rng.Float64()*60, rng.Float64()*60
		t1 := rng.Float64() * 5
		est, err := db.EstimateRange(Window{minX, minY, minX + 40, minY + 40}, Interval{t1, t1 + 4})
		if err != nil {
			t.Fatal(err)
		}
		hits, err := db.Range(context.Background(), Window{minX, minY, minX + 40, minY + 40}, Interval{t1, t1 + 4})
		if err != nil {
			t.Fatal(err)
		}
		truth := float64(len(hits))
		if truth < 100 {
			continue
		}
		if est < truth/4 || est > truth*4 {
			t.Fatalf("query %d: estimate %.0f vs actual %.0f", i, est, truth)
		}
	}
}

func TestTopologyQuery(t *testing.T) {
	mk := func(id ID, pts ...[3]float64) Trajectory {
		tr := Trajectory{ID: id}
		for _, p := range pts {
			tr.Samples = append(tr.Samples, Sample{X: p[0], Y: p[1], T: p[2]})
		}
		return tr
	}
	trajs := []Trajectory{
		mk(1, [3]float64{12, 12, 0}, [3]float64{18, 18, 10}), // inside
		mk(2, [3]float64{0, 15, 0}, [3]float64{40, 15, 10}),  // cross
		mk(3, [3]float64{0, 15, 0}, [3]float64{15, 15, 10}),  // enter
		mk(4, [3]float64{0, 0, 0}, [3]float64{5, 5, 10}),     // disjoint
		mk(5, [3]float64{15, 15, 0}, [3]float64{40, 15, 10}), // leave
	}
	for _, kind := range IndexKinds() {
		db, err := NewDB(kind, trajs)
		if err != nil {
			t.Fatal(err)
		}
		res, err := db.Topology(context.Background(), Window{10, 10, 20, 20}, Interval{0, 10})
		if err != nil {
			t.Fatal(err)
		}
		want := map[ID]string{1: "inside", 2: "cross", 3: "enter", 5: "leave"}
		if len(res) != len(want) {
			t.Fatalf("%s: %d results: %+v", kind, len(res), res)
		}
		for _, r := range res {
			if want[r.TrajID] != r.Relation {
				t.Fatalf("%s: traj %d = %s, want %s", kind, r.TrajID, r.Relation, want[r.TrajID])
			}
			if r.InsideDuration <= 0 {
				t.Fatalf("%s: traj %d zero inside duration", kind, r.TrajID)
			}
		}
		// The inside trajectory spends the whole window inside.
		if res[0].TrajID != 1 || res[0].InsideDuration < 10-1e-9 {
			t.Fatalf("%s: inside duration = %+v", kind, res[0])
		}
	}
}

func TestWarmBufferCachesAcrossQueries(t *testing.T) {
	testutil.CheckGoroutines(t)
	rng := rand.New(rand.NewSource(55))
	// Large enough that the paper's 10 % buffer policy yields a pool that
	// can actually hold a root-to-leaf path.
	trajs := fleet(rng, 150, 60)
	db, err := NewDB(RTree3D, trajs)
	if err != nil {
		t.Fatal(err)
	}
	q := trajs[4].Clone()
	q.ID = 0
	resp, err := db.Query(context.Background(), Request{Q: &q, Interval: Interval{2, 6}, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	res1, s1 := resp.Results, resp.Stats
	resp, err = db.Query(context.Background(), Request{Q: &q, Interval: Interval{2, 6}, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	res2, s2 := resp.Results, resp.Stats
	for i := range res1 {
		if res1[i].TrajID != res2[i].TrajID {
			t.Fatal("warm buffer changed results")
		}
	}
	if s2.PageReads >= s1.PageReads && s1.PageReads > 0 {
		t.Fatalf("second query should hit the warm cache: %d then %d reads",
			s1.PageReads, s2.PageReads)
	}
	// Mutation invalidates the warm pool but keeps correctness.
	extra := fleet(rng, 151, 60)[150]
	extra.ID = 999
	if err := db.Add(extra); err != nil {
		t.Fatal(err)
	}
	q2 := extra.Clone()
	q2.ID = 0
	resp, err = db.Query(context.Background(), Request{Q: &q2, Interval: Interval{0, 10}, K: 1})
	if err != nil {
		t.Fatal(err)
	}
	res3 := resp.Results
	if len(res3) != 1 || res3[0].TrajID != 999 {
		t.Fatalf("post-mutation query wrong: %+v", res3)
	}
	// Warm pool stays race-free under parallel queries.
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _ = db.Query(context.Background(), Request{Q: &q, Interval: Interval{2, 6}, K: 1})
		}()
	}
	wg.Wait()
}

// TestPoolWarmByDefault: a DB reads through its shared buffer pool however
// it came into being, with no opt-in call, so a repeated query is served
// partly from the frames the first run cached.
func TestPoolWarmByDefault(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	// Large enough that the paper's 10 % buffer policy yields a pool that
	// can actually hold a root-to-leaf path.
	trajs := fleet(rng, 100, 60)
	built, err := NewDB(RTree3D, trajs)
	if err != nil {
		t.Fatal(err)
	}
	addAll := func(t *testing.T, db *DB) {
		t.Helper()
		for i := range trajs {
			if err := db.Add(trajs[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	closeAtEnd := func(t *testing.T, db *DB) *DB {
		t.Cleanup(func() {
			if err := db.Close(); err != nil {
				t.Error(err)
			}
		})
		return db
	}
	builds := []struct {
		name string
		open func(t *testing.T) (*DB, error)
	}{
		{"Open+Add", func(t *testing.T) (*DB, error) {
			db := Open(RTree3D)
			addAll(t, db)
			return db, nil
		}},
		{"NewDB", func(*testing.T) (*DB, error) { return built, nil }},
		{"Load", func(t *testing.T) (*DB, error) {
			path := filepath.Join(t.TempDir(), "snap")
			if err := built.Save(path); err != nil {
				return nil, err
			}
			return Load(path)
		}},
		{"OpenDurable", func(t *testing.T) (*DB, error) {
			db, err := OpenDurable(t.TempDir(), RTree3D, DurableOptions{Sync: SyncOff})
			if err != nil {
				return nil, err
			}
			addAll(t, closeAtEnd(t, db))
			return db, nil
		}},
		{"CloneDurable", func(t *testing.T) (*DB, error) {
			db, err := built.CloneDurable(t.TempDir(), DurableOptions{Sync: SyncOff})
			if err != nil {
				return nil, err
			}
			return closeAtEnd(t, db), nil
		}},
	}
	q := trajs[4].Clone()
	q.ID = 0
	req := Request{Q: &q, Interval: Interval{T1: 2, T2: 6}, K: 2}
	for _, b := range builds {
		t.Run(b.name, func(t *testing.T) {
			db, err := b.open(t)
			if err != nil {
				t.Fatal(err)
			}
			var reads [2]uint64
			for i := range reads {
				resp, err := db.Query(context.Background(), req)
				if err != nil {
					t.Fatal(err)
				}
				reads[i] = resp.Stats.PageReads
			}
			if reads[0] == 0 || reads[1] >= reads[0] {
				t.Fatalf("a repeated query read %d pages after %d; want fewer (warm pool)", reads[1], reads[0])
			}
		})
	}
}
