package mstsearch

import (
	"context"
	"math"
	"math/rand"
	"testing"
)

func fleet(rng *rand.Rand, n, samples int) []Trajectory {
	trajs := make([]Trajectory, n)
	for i := range trajs {
		tr := Trajectory{ID: ID(i + 1), Samples: make([]Sample, samples)}
		x, y := rng.Float64()*100, rng.Float64()*100
		for j := 0; j < samples; j++ {
			tr.Samples[j] = Sample{X: x, Y: y, T: 10 * float64(j) / float64(samples-1)}
			x += rng.NormFloat64()
			y += rng.NormFloat64()
		}
		trajs[i] = tr
	}
	return trajs
}

func TestDBRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	trajs := fleet(rng, 30, 40)
	for _, kind := range IndexKinds() {
		db, err := NewDB(kind, trajs)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if db.Len() != 30 || db.NumSegments() != 30*39 {
			t.Fatalf("%s: len=%d segs=%d", kind, db.Len(), db.NumSegments())
		}
		if db.IndexSizeMB() <= 0 {
			t.Fatalf("%s: zero index size", kind)
		}
		if got := db.Get(7); got == nil || got.ID != 7 {
			t.Fatalf("%s: Get(7) = %v", kind, got)
		}
		if db.Get(999) != nil {
			t.Fatalf("%s: Get(999) should be nil", kind)
		}
	}
}

func TestDBRejectsBadInput(t *testing.T) {
	db := Open(RTree3D)
	if err := db.Add(Trajectory{ID: 1}); err == nil {
		t.Fatal("empty trajectory must be rejected")
	}
	good := Trajectory{ID: 1, Samples: []Sample{{X: 0, Y: 0, T: 0}, {X: 1, Y: 1, T: 1}}}
	if err := db.Add(good); err != nil {
		t.Fatal(err)
	}
	if err := db.Add(good); err == nil {
		t.Fatal("duplicate ID must be rejected")
	}
}

func TestKMostSimilarFindsPlantedTwin(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	trajs := fleet(rng, 40, 50)
	for _, kind := range IndexKinds() {
		db, err := NewDB(kind, trajs)
		if err != nil {
			t.Fatal(err)
		}
		// Query: trajectory 11 with small noise → 11 must rank first.
		q := trajs[10].Clone()
		q.ID = 0
		for i := range q.Samples {
			q.Samples[i].X += rng.NormFloat64() * 0.05
			q.Samples[i].Y += rng.NormFloat64() * 0.05
		}
		resp, err := db.Query(context.Background(), Request{Q: &q, Interval: Interval{0, 10}, K: 3})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		res, stats := resp.Results, resp.Stats
		if len(res) != 3 {
			t.Fatalf("%s: %d results", kind, len(res))
		}
		if res[0].TrajID != 11 {
			t.Fatalf("%s: top = %d, want 11", kind, res[0].TrajID)
		}
		if res[0].Dissim > res[1].Dissim || res[1].Dissim > res[2].Dissim {
			t.Fatalf("%s: results unsorted: %+v", kind, res)
		}
		if stats.TotalNodes == 0 || stats.PruningPower < 0 {
			t.Fatalf("%s: bad stats %+v", kind, stats)
		}
	}
}

func TestKMostSimilarMatchesPairwiseDissimilarity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	trajs := fleet(rng, 15, 30)
	db, err := NewDB(TBTree, trajs)
	if err != nil {
		t.Fatal(err)
	}
	q := trajs[4].Clone()
	q.ID = 0
	resp, err := db.Query(context.Background(), Request{Q: &q, Interval: Interval{2, 8}, K: 5})
	if err != nil {
		t.Fatal(err)
	}
	res := resp.Results
	for _, r := range res {
		want, ok := Dissimilarity(&q, db.Get(r.TrajID), 2, 8)
		if !ok {
			t.Fatalf("result %d does not cover window", r.TrajID)
		}
		if math.Abs(want-r.Dissim) > 1e-6*math.Max(1, want) {
			t.Fatalf("result %d: %v, pairwise %v", r.TrajID, r.Dissim, want)
		}
	}
}

func TestDissimilarityApproxBrackets(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	trajs := fleet(rng, 2, 60)
	exact, ok := Dissimilarity(&trajs[0], &trajs[1], 0, 10)
	if !ok {
		t.Fatal("coverage expected")
	}
	v, e, ok := DissimilarityApprox(&trajs[0], &trajs[1], 0, 10)
	if !ok {
		t.Fatal("coverage expected")
	}
	if exact < v-e-1e-9 || exact > v+e+1e-9 {
		t.Fatalf("exact %v outside %v±%v", exact, v, e)
	}
	// Uncovered window.
	if _, ok := Dissimilarity(&trajs[0], &trajs[1], -5, 10); ok {
		t.Fatal("uncovered window must fail")
	}
}

func TestBaselineHelpers(t *testing.T) {
	a := Trajectory{ID: 1, Samples: []Sample{{X: 0, Y: 0, T: 0}, {X: 1, Y: 0, T: 1}, {X: 2, Y: 0, T: 2}}}
	b := a.Clone()
	b.ID = 2
	if got := LCSSSimilarity(&a, &b, 0.1, -1); got != 1 {
		t.Fatalf("LCSS = %v", got)
	}
	if got := EDRDistance(&a, &b, 0.1); got != 0 {
		t.Fatalf("EDR = %v", got)
	}
	if got := DTWDistance(&a, &b); got != 0 {
		t.Fatalf("DTW = %v", got)
	}
}

func TestCompressTDTR(t *testing.T) {
	var tr Trajectory
	tr.ID = 1
	for i := 0; i < 100; i++ {
		tr.Samples = append(tr.Samples, Sample{X: float64(i), Y: math.Sin(float64(i) / 5), T: float64(i)})
	}
	c := CompressTDTR(&tr, 0.02)
	if len(c.Samples) >= len(tr.Samples) || len(c.Samples) < 2 {
		t.Fatalf("compressed to %d samples", len(c.Samples))
	}
	// Compressed version still finds the original as most similar.
	db, err := NewDB(RTree3D, []Trajectory{tr})
	if err != nil {
		t.Fatal(err)
	}
	c.ID = 0
	resp, err := db.Query(context.Background(), Request{Q: &c, Interval: Interval{0, 99}, K: 1})
	if err != nil {
		t.Fatal(err)
	}
	res := resp.Results
	if len(res) != 1 || res[0].TrajID != 1 {
		t.Fatalf("compressed query result: %+v", res)
	}
}

func TestAppendSample(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	trajs := fleet(rng, 10, 20)
	for _, kind := range IndexKinds() {
		db, err := NewDB(kind, trajs)
		if err != nil {
			t.Fatal(err)
		}
		before := db.NumSegments()
		last := db.Get(3).Samples[len(db.Get(3).Samples)-1]
		if err := db.AppendSample(3, Sample{X: last.X + 1, Y: last.Y, T: last.T + 1}); err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if db.NumSegments() != before+1 {
			t.Fatalf("%s: segment not recorded", kind)
		}
		// The new segment is immediately searchable: query the appended tail.
		q := Trajectory{ID: 0, Samples: []Sample{
			{X: last.X, Y: last.Y, T: last.T},
			{X: last.X + 1, Y: last.Y, T: last.T + 1},
		}}
		resp, err := db.Query(context.Background(), Request{Q: &q, Interval: Interval{last.T, last.T + 1}, K: 1})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		res := resp.Results
		if len(res) != 1 || res[0].TrajID != 3 {
			t.Fatalf("%s: appended tail not found: %+v", kind, res)
		}
		// Out-of-order and unknown-id appends are rejected.
		if err := db.AppendSample(3, Sample{T: last.T}); err == nil {
			t.Fatalf("%s: stale timestamp must be rejected", kind)
		}
		if err := db.AppendSample(999, Sample{T: 1e9}); err == nil {
			t.Fatalf("%s: unknown id must be rejected", kind)
		}
	}
}

func TestQueryExcludeIDs(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	trajs := fleet(rng, 20, 30)
	db, err := NewDB(RTree3D, trajs)
	if err != nil {
		t.Fatal(err)
	}
	q := db.Get(5)
	resp, err := db.Query(context.Background(), Request{Q: q, Interval: Interval{0, 10}, K: 3, Options: Options{ExcludeIDs: []ID{5}}})
	if err != nil {
		t.Fatal(err)
	}
	res := resp.Results
	if len(res) != 3 {
		t.Fatalf("results = %d", len(res))
	}
	for _, r := range res {
		if r.TrajID == 5 {
			t.Fatal("the query trajectory itself must be excluded")
		}
	}
	// Ground truth: pairwise DISSIM of the winner must be minimal among
	// the others.
	best := res[0]
	for id := ID(1); id <= 20; id++ {
		if id == 5 {
			continue
		}
		d, ok := Dissimilarity(q, db.Get(id), 0, 10)
		if !ok {
			continue
		}
		if d < best.Dissim-1e-6 {
			t.Fatalf("trajectory %d (%v) beats reported winner %d (%v)",
				id, d, best.TrajID, best.Dissim)
		}
	}
}

func TestGeoImportFacade(t *testing.T) {
	p, err := NewGeoProjection(37.97, 23.72)
	if err != nil {
		t.Fatal(err)
	}
	fixes := []GeoSample{
		{Lat: 37.97, Lon: 23.72, T: 0},
		{Lat: 37.975, Lon: 23.725, T: 30},
		{Lat: 37.98, Lon: 23.73, T: 60},
	}
	tr, err := FromLatLon(p, 1, fixes)
	if err != nil {
		t.Fatal(err)
	}
	db, err := NewDB(TBTree, []Trajectory{tr})
	if err != nil {
		t.Fatal(err)
	}
	q := tr.Clone()
	q.ID = 0
	resp, err := db.Query(context.Background(), Request{Q: &q, Interval: Interval{0, 60}, K: 1})
	if err != nil {
		t.Fatal(err)
	}
	res := resp.Results
	if len(res) != 1 || res[0].TrajID != 1 || res[0].Dissim > 1e-6 {
		t.Fatalf("GPS-imported self query: %+v", res)
	}
}
