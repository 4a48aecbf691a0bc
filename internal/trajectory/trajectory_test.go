package trajectory

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"mstsearch/internal/geom"
)

func lineTraj(id ID, ts ...float64) Trajectory {
	tr := Trajectory{ID: id}
	for _, t := range ts {
		tr.Samples = append(tr.Samples, Sample{X: t, Y: 2 * t, T: t})
	}
	return tr
}

func randTraj(rng *rand.Rand, id ID, n int) Trajectory {
	tr := Trajectory{ID: id, Samples: make([]Sample, n)}
	t := rng.Float64() * 10
	x, y := rng.Float64()*100, rng.Float64()*100
	for i := 0; i < n; i++ {
		tr.Samples[i] = Sample{x, y, t}
		t += 0.1 + rng.Float64()
		x += rng.NormFloat64() * 3
		y += rng.NormFloat64() * 3
	}
	return tr
}

func TestValidate(t *testing.T) {
	good := lineTraj(1, 0, 1, 2, 3)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid trajectory rejected: %v", err)
	}
	short := Trajectory{Samples: []Sample{{0, 0, 0}}}
	if err := short.Validate(); err == nil {
		t.Fatal("single-sample trajectory must be invalid")
	}
	dup := lineTraj(1, 0, 1, 1)
	if err := dup.Validate(); err == nil {
		t.Fatal("duplicate timestamps must be invalid")
	}
	bad := Trajectory{Samples: []Sample{{0, 0, 0}, {math.NaN(), 0, 1}}}
	if err := bad.Validate(); err == nil {
		t.Fatal("NaN sample must be invalid")
	}
}

func TestAtInterpolation(t *testing.T) {
	tr := lineTraj(1, 0, 10)
	p := tr.At(5)
	if p.X != 5 || p.Y != 10 || p.T != 5 {
		t.Fatalf("At(5) = %+v", p)
	}
	// Constant extrapolation outside lifespan.
	p = tr.At(-3)
	if p.X != 0 || p.T != -3 {
		t.Fatalf("At(-3) = %+v", p)
	}
	p = tr.At(20)
	if p.X != 10 || p.T != 20 {
		t.Fatalf("At(20) = %+v", p)
	}
	// At exactly a sample.
	tr = lineTraj(1, 0, 1, 2, 5)
	p = tr.At(2)
	if p.X != 2 {
		t.Fatalf("At(sample) = %+v", p)
	}
}

func TestSlice(t *testing.T) {
	tr := lineTraj(7, 0, 1, 2, 3, 4)
	s, ok := tr.Slice(0.5, 2.5)
	if !ok {
		t.Fatal("slice must succeed")
	}
	if s.StartTime() != 0.5 || s.EndTime() != 2.5 {
		t.Fatalf("slice bounds [%v,%v]", s.StartTime(), s.EndTime())
	}
	if len(s.Samples) != 4 { // 0.5, 1, 2, 2.5
		t.Fatalf("slice has %d samples: %+v", len(s.Samples), s.Samples)
	}
	if s.ID != 7 {
		t.Fatal("slice must keep ID")
	}
	if _, ok := tr.Slice(9, 10); ok {
		t.Fatal("slice outside lifespan must fail")
	}
	if _, ok := tr.Slice(2, 2); ok {
		t.Fatal("empty window must fail")
	}
	// Window larger than lifespan clips to it.
	s, ok = tr.Slice(-5, 50)
	if !ok || s.StartTime() != 0 || s.EndTime() != 4 {
		t.Fatalf("clipped slice [%v,%v] ok=%v", s.StartTime(), s.EndTime(), ok)
	}
}

// AppendSlice finds the inner samples by binary search; the samples it
// appends must be, bit for bit, the ones a scan of every sample picks, on
// windows that start and end on sample times, between them, and outside
// the lifespan. A reused buffer keeps its prefix and grows at most once.
func TestAppendSliceMatchesScan(t *testing.T) {
	scan := func(tr *Trajectory, t1, t2 float64) ([]Sample, bool) {
		lo, hi := math.Max(t1, tr.StartTime()), math.Min(t2, tr.EndTime())
		if !(lo < hi) {
			return nil, false
		}
		p := tr.At(lo)
		out := []Sample{{p.X, p.Y, p.T}}
		for _, s := range tr.Samples {
			if s.T > lo && s.T < hi {
				out = append(out, s)
			}
		}
		p = tr.At(hi)
		return append(out, Sample{p.X, p.Y, p.T}), true
	}
	rng := rand.New(rand.NewSource(26))
	buf := make([]Sample, 0, 4)
	for i := 0; i < 5000; i++ {
		tr := randTraj(rng, 1, 2+rng.Intn(30))
		pick := func() float64 {
			switch rng.Intn(3) {
			case 0:
				return tr.Samples[rng.Intn(len(tr.Samples))].T
			case 1:
				return tr.StartTime() + (rng.Float64()*1.4-0.2)*tr.Duration()
			}
			return math.Round(tr.StartTime() + rng.Float64()*tr.Duration())
		}
		t1, t2 := pick(), pick()
		want, wantOK := scan(&tr, t1, t2)
		head := Sample{X: -1, Y: -1, T: -1}
		got, ok := tr.AppendSlice(append(buf[:0], head), t1, t2)
		if ok != wantOK || len(got) != len(want)+1 || got[0] != head {
			t.Fatalf("AppendSlice(%v, %v) = %v, %v; scan %v, %v", t1, t2, got, ok, want, wantOK)
		}
		for j := range want {
			g, w := got[j+1], want[j]
			if math.Float64bits(g.X) != math.Float64bits(w.X) || math.Float64bits(g.Y) != math.Float64bits(w.Y) ||
				math.Float64bits(g.T) != math.Float64bits(w.T) {
				t.Fatalf("AppendSlice(%v, %v) sample %d = %+v, scan %+v", t1, t2, j, g, w)
			}
		}
		buf = got
	}
	tr := randTraj(rng, 1, 40)
	allocs := testing.AllocsPerRun(20, func() {
		buf, _ = tr.AppendSlice(buf[:0], tr.StartTime(), tr.EndTime())
	})
	if allocs != 0 {
		t.Fatalf("AppendSlice into a large enough buffer allocates %v times", allocs)
	}
}

func TestBoundsAndLength(t *testing.T) {
	tr := lineTraj(1, 0, 1, 2)
	b := tr.Bounds()
	if b.MinX != 0 || b.MaxX != 2 || b.MinY != 0 || b.MaxY != 4 || b.MinT != 0 || b.MaxT != 2 {
		t.Fatalf("bounds = %+v", b)
	}
	want := 2 * math.Hypot(1, 2)
	if got := tr.SpatialLength(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("length = %v want %v", got, want)
	}
	if v := tr.MaxSpeed(); math.Abs(v-math.Hypot(1, 2)) > 1e-12 {
		t.Fatalf("max speed = %v", v)
	}
	if v := tr.MeanSpeed(); math.Abs(v-math.Hypot(1, 2)) > 1e-12 {
		t.Fatalf("mean speed = %v", v)
	}
}

func TestCovers(t *testing.T) {
	tr := lineTraj(1, 2, 8)
	if !tr.Covers(2, 8) || !tr.Covers(3, 4) {
		t.Fatal("Covers inside lifespan")
	}
	if tr.Covers(1, 4) || tr.Covers(5, 9) {
		t.Fatal("Covers outside lifespan")
	}
}

func TestResample(t *testing.T) {
	tr := lineTraj(3, 0, 10)
	rs := tr.Resample([]float64{0, 2.5, 5, 10})
	if len(rs.Samples) != 4 || rs.Samples[1].X != 2.5 || rs.Samples[2].Y != 10 {
		t.Fatalf("resample = %+v", rs.Samples)
	}
	if rs.ID != 3 {
		t.Fatal("resample must keep ID")
	}
}

func TestForEachAlignedMergesTimestamps(t *testing.T) {
	q := lineTraj(1, 0, 4, 8)
	s := lineTraj(2, 0, 1, 2, 3, 4, 5, 6, 7, 8)
	var intervals [][2]float64
	ForEachAligned(&q, &s, 0, 8, func(qs, ts geom.Segment) bool {
		if qs.A.T != ts.A.T || qs.B.T != ts.B.T {
			t.Fatalf("segments not aligned: %+v vs %+v", qs, ts)
		}
		intervals = append(intervals, [2]float64{qs.A.T, qs.B.T})
		return true
	})
	if len(intervals) != 8 {
		t.Fatalf("want 8 merged intervals, got %d: %v", len(intervals), intervals)
	}
	// Intervals must tile [0,8] contiguously.
	if intervals[0][0] != 0 || intervals[len(intervals)-1][1] != 8 {
		t.Fatalf("intervals do not span window: %v", intervals)
	}
	for i := 1; i < len(intervals); i++ {
		if intervals[i][0] != intervals[i-1][1] {
			t.Fatalf("gap between intervals: %v", intervals)
		}
	}
}

func TestForEachAlignedRespectsWindowAndLifespans(t *testing.T) {
	q := lineTraj(1, 0, 10)
	s := lineTraj(2, 4, 20)
	var lo, hi float64 = math.Inf(1), math.Inf(-1)
	ForEachAligned(&q, &s, 2, 30, func(qs, ts geom.Segment) bool {
		lo = math.Min(lo, qs.A.T)
		hi = math.Max(hi, qs.B.T)
		return true
	})
	if lo != 4 || hi != 10 {
		t.Fatalf("aligned window [%v,%v], want [4,10]", lo, hi)
	}
	// Disjoint lifespans: callback never fires.
	u := lineTraj(3, 50, 60)
	fired := false
	ForEachAligned(&q, &u, 0, 100, func(_, _ geom.Segment) bool { fired = true; return true })
	if fired {
		t.Fatal("disjoint lifespans must not produce intervals")
	}
}

func TestForEachAlignedEarlyStop(t *testing.T) {
	q := lineTraj(1, 0, 1, 2, 3, 4)
	s := lineTraj(2, 0, 1, 2, 3, 4)
	count := 0
	ForEachAligned(&q, &s, 0, 4, func(_, _ geom.Segment) bool {
		count++
		return count < 2
	})
	if count != 2 {
		t.Fatalf("early stop after 2, got %d", count)
	}
}

// Property: positions produced by alignment equal direct interpolation.
func TestForEachAlignedMatchesAt(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for iter := 0; iter < 100; iter++ {
		q := randTraj(rng, 1, 2+rng.Intn(30))
		s := randTraj(rng, 2, 2+rng.Intn(30))
		ForEachAligned(&q, &s, math.Inf(-1), math.Inf(1), func(qs, ts geom.Segment) bool {
			for _, tt := range []float64{qs.A.T, qs.B.T} {
				if d := qs.At(tt).Spatial().Dist(q.At(tt).Spatial()); d > 1e-9 {
					t.Fatalf("q aligned position off by %v at t=%v", d, tt)
				}
				if d := ts.At(tt).Spatial().Dist(s.At(tt).Spatial()); d > 1e-9 {
					t.Fatalf("s aligned position off by %v at t=%v", d, tt)
				}
			}
			return true
		})
	}
}

func TestDataset(t *testing.T) {
	a, b := lineTraj(1, 0, 1), lineTraj(2, 0, 2)
	d, err := NewDataset([]Trajectory{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 2 || d.NumSegments() != 2 {
		t.Fatalf("len=%d segs=%d", d.Len(), d.NumSegments())
	}
	if d.Get(2) == nil || d.Get(2).ID != 2 {
		t.Fatal("Get(2) failed")
	}
	if d.Get(99) != nil {
		t.Fatal("Get(99) must be nil")
	}
	if _, err := NewDataset([]Trajectory{a, a}); err == nil {
		t.Fatal("duplicate IDs must be rejected")
	}
	if v := d.MaxSpeed(); math.Abs(v-math.Hypot(1, 2)) > 1e-12 {
		t.Fatalf("dataset max speed = %v", v)
	}
	if bb := d.Bounds(); bb.MaxT != 2 {
		t.Fatalf("dataset bounds = %+v", bb)
	}
}

func TestNormalize(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	tr := randTraj(rng, 5, 100)
	n := Normalize(&tr)
	st := ComputeStats(&n)
	if math.Abs(st.MeanX) > 1e-9 || math.Abs(st.MeanY) > 1e-9 {
		t.Fatalf("normalized mean = (%v,%v)", st.MeanX, st.MeanY)
	}
	if math.Abs(st.StdX-1) > 1e-9 || math.Abs(st.StdY-1) > 1e-9 {
		t.Fatalf("normalized std = (%v,%v)", st.StdX, st.StdY)
	}
	// Degenerate: constant axis is only shifted, not scaled.
	c := Trajectory{ID: 1, Samples: []Sample{{5, 1, 0}, {5, 2, 1}, {5, 3, 2}}}
	nc := Normalize(&c)
	for _, s := range nc.Samples {
		if s.X != 0 {
			t.Fatalf("constant axis should normalize to 0, got %v", s.X)
		}
	}
}

func TestMaxStdOfDataset(t *testing.T) {
	a := Trajectory{ID: 1, Samples: []Sample{{0, 0, 0}, {0, 0, 1}}}
	b := Trajectory{ID: 2, Samples: []Sample{{-10, 0, 0}, {10, 0, 1}}}
	got := MaxStdOfDataset([]Trajectory{a, b})
	if got != 10 {
		t.Fatalf("max std = %v, want 10", got)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	var trajs []Trajectory
	for i := 0; i < 5; i++ {
		trajs = append(trajs, randTraj(rng, ID(i+1), 3+rng.Intn(20)))
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, trajs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(trajs) {
		t.Fatalf("round trip lost trajectories: %d vs %d", len(got), len(trajs))
	}
	for i := range trajs {
		if got[i].ID != trajs[i].ID || len(got[i].Samples) != len(trajs[i].Samples) {
			t.Fatalf("trajectory %d mismatch", i)
		}
		for j := range trajs[i].Samples {
			if got[i].Samples[j] != trajs[i].Samples[j] {
				t.Fatalf("sample %d/%d mismatch: %+v vs %+v",
					i, j, got[i].Samples[j], trajs[i].Samples[j])
			}
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := []string{
		"x,1,2,3\n",
		"1,x,2,3\n",
		"1,1,x,3\n",
		"1,1,2,x\n",
		"1,1,2\n",
		"1,1,2,3\n", // single sample → Validate fails
	}
	for _, c := range cases {
		if _, err := ReadCSV(bytes.NewBufferString(c)); err == nil {
			t.Fatalf("input %q must fail", c)
		}
	}
}

// Property: Slice never widens the window and keeps interpolated motion
// identical to the original within it.
func TestSliceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	f := func(seed int64, a, b float64) bool {
		frac := func(v float64) float64 {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0.5
			}
			return math.Abs(math.Mod(v, 1))
		}
		a, b = frac(a), frac(b)
		r := rand.New(rand.NewSource(seed))
		tr := randTraj(r, 1, 2+r.Intn(40))
		lo := tr.StartTime() + a*tr.Duration()
		hi := lo + b*(tr.EndTime()-lo)
		s, ok := tr.Slice(lo, hi)
		if !ok {
			return hi-lo < 1e-9 // only near-empty windows may fail here
		}
		if s.StartTime() < lo-1e-9 || s.EndTime() > hi+1e-9 {
			return false
		}
		for i := 0; i < 20; i++ {
			tt := lo + rng.Float64()*(hi-lo)
			if s.At(tt).Spatial().Dist(tr.At(tt).Spatial()) > 1e-9 {
				return false
			}
		}
		return s.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
