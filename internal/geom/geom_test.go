package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func TestLerp(t *testing.T) {
	a := STPoint{0, 0, 0}
	b := STPoint{10, -4, 2}
	mid := Lerp(a, b, 1)
	if mid.X != 5 || mid.Y != -2 || mid.T != 1 {
		t.Fatalf("Lerp midpoint = %+v", mid)
	}
	if got := Lerp(a, b, 0); got != a {
		t.Fatalf("Lerp at start = %+v", got)
	}
	if got := Lerp(a, b, 2); got != (STPoint{10, -4, 2}) {
		t.Fatalf("Lerp at end = %+v", got)
	}
	// Degenerate: simultaneous endpoints keep position of a.
	if got := Lerp(a, STPoint{9, 9, 0}, 0); got.X != 0 || got.Y != 0 {
		t.Fatalf("degenerate Lerp = %+v", got)
	}
}

func TestSegmentClipTime(t *testing.T) {
	s := Segment{STPoint{0, 0, 0}, STPoint{10, 0, 10}}
	c, ok := s.ClipTime(2, 4)
	if !ok || c.A.T != 2 || c.B.T != 4 || c.A.X != 2 || c.B.X != 4 {
		t.Fatalf("clip = %+v ok=%v", c, ok)
	}
	if _, ok := s.ClipTime(11, 12); ok {
		t.Fatal("clip outside extent should fail")
	}
	c, ok = s.ClipTime(-5, 25)
	if !ok || c.A.T != 0 || c.B.T != 10 {
		t.Fatalf("clip superset = %+v ok=%v", c, ok)
	}
	// Touching at a single instant is a valid zero-length clip.
	c, ok = s.ClipTime(10, 15)
	if !ok || c.A.T != 10 || c.B.T != 10 {
		t.Fatalf("instant clip = %+v ok=%v", c, ok)
	}
}

func TestSegmentVelocitySpeed(t *testing.T) {
	s := Segment{STPoint{0, 0, 0}, STPoint{3, 4, 1}}
	if v := s.Velocity(); v.X != 3 || v.Y != 4 {
		t.Fatalf("velocity = %+v", v)
	}
	if sp := s.Speed(); sp != 5 {
		t.Fatalf("speed = %v", sp)
	}
	inst := Segment{STPoint{1, 2, 3}, STPoint{4, 5, 3}}
	if v := inst.Velocity(); v != (Point{}) {
		t.Fatalf("instant segment velocity = %+v", v)
	}
}

func TestMBBBasics(t *testing.T) {
	e := EmptyMBB()
	if !e.IsEmpty() {
		t.Fatal("EmptyMBB not empty")
	}
	a := MBB{0, 0, 0, 1, 1, 1}
	if got := e.Expand(a); got != a {
		t.Fatalf("empty.Expand = %+v", got)
	}
	if got := a.Expand(e); got != a {
		t.Fatalf("Expand(empty) = %+v", got)
	}
	b := MBB{0.5, 0.5, 0.5, 2, 2, 2}
	u := a.Expand(b)
	if !u.Contains(a) || !u.Contains(b) {
		t.Fatal("union must contain operands")
	}
	if u.Volume() != 8 {
		t.Fatalf("union volume = %v", u.Volume())
	}
	if !a.Intersects(b) {
		t.Fatal("a and b intersect")
	}
	c := MBB{5, 5, 5, 6, 6, 6}
	if a.Intersects(c) {
		t.Fatal("a and c are disjoint")
	}
	if !a.OverlapsTime(0.5, 3) || a.OverlapsTime(1.5, 3) {
		t.Fatal("OverlapsTime wrong")
	}
	if a.Enlargement(b) <= 0 {
		t.Fatal("expanding a to cover b must enlarge it")
	}
}

func TestMBBExpandProperties(t *testing.T) {
	f := func(ax, ay, at, bx, by, bt, cx, cy, ct float64) bool {
		mk := func(x, y, tt float64) MBB {
			return MBB{x, y, tt, x + 1, y + 1, tt + 1}
		}
		a, b, c := mk(ax, ay, at), mk(bx, by, bt), mk(cx, cy, ct)
		// Commutative, associative, monotone volume.
		ab := a.Expand(b)
		if ab != b.Expand(a) {
			return false
		}
		if a.Expand(b).Expand(c) != a.Expand(b.Expand(c)) {
			return false
		}
		return ab.Volume() >= a.Volume() && ab.Contains(a) && ab.Contains(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestRectDistPoint(t *testing.T) {
	r := Rect{0, 0, 10, 10}
	cases := []struct {
		p Point
		d float64
	}{
		{Point{5, 5}, 0},
		{Point{0, 0}, 0},
		{Point{-3, 5}, 3},
		{Point{13, 14}, 5},
		{Point{5, -2}, 2},
	}
	for _, c := range cases {
		if got := r.DistPoint(c.p); !almostEq(got, c.d, 1e-12) {
			t.Errorf("DistPoint(%+v) = %v, want %v", c.p, got, c.d)
		}
	}
}

func TestDistSegments(t *testing.T) {
	// Crossing segments.
	if d := DistSegments(Point{0, 0}, Point{2, 2}, Point{0, 2}, Point{2, 0}); d != 0 {
		t.Fatalf("crossing distance = %v", d)
	}
	// Parallel.
	if d := DistSegments(Point{0, 0}, Point{2, 0}, Point{0, 1}, Point{2, 1}); d != 1 {
		t.Fatalf("parallel distance = %v", d)
	}
	// Collinear overlapping.
	if d := DistSegments(Point{0, 0}, Point{2, 0}, Point{1, 0}, Point{3, 0}); d != 0 {
		t.Fatalf("collinear distance = %v", d)
	}
	// Endpoint to endpoint.
	if d := DistSegments(Point{0, 0}, Point{1, 0}, Point{4, 4}, Point{9, 9}); !almostEq(d, 5, 1e-12) {
		t.Fatalf("endpoint distance = %v", d)
	}
}

func TestDistSegmentRect(t *testing.T) {
	r := Rect{0, 0, 10, 10}
	if d := DistSegmentRect(Point{3, 3}, Point{4, 4}, r); d != 0 {
		t.Fatal("segment inside rect must be distance 0")
	}
	if d := DistSegmentRect(Point{-5, 5}, Point{15, 5}, r); d != 0 {
		t.Fatal("segment through rect must be distance 0")
	}
	if d := DistSegmentRect(Point{-3, 5}, Point{-1, 5}, r); !almostEq(d, 1, 1e-12) {
		t.Fatalf("left-of-rect distance = %v", d)
	}
	if d := DistSegmentRect(Point{12, 12}, Point{20, 20}, r); !almostEq(d, 2*math.Sqrt2, 1e-12) {
		t.Fatalf("corner distance = %v", d)
	}
}

// Property: DistSegmentRect is a lower bound of the distance from any
// sampled point on the segment to the rectangle, and matches the sampled
// minimum closely.
func TestDistSegmentRectVsSampling(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 500; iter++ {
		r := Rect{rng.Float64() * 10, rng.Float64() * 10, 0, 0}
		r.MaxX = r.MinX + rng.Float64()*10
		r.MaxY = r.MinY + rng.Float64()*10
		a := Point{rng.Float64()*40 - 10, rng.Float64()*40 - 10}
		b := Point{rng.Float64()*40 - 10, rng.Float64()*40 - 10}
		got := DistSegmentRect(a, b, r)
		sampled := math.Inf(1)
		const n = 400
		for i := 0; i <= n; i++ {
			f := float64(i) / n
			p := a.Add(b.Sub(a).Scale(f))
			sampled = math.Min(sampled, r.DistPoint(p))
		}
		if got > sampled+1e-9 {
			t.Fatalf("DistSegmentRect=%v exceeds sampled min %v (a=%+v b=%+v r=%+v)",
				got, sampled, a, b, r)
		}
		if sampled-got > 0.05*math.Max(1, sampled) {
			t.Fatalf("DistSegmentRect=%v too far below sampled min %v", got, sampled)
		}
	}
}

func TestMinDistSegments(t *testing.T) {
	q := Segment{STPoint{0, 0, 0}, STPoint{10, 0, 10}}
	s := Segment{STPoint{0, 4, 0}, STPoint{10, 4, 10}}
	d, ok := MinDistSegments(q, s)
	if !ok || !almostEq(d, 4, 1e-12) {
		t.Fatalf("parallel moving points d=%v ok=%v", d, ok)
	}
	// Crossing trajectories at same time → distance 0.
	s = Segment{STPoint{10, 0, 0}, STPoint{0, 0, 10}}
	d, ok = MinDistSegments(q, s)
	if !ok || !almostEq(d, 0, 1e-9) {
		t.Fatalf("meeting moving points d=%v ok=%v", d, ok)
	}
	// Same path, opposite direction in space but disjoint in time.
	s = Segment{STPoint{0, 0, 11}, STPoint{10, 0, 21}}
	if _, ok = MinDistSegments(q, s); ok {
		t.Fatal("temporally disjoint must report ok=false")
	}
}

// Property: MinDistSegments lower-bounds the distance at every sampled
// common instant.
func TestMinDistSegmentsVsSampling(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 500; iter++ {
		t0 := rng.Float64() * 10
		dur := rng.Float64()*10 + 0.1
		mk := func() Segment {
			return Segment{
				STPoint{rng.Float64() * 20, rng.Float64() * 20, t0},
				STPoint{rng.Float64() * 20, rng.Float64() * 20, t0 + dur},
			}
		}
		q, s := mk(), mk()
		d, ok := MinDistSegments(q, s)
		if !ok {
			t.Fatal("co-temporal segments must overlap")
		}
		minSampled := math.Inf(1)
		const n = 200
		for i := 0; i <= n; i++ {
			tt := t0 + dur*float64(i)/n
			minSampled = math.Min(minSampled, q.At(tt).Spatial().Dist(s.At(tt).Spatial()))
		}
		if d > minSampled+1e-9 {
			t.Fatalf("MinDistSegments=%v exceeds sampled=%v", d, minSampled)
		}
		// D is Lipschitz in t with constant = relative speed, so the sampled
		// minimum can overshoot the true one by at most relSpeed·(grid/2).
		relSpeed := q.Velocity().Sub(s.Velocity()).Norm()
		slack := relSpeed*dur/(2*n) + 1e-9
		if minSampled-d > slack {
			t.Fatalf("MinDistSegments=%v too loose vs sampled=%v (slack %v)", d, minSampled, slack)
		}
	}
}
