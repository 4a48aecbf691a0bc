package geom

import "math"

// DistSegmentPoint returns the minimum distance between 2D segment (a, b)
// and point p.
func DistSegmentPoint(a, b, p Point) float64 {
	ab := b.Sub(a)
	den := ab.Dot(ab)
	if ExactZero(den) {
		return p.Dist(a)
	}
	t := clamp(p.Sub(a).Dot(ab)/den, 0, 1)
	return p.Dist(a.Add(ab.Scale(t)))
}

// DistSegments returns the minimum distance between 2D segments (a1, a2)
// and (b1, b2).
func DistSegments(a1, a2, b1, b2 Point) float64 {
	if segmentsIntersect(a1, a2, b1, b2) {
		return 0
	}
	d := DistSegmentPoint(a1, a2, b1)
	d = math.Min(d, DistSegmentPoint(a1, a2, b2))
	d = math.Min(d, DistSegmentPoint(b1, b2, a1))
	return math.Min(d, DistSegmentPoint(b1, b2, a2))
}

func segmentsIntersect(p1, p2, p3, p4 Point) bool {
	d1 := cross(p3, p4, p1)
	d2 := cross(p3, p4, p2)
	d3 := cross(p1, p2, p3)
	d4 := cross(p1, p2, p4)
	if ((d1 > 0 && d2 < 0) || (d1 < 0 && d2 > 0)) &&
		((d3 > 0 && d4 < 0) || (d3 < 0 && d4 > 0)) {
		return true
	}
	return (ExactZero(d1) && onSegment(p3, p4, p1)) ||
		(ExactZero(d2) && onSegment(p3, p4, p2)) ||
		(ExactZero(d3) && onSegment(p1, p2, p3)) ||
		(ExactZero(d4) && onSegment(p1, p2, p4))
}

func cross(a, b, c Point) float64 {
	return (b.X-a.X)*(c.Y-a.Y) - (b.Y-a.Y)*(c.X-a.X)
}

func onSegment(a, b, p Point) bool {
	return math.Min(a.X, b.X) <= p.X && p.X <= math.Max(a.X, b.X) &&
		math.Min(a.Y, b.Y) <= p.Y && p.Y <= math.Max(a.Y, b.Y)
}

// DistSegmentRect returns the minimum distance between 2D segment (a, b)
// and rectangle r (zero if they touch or the segment enters r).
func DistSegmentRect(a, b Point, r Rect) float64 {
	if r.Contains(a) || r.Contains(b) {
		return 0
	}
	c1 := Point{r.MinX, r.MinY}
	c2 := Point{r.MaxX, r.MinY}
	c3 := Point{r.MaxX, r.MaxY}
	c4 := Point{r.MinX, r.MaxY}
	d := DistSegments(a, b, c1, c2)
	d = math.Min(d, DistSegments(a, b, c2, c3))
	d = math.Min(d, DistSegments(a, b, c3, c4))
	return math.Min(d, DistSegments(a, b, c4, c1))
}

// MinDistSegments returns the minimum Euclidean distance over time between
// two moving points during their common time interval, together with the
// common interval itself. ok is false when the segments do not overlap
// temporally.
func MinDistSegments(q, t Segment) (d float64, ok bool) {
	lo := math.Max(q.A.T, t.A.T)
	hi := math.Min(q.B.T, t.B.T)
	if lo > hi {
		return math.Inf(1), false
	}
	qc, _ := q.ClipTime(lo, hi)
	tc, _ := t.ClipTime(lo, hi)
	tri := NewTrinomial(qc, tc)
	d, _ = tri.MinDist()
	return d, true
}
