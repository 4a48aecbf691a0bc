// Package geom provides the low-level spatiotemporal geometry used by the
// trajectory similarity engine: 2D points and rectangles, 3D (x, y, t)
// points and minimum bounding boxes, line segments representing linearly
// moving points, and the distance computations between them that the
// DISSIM metric and the R-tree MINDIST pruning are built on.
//
// Conventions: the two spatial axes are X and Y; T is time. All values are
// float64 in arbitrary (but consistent) units. A "segment" is the motion of
// an object between two consecutive samples, assumed linear in time.
package geom

import "math"

// Eps is the absolute tolerance used when classifying near-zero
// coefficients (e.g. deciding that a distance trinomial is constant).
const Eps = 1e-12

// Point is a 2D spatial point.
type Point struct {
	X, Y float64
}

// Sub returns p - q.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Add returns p + q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Scale returns p scaled by f.
func (p Point) Scale(f float64) Point { return Point{p.X * f, p.Y * f} }

// Dot returns the dot product of p and q.
func (p Point) Dot(q Point) float64 { return p.X*q.X + p.Y*q.Y }

// Norm returns the Euclidean norm of p.
func (p Point) Norm() float64 { return math.Hypot(p.X, p.Y) }

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 { return p.Sub(q).Norm() }

// STPoint is a spatiotemporal point: a 2D position at a time instant.
type STPoint struct {
	X, Y, T float64
}

// Spatial returns the 2D projection of p.
func (p STPoint) Spatial() Point { return Point{p.X, p.Y} }

// Lerp linearly interpolates between a and b at time t. It extrapolates if
// t lies outside [a.T, b.T]; callers are expected to clip first. If a and b
// are simultaneous the position of a is returned.
func Lerp(a, b STPoint, t float64) STPoint {
	dt := b.T - a.T
	if ExactZero(dt) {
		return STPoint{a.X, a.Y, t}
	}
	f := (t - a.T) / dt
	return STPoint{a.X + f*(b.X-a.X), a.Y + f*(b.Y-a.Y), t}
}

// Segment is the linear motion of an object between two samples. The
// invariant A.T <= B.T is expected everywhere.
type Segment struct {
	A, B STPoint
}

// Duration returns the temporal extent of the segment.
func (s Segment) Duration() float64 { return s.B.T - s.A.T }

// At returns the interpolated position of the moving object at time t.
func (s Segment) At(t float64) STPoint { return Lerp(s.A, s.B, t) }

// Velocity returns the (vx, vy) velocity of the segment, or the zero vector
// for an instantaneous segment.
func (s Segment) Velocity() Point {
	dt := s.Duration()
	if ExactZero(dt) {
		return Point{}
	}
	return Point{(s.B.X - s.A.X) / dt, (s.B.Y - s.A.Y) / dt}
}

// Speed returns the scalar speed of the segment.
func (s Segment) Speed() float64 { return s.Velocity().Norm() }

// ClipTime returns the sub-segment of s restricted to [t1, t2] (clamped to
// the segment's own extent) and reports whether the intersection is
// non-degenerate in the sense of having positive overlap with [t1, t2].
// A shared single instant yields ok == true with a zero-duration segment,
// which contributes nothing to a time integral but is still a valid sample.
func (s Segment) ClipTime(t1, t2 float64) (Segment, bool) {
	lo := math.Max(s.A.T, t1)
	hi := math.Min(s.B.T, t2)
	if lo > hi {
		return Segment{}, false
	}
	return Segment{s.At(lo), s.At(hi)}, true
}

// Rect is a 2D axis-aligned rectangle. An empty rectangle has Min > Max on
// some axis.
type Rect struct {
	MinX, MinY, MaxX, MaxY float64
}

// Contains reports whether p lies inside (or on the boundary of) r.
func (r Rect) Contains(p Point) bool {
	return p.X >= r.MinX && p.X <= r.MaxX && p.Y >= r.MinY && p.Y <= r.MaxY
}

// DistPoint returns the minimum distance from p to r (zero if inside).
func (r Rect) DistPoint(p Point) float64 {
	dx := math.Max(0, math.Max(r.MinX-p.X, p.X-r.MaxX))
	dy := math.Max(0, math.Max(r.MinY-p.Y, p.Y-r.MaxY))
	return math.Hypot(dx, dy)
}

// MBB is a 3D (x, y, t) minimum bounding box, the node/entry bound stored
// in the R-tree-like structures.
type MBB struct {
	MinX, MinY, MinT float64
	MaxX, MaxY, MaxT float64
}

// EmptyMBB returns an MBB that acts as the identity for Expand.
func EmptyMBB() MBB {
	inf := math.Inf(1)
	return MBB{inf, inf, inf, -inf, -inf, -inf}
}

// MBBOfSegment returns the tight bound of a segment.
func MBBOfSegment(s Segment) MBB {
	return MBB{
		MinX: math.Min(s.A.X, s.B.X), MinY: math.Min(s.A.Y, s.B.Y), MinT: s.A.T,
		MaxX: math.Max(s.A.X, s.B.X), MaxY: math.Max(s.A.Y, s.B.Y), MaxT: s.B.T,
	}
}

// IsEmpty reports whether b bounds nothing.
func (b MBB) IsEmpty() bool { return b.MinX > b.MaxX || b.MinY > b.MaxY || b.MinT > b.MaxT }

// WellFormed reports min <= max on all three axes with no NaNs — the
// validity invariant every MBB that reaches the index codec must satisfy.
// The Expand identity from EmptyMBB is deliberately not well-formed: an
// empty bound must never be persisted.
func (b MBB) WellFormed() bool {
	return b.MinX <= b.MaxX && b.MinY <= b.MaxY && b.MinT <= b.MaxT
}

// Rect returns the spatial (x, y) projection of b.
func (b MBB) Rect() Rect { return Rect{b.MinX, b.MinY, b.MaxX, b.MaxY} }

// Expand returns the smallest MBB covering both b and o.
func (b MBB) Expand(o MBB) MBB {
	if b.IsEmpty() {
		return o
	}
	if o.IsEmpty() {
		return b
	}
	return MBB{
		math.Min(b.MinX, o.MinX), math.Min(b.MinY, o.MinY), math.Min(b.MinT, o.MinT),
		math.Max(b.MaxX, o.MaxX), math.Max(b.MaxY, o.MaxY), math.Max(b.MaxT, o.MaxT),
	}
}

// Volume returns the 3D volume of b (zero for empty boxes).
func (b MBB) Volume() float64 {
	if b.IsEmpty() {
		return 0
	}
	return (b.MaxX - b.MinX) * (b.MaxY - b.MinY) * (b.MaxT - b.MinT)
}

// Enlargement returns the volume increase of b when expanded to cover o.
func (b MBB) Enlargement(o MBB) float64 { return b.Expand(o).Volume() - b.Volume() }

// Contains reports whether o lies entirely inside b.
func (b MBB) Contains(o MBB) bool {
	return b.MinX <= o.MinX && b.MinY <= o.MinY && b.MinT <= o.MinT &&
		b.MaxX >= o.MaxX && b.MaxY >= o.MaxY && b.MaxT >= o.MaxT
}

// Intersects reports whether b and o share any point.
func (b MBB) Intersects(o MBB) bool {
	return b.MinX <= o.MaxX && o.MinX <= b.MaxX &&
		b.MinY <= o.MaxY && o.MinY <= b.MaxY &&
		b.MinT <= o.MaxT && o.MinT <= b.MaxT
}

// OverlapsTime reports whether b's temporal extent intersects [t1, t2].
func (b MBB) OverlapsTime(t1, t2 float64) bool { return b.MinT <= t2 && t1 <= b.MaxT }
