package index

import (
	"math"
	"sort"

	"mstsearch/internal/geom"
	"mstsearch/internal/trajectory"
)

// boxFilterShrink scales a squared box-to-box distance down before it is
// compared with best². The box distance and geom.DistSegmentRect round
// differently, so a segment is only skipped when its box is farther than
// the best distance by much more than either formula's rounding.
const boxFilterShrink = 1 - 1e-9

// MinDistTrajMBB computes MINDIST(Q, N) as adopted by the paper from the
// NN-search work [6]: the minimum spatial distance between the query
// trajectory's position and the node's spatial extent over the time span
// where the query window [t1, t2], the query trajectory and the node
// temporally coexist. ok is false when there is no such span — the node
// cannot contain any segment relevant to the query period.
//
// The value is the minimum of geom.DistSegmentRect over the query's
// segments clipped to that span. Only the run of segments that touch the
// span is visited, and the exact distance is computed only for segments
// whose bounding box is not already farther from the rectangle than the
// best distance found: the box distance never exceeds the segment's own, so
// a skipped segment could not have lowered the minimum and the result is
// the one the plain loop over every segment returns. q's samples must be
// strictly increasing in time (the Trajectory invariant At relies on too).
func MinDistTrajMBB(q *trajectory.Trajectory, b geom.MBB, t1, t2 float64) (float64, bool) {
	lo := math.Max(t1, math.Max(q.StartTime(), b.MinT))
	hi := math.Min(t2, math.Min(q.EndTime(), b.MaxT))
	if lo > hi {
		return math.Inf(1), false
	}
	rect := b.Rect()
	s, n := q.Samples, q.NumSegments()
	// Segments [i0, i1) end at or after lo and start at or before hi.
	i0 := sort.Search(n, func(i int) bool { return s[i+1].T >= lo })
	i1 := i0 + sort.Search(n-i0, func(i int) bool { return s[i0+i].T > hi })

	// Pass 1: a clipped endpoint inside the rectangle settles it; otherwise
	// find the segment whose box is nearest, to start pass 2 with a small
	// best. Pass 2 recomputes the ends and box distances rather than keep
	// them: a scratch slice as long as the run would leave the stack.
	near, nearD2 := -1, math.Inf(1)
	for i := i0; i < i1; i++ {
		pa, pb := clipEnds(s[i], s[i+1], lo, hi)
		if rect.Contains(pa) || rect.Contains(pb) {
			return 0, true
		}
		if d2 := boxDist2(pa, pb, rect); d2 < nearD2 {
			near, nearD2 = i, d2
		}
	}
	best := math.Inf(1)
	if near >= 0 {
		pa, pb := clipEnds(s[near], s[near+1], lo, hi)
		best = geom.DistSegmentRect(pa, pb, rect)
	}
	// Pass 2: the exact distance wherever the box filter cannot rule it out.
	for i := i0; i < i1 && best > 0; i++ {
		if i == near {
			continue
		}
		pa, pb := clipEnds(s[i], s[i+1], lo, hi)
		if boxDist2(pa, pb, rect)*boxFilterShrink > best*best {
			continue
		}
		if d := geom.DistSegmentRect(pa, pb, rect); d < best {
			best = d
		}
	}
	if math.IsInf(best, 1) {
		// Only a query without a segment (a single sample) gets here: any
		// segment sharing even one instant with [lo, hi] was measured above.
		p := q.At(lo)
		best = rect.DistPoint(p.Spatial())
	}
	return best, true
}

// clipEnds returns the spatial ends of segment (a, b) clipped to [lo, hi],
// with the values Segment.ClipTime computes. An end that is not clipped
// needs no division: Lerp's factor is exactly 0 at a and exactly 1 at b, so
// the ends are a and a + (b − a), which rounding can leave an ulp off b.
func clipEnds(a, b trajectory.Sample, lo, hi float64) (pa, pb geom.Point) {
	pa = geom.Point{X: a.X, Y: a.Y}
	pb = geom.Point{X: a.X + (b.X - a.X), Y: a.Y + (b.Y - a.Y)}
	if a.T < lo {
		pa = geom.Lerp(a.STPoint(), b.STPoint(), lo).Spatial()
	}
	if b.T > hi {
		pb = geom.Lerp(a.STPoint(), b.STPoint(), hi).Spatial()
	}
	return pa, pb
}

// boxDist2 returns the squared distance between the bounding box of segment
// (pa, pb) and r: a lower bound on the squared distance from the segment.
func boxDist2(pa, pb geom.Point, r geom.Rect) float64 {
	dx := gap(pa.X, pb.X, r.MinX, r.MaxX)
	dy := gap(pa.Y, pb.Y, r.MinY, r.MaxY)
	return dx*dx + dy*dy
}

// gap returns how far the interval spanned by u and v lies outside [lo, hi],
// or 0 when they meet. It compares rather than calling math.Max, which costs
// more than the rest of the filter, and a NaN compares false into "no gap",
// which keeps the segment.
func gap(u, v, lo, hi float64) float64 {
	if u > v {
		u, v = v, u
	}
	if v < lo {
		return lo - v
	}
	if u > hi {
		return u - hi
	}
	return 0
}
