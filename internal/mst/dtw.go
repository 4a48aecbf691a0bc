package mst

import (
	"math"

	"mstsearch/internal/baselines"
	"mstsearch/internal/geom"
	"mstsearch/internal/trajectory"
)

// The DTW leaf cascade (DESIGN.md §4i). A member that survives the entry
// bound is decided in stages, cheapest first, each of which stops on a
// bound strictly above τ:
//
//  1. the entry bound (metricBounder.bound on the member's MBB);
//  2. endpointBound, from two At calls and no slice;
//  3. memberBoxBound and queryBoxBound, on the member sliced into scratch;
//  4. the kernel bounded by τ, abandoning a row whose minimum plus the
//     suffix of stage 3's per-row terms exceeds it.
//
// Every warping path holds (1, 1) and (n, m) and visits every row and every
// column, which is what each bound charges for.

// endpointBound is d(q₁, x₁) + d(qₙ, xₘ) for the sliced query qs and the
// member's positions at the window ends (its first and last sliced samples).
// The two terms are the kernel's own first and last cells, computed with the
// same operands, and the kernel reaches the last cell by adding non-negative
// costs to the first, so the float sum never exceeds the kernel's: no
// shrink. qs has at least two samples, so the cells are distinct.
func endpointBound(qs *trajectory.Trajectory, x1, xm geom.STPoint) float64 {
	a, b := qs.Samples[0], qs.Samples[len(qs.Samples)-1]
	return math.Hypot(a.X-x1.X, a.Y-x1.Y) + math.Hypot(b.X-xm.X, b.Y-xm.Y)
}

// memberBoxBound is Σᵢ dist(qᵢ, box(xs)) over the rows, shrunk: every row
// holds a cell of every path, and a row's cells cost at least its sample's
// distance to the box of the member's samples. It fills suffix[i] with the
// unshrunk sum over the rows after i, the kernel's per-row suffix, and so
// sums backwards: another order than the kernel's.
func memberBoxBound(qs, xs *trajectory.Trajectory, suffix []float64) float64 {
	box := sampleRect(xs)
	var sum float64
	for i := len(qs.Samples) - 1; i >= 0; i-- {
		suffix[i] = sum
		s := qs.Samples[i]
		sum += box.DistPoint(geom.Point{X: s.X, Y: s.Y})
	}
	return sum * baselines.LowerBoundShrink
}

// queryBoxBound is Σⱼ dist(xⱼ, qBox) over the columns, shrunk, where qBox is
// the box of the sliced query's samples: every column holds a cell of every
// path. Its terms measure to a box corner no sample need occupy.
func queryBoxBound(qBox geom.Rect, xs *trajectory.Trajectory) float64 {
	var sum float64
	for _, s := range xs.Samples {
		sum += qBox.DistPoint(geom.Point{X: s.X, Y: s.Y})
	}
	return sum * baselines.LowerBoundShrink
}

// sampleRect is the spatial box of tr's samples (at least one). It
// compares rather than calling math.Min and math.Max, which are not
// inlined and cost more than the rest of the loop; Trajectory.Bounds is
// built from them.
func sampleRect(tr *trajectory.Trajectory) geom.Rect {
	s0 := tr.Samples[0]
	r := geom.Rect{MinX: s0.X, MinY: s0.Y, MaxX: s0.X, MaxY: s0.Y}
	for _, s := range tr.Samples[1:] {
		if s.X < r.MinX {
			r.MinX = s.X
		} else if s.X > r.MaxX {
			r.MaxX = s.X
		}
		if s.Y < r.MinY {
			r.MinY = s.Y
		} else if s.Y > r.MaxY {
			r.MaxY = s.Y
		}
	}
	return r
}

// decideDTW runs stages 2–4 on a member whose entry bound did not exceed
// τ. It returns the member's exact DTW and true, or a lower bound on it
// strictly above τ and false. With fewer than k distances so far, or with
// Heuristic 1 disabled, it runs the kernel unbounded.
func (s *metricSearcher) decideDTW(tr *trajectory.Trajectory) (float64, bool) {
	qs := &s.bounder.qs
	tau := s.tau()
	if s.opts.DisableHeuristic1 || math.IsInf(tau, 1) {
		s.sliceMember(tr)
		return s.dtwRows.Within(qs, &s.xs, math.Inf(1), nil)
	}
	if lb := endpointBound(qs, tr.At(s.t1), tr.At(s.t2)); lb > tau {
		return lb, false
	}
	s.sliceMember(tr)
	lb := math.Max(memberBoxBound(qs, &s.xs, s.suffix), queryBoxBound(s.qBox, &s.xs))
	if lb > tau {
		return lb, false
	}
	return s.dtwRows.Within(qs, &s.xs, tau, s.suffix)
}

// sliceMember slices tr to the query window into the searcher's scratch.
// The caller has checked that tr covers the window.
func (s *metricSearcher) sliceMember(tr *trajectory.Trajectory) {
	s.xs.Samples, _ = tr.AppendSlice(s.xs.Samples[:0], s.t1, s.t2)
}
