package dissim

import (
	"math"
	"sort"
)

// Interval is one fully known piece of a candidate trajectory's alignment
// with the query: during [T1, T2] the distance function is known, its
// (approximate) integral is Val.Approx with error bound Val.Err, and the
// endpoint distances are D1 = D(T1), D2 = D(T2). These endpoint distances
// anchor the LDD envelopes that bound the unknown gaps.
type Interval struct {
	T1, T2 float64
	D1, D2 float64
	Val    Value
}

// Partial tracks the state of a candidate trajectory during k-MST search:
// which time intervals of the query period have been retrieved from the
// index, the accumulated approximate DISSIM over them, and the bounding
// metrics OPTDISSIM / PESDISSIM / OPTDISSIMINC over the rest. It is the
// in-memory list the paper's BFMSTSearch keeps per entry of the Valid and
// Completed hash structures.
type Partial struct {
	QStart, QEnd float64
	ivs          []Interval // sorted by T1, non-overlapping
	known        Value      // running sum over ivs
	covered      float64    // total covered duration
	eps          float64    // contiguity tolerance
}

// NewPartial creates an empty partial state for the query period
// [qStart, qEnd].
func NewPartial(qStart, qEnd float64) *Partial {
	return &Partial{
		QStart: qStart,
		QEnd:   qEnd,
		eps:    1e-9 * math.Max(1, qEnd-qStart),
	}
}

// Add records a newly retrieved interval. Intervals are clipped to the
// query period; overlapping duplicates (the same time span delivered
// twice) are ignored rather than double-counted.
func (p *Partial) Add(iv Interval) {
	if iv.T1 < p.QStart {
		iv.T1 = p.QStart
	}
	if iv.T2 > p.QEnd {
		iv.T2 = p.QEnd
	}
	if iv.T2-iv.T1 <= 0 {
		return
	}
	// Locate insertion point.
	i := sort.Search(len(p.ivs), func(i int) bool { return p.ivs[i].T1 >= iv.T1 })
	// Reject overlap with neighbours (tolerating shared endpoints).
	if i > 0 && p.ivs[i-1].T2 > iv.T1+p.eps {
		return
	}
	if i < len(p.ivs) && iv.T2 > p.ivs[i].T1+p.eps {
		return
	}
	p.ivs = append(p.ivs, Interval{})
	copy(p.ivs[i+1:], p.ivs[i:])
	p.ivs[i] = iv
	p.known.Add(iv.Val)
	p.covered += iv.T2 - iv.T1
}

// Complete reports whether the retrieved intervals cover the entire query
// period.
func (p *Partial) Complete() bool {
	return p.covered >= (p.QEnd-p.QStart)-p.eps
}

// Covered returns the covered duration.
func (p *Partial) Covered() float64 { return p.covered }

// Known returns the accumulated approximate DISSIM over the retrieved
// intervals with its error bound. When Complete, this is the (approximate)
// DISSIM of the whole trajectory.
func (p *Partial) Known() Value { return p.known }

// Intervals returns the retrieved intervals in temporal order. The slice
// is owned by the Partial and must not be modified.
func (p *Partial) Intervals() []Interval { return p.ivs }

// gap describes one unretrieved time span and the known distances at its
// boundaries (dStart/dEnd are NaN when the gap touches the query period's
// edge and the distance there is unknown).
type gap struct {
	t1, t2       float64
	dStart, dEnd float64
}

// gapBefore returns the span between interval i and the one before it (the
// query period's start for i = 0; for i = len(ivs), the span from the last
// interval to the period's end), and whether it is wider than the
// contiguity tolerance. The bounds walk i = 0..len(ivs) in place, so they
// allocate nothing.
func (p *Partial) gapBefore(i int) (gap, bool) {
	nan := math.NaN()
	cur, curD := p.QStart, nan
	if i > 0 {
		cur, curD = p.ivs[i-1].T2, p.ivs[i-1].D2
	}
	if i == len(p.ivs) {
		return gap{cur, p.QEnd, curD, nan}, p.QEnd-cur > p.eps
	}
	iv := &p.ivs[i]
	return gap{cur, iv.T1, curD, iv.D1}, iv.T1-cur > p.eps
}

// OptDissim returns OPTDISSIM (Definition 3): a certified lower bound on
// the true DISSIM of the candidate, assuming it approaches the query with
// relative speed at most vmax during unretrieved spans. The Lemma 1 error
// of the known part is subtracted so the bound holds for the exact DISSIM
// (the §4.4 error-management rule folded in).
func (p *Partial) OptDissim(vmax float64) float64 {
	opt := p.known.Lower()
	for i := 0; i <= len(p.ivs); i++ {
		if g, ok := p.gapBefore(i); ok {
			opt += optGap(g, vmax)
		}
	}
	return opt
}

// optGap lower-bounds the dissimilarity contribution of one gap.
func optGap(g gap, vmax float64) float64 {
	dt := g.t2 - g.t1
	s, e := g.dStart, g.dEnd
	hasS, hasE := !math.IsNaN(s), !math.IsNaN(e)
	switch {
	case !hasS && !hasE:
		return 0 // nothing known: object may sit on the query the whole time
	case vmax <= 0:
		// Distance cannot change: it stays at the known boundary value.
		if hasS {
			return s * dt
		}
		return e * dt
	case !hasS:
		// Leading gap (k = 1 in Definition 3): approach envelope anchored
		// at the gap's end, traversed backwards.
		return LDD(e, -vmax, dt)
	case !hasE:
		// Trailing gap (k = n−1): approach from the last known distance.
		return LDD(s, -vmax, dt)
	default:
		// Interior gap: descend at vmax until t°, then ascend to meet the
		// known end distance (Definition 3, last case).
		to := (g.t1 + g.t2 + (e-s)/vmax) / 2
		to = math.Min(math.Max(to, g.t1), g.t2)
		// Both legs are "approach" envelopes when traversed toward t°.
		return LDD(s, -vmax, to-g.t1) + LDD(e, -vmax, g.t2-to)
	}
}

// PesDissim returns PESDISSIM (Definition 4): a certified upper bound on
// the true DISSIM, assuming the candidate diverges from the query at
// relative speed vmax during unretrieved spans. The known part's error is
// added per §4.4.
func (p *Partial) PesDissim(vmax float64) float64 {
	pes := p.known.Upper()
	for i := 0; i <= len(p.ivs); i++ {
		if g, ok := p.gapBefore(i); ok {
			pes += pesGap(g, vmax)
			if math.IsInf(pes, 1) {
				break
			}
		}
	}
	return pes
}

// pesGap upper-bounds the dissimilarity contribution of one gap.
func pesGap(g gap, vmax float64) float64 {
	dt := g.t2 - g.t1
	s, e := g.dStart, g.dEnd
	hasS, hasE := !math.IsNaN(s), !math.IsNaN(e)
	switch {
	case !hasS && !hasE:
		return math.Inf(1) // unbounded: no anchor on either side
	case vmax <= 0:
		if hasS {
			return s * dt
		}
		return e * dt
	case !hasS:
		return LDD(e, vmax, dt) // diverge envelope anchored at the end
	case !hasE:
		return LDD(s, vmax, dt)
	default:
		// Interior gap: diverge at vmax until t^p, then return (Def. 4).
		tp := (g.t1 + g.t2 + (s-e)/vmax) / 2
		tp = math.Min(math.Max(tp, g.t1), g.t2)
		return LDD(s, vmax, tp-g.t1) + LDD(e, vmax, g.t2-tp)
	}
}

// OptDissimInc returns OPTDISSIMINC (Definition 5): with index nodes
// visited in increasing MINDIST order, any unretrieved segment of this
// candidate is at spatial distance ≥ mindist from the query, so the gaps
// contribute at least mindist·(uncovered duration). The known part's error
// is subtracted per §4.4.
func (p *Partial) OptDissimInc(mindist float64) float64 {
	uncovered := (p.QEnd - p.QStart) - p.covered
	if uncovered < 0 {
		uncovered = 0
	}
	return p.known.Lower() + mindist*uncovered
}
