package dissim

import (
	"math"
	"math/rand"
	"testing"

	"mstsearch/internal/geom"
	"mstsearch/internal/trajectory"
)

// gapListRef builds the list of unretrieved spans outright: the reference
// the bounds' in-place gap walk must match.
func gapListRef(p *Partial) []gap {
	var gs []gap
	nan := math.NaN()
	cur := p.QStart
	curD := nan
	for _, iv := range p.ivs {
		if iv.T1-cur > p.eps {
			gs = append(gs, gap{cur, iv.T1, curD, iv.D1})
		}
		cur, curD = iv.T2, iv.D2
	}
	if p.QEnd-cur > p.eps {
		gs = append(gs, gap{cur, p.QEnd, curD, nan})
	}
	return gs
}

func optDissimRef(p *Partial, vmax float64) float64 {
	opt := p.known.Lower()
	for _, g := range gapListRef(p) {
		opt += optGap(g, vmax)
	}
	return opt
}

func pesDissimRef(p *Partial, vmax float64) float64 {
	pes := p.known.Upper()
	for _, g := range gapListRef(p) {
		pes += pesGap(g, vmax)
		if math.IsInf(pes, 1) {
			break
		}
	}
	return pes
}

// TestPartialBoundsMatchGapList checks that OPTDISSIM and PESDISSIM return
// the reference's bits after every arrival, with intervals revealed in
// shuffled runs (the order leaves deliver them), duplicates, and vmax = 0.
func TestPartialBoundsMatchGapList(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 400; iter++ {
		q := randTraj(rng, 1, 2+rng.Intn(20), 0, 10)
		s := randTraj(rng, 2, 2+rng.Intn(20), 0, 10)
		var ivs []Interval
		trajectory.ForEachAligned(&q, &s, 0, 10, func(qs, ts geom.Segment) bool {
			ivs = append(ivs, IntervalOf(qs, ts, 1))
			return true
		})
		vmaxes := []float64{0, q.MaxSpeed() + s.MaxSpeed(), 1e-3 * rng.Float64()}
		p := NewPartial(0, 10)
		for _, i := range rng.Perm(len(ivs)) {
			p.Add(ivs[i])
			if rng.Intn(4) == 0 {
				p.Add(ivs[i]) // a duplicate is ignored
			}
			for _, v := range vmaxes {
				if got, want := p.OptDissim(v), optDissimRef(p, v); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("iter %d vmax %v: OptDissim %v, reference %v", iter, v, got, want)
				}
				if got, want := p.PesDissim(v), pesDissimRef(p, v); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("iter %d vmax %v: PesDissim %v, reference %v", iter, v, got, want)
				}
			}
		}
	}
}

// TestPartialBoundsDoNotAllocate: the search refreshes a candidate's bounds
// at every leaf that touches it, so the bounds must not allocate.
func TestPartialBoundsDoNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	q := randTraj(rng, 1, 40, 0, 10)
	s := randTraj(rng, 2, 40, 0, 10)
	p := NewPartial(0, 10)
	i := 0
	trajectory.ForEachAligned(&q, &s, 0, 10, func(qs, ts geom.Segment) bool {
		if i%3 != 1 { // leave gaps: interior, leading and trailing ones
			p.Add(IntervalOf(qs, ts, 1))
		}
		i++
		return true
	})
	vmax := q.MaxSpeed() + s.MaxSpeed()
	allocs := testing.AllocsPerRun(100, func() {
		sink = p.OptDissim(vmax) + p.PesDissim(vmax) + p.OptDissimInc(0.5)
	})
	if allocs != 0 {
		t.Fatalf("bounds allocate %v times per refresh", allocs)
	}
}

var sink float64
