// Package trajectory defines the moving-object trajectory model used
// throughout the library: a trajectory is a time-ordered sequence of
// (x, y, t) samples with linear interpolation between consecutive samples,
// exactly as assumed by the DISSIM metric and the R-tree-like indexes.
//
// The package also provides the temporal alignment machinery (merging two
// trajectories' timelines into co-temporal segment pairs) on which the
// exact and approximate DISSIM computations are built.
package trajectory

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"mstsearch/internal/geom"
)

// ID identifies a moving object / its trajectory.
type ID uint32

// Sample is one recorded position of a moving object.
type Sample struct {
	X, Y, T float64
}

// STPoint converts the sample to a geometry point.
func (s Sample) STPoint() geom.STPoint { return geom.STPoint{X: s.X, Y: s.Y, T: s.T} }

// Trajectory is a moving object's recorded history: samples strictly
// increasing in time, with linear interpolation in between. The zero value
// is an empty trajectory.
type Trajectory struct {
	ID      ID
	Samples []Sample
}

// Errors returned by Validate.
var (
	ErrTooFewSamples = errors.New("trajectory: needs at least two samples")
	ErrUnsortedTime  = errors.New("trajectory: timestamps must be strictly increasing")
	ErrNonFinite     = errors.New("trajectory: sample contains NaN or Inf")
)

// Validate checks the trajectory invariants: at least two samples,
// strictly increasing timestamps and finite coordinates.
func (tr *Trajectory) Validate() error {
	if len(tr.Samples) < 2 {
		return ErrTooFewSamples
	}
	for i, s := range tr.Samples {
		if !finite(s.X) || !finite(s.Y) || !finite(s.T) {
			return fmt.Errorf("%w: sample %d = %+v", ErrNonFinite, i, s)
		}
		if i > 0 && s.T <= tr.Samples[i-1].T {
			return fmt.Errorf("%w: sample %d (t=%g) after t=%g",
				ErrUnsortedTime, i, s.T, tr.Samples[i-1].T)
		}
	}
	return nil
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// NumSegments returns the number of linear motion segments.
func (tr *Trajectory) NumSegments() int {
	if len(tr.Samples) < 2 {
		return 0
	}
	return len(tr.Samples) - 1
}

// Segment returns the i-th motion segment (0 ≤ i < NumSegments).
func (tr *Trajectory) Segment(i int) geom.Segment {
	return geom.Segment{A: tr.Samples[i].STPoint(), B: tr.Samples[i+1].STPoint()}
}

// StartTime returns the first sample's timestamp.
func (tr *Trajectory) StartTime() float64 { return tr.Samples[0].T }

// EndTime returns the last sample's timestamp.
func (tr *Trajectory) EndTime() float64 { return tr.Samples[len(tr.Samples)-1].T }

// Duration returns EndTime − StartTime.
func (tr *Trajectory) Duration() float64 { return tr.EndTime() - tr.StartTime() }

// Covers reports whether the trajectory's lifespan contains [t1, t2].
func (tr *Trajectory) Covers(t1, t2 float64) bool {
	return len(tr.Samples) >= 2 && tr.StartTime() <= t1 && tr.EndTime() >= t2
}

// At returns the interpolated position at time t. Outside the lifespan the
// first/last position is returned (constant extrapolation), which callers
// avoid by checking Covers first.
func (tr *Trajectory) At(t float64) geom.STPoint {
	n := len(tr.Samples)
	if n == 0 {
		return geom.STPoint{T: t}
	}
	if t <= tr.Samples[0].T {
		p := tr.Samples[0].STPoint()
		p.T = t
		return p
	}
	if t >= tr.Samples[n-1].T {
		p := tr.Samples[n-1].STPoint()
		p.T = t
		return p
	}
	// Find the first sample with T > t.
	i := sort.Search(n, func(i int) bool { return tr.Samples[i].T > t })
	return geom.Lerp(tr.Samples[i-1].STPoint(), tr.Samples[i].STPoint(), t)
}

// Slice returns a new trajectory restricted to [t1, t2], interpolating the
// boundary positions. ok is false when the trajectory does not cover any
// positive part of the interval.
func (tr *Trajectory) Slice(t1, t2 float64) (Trajectory, bool) {
	s, ok := tr.AppendSlice(nil, t1, t2)
	return Trajectory{ID: tr.ID, Samples: s}, ok
}

// AppendSlice appends the samples of Slice(t1, t2) to dst and returns the
// extended slice, growing dst at most once. A caller slicing many
// trajectories passes the same buffer back, truncated, to reuse it. On
// failure dst is returned unchanged. Like At, it relies on the samples'
// strictly increasing timestamps.
func (tr *Trajectory) AppendSlice(dst []Sample, t1, t2 float64) ([]Sample, bool) {
	n := len(tr.Samples)
	if n < 2 {
		return dst, false
	}
	lo := math.Max(t1, tr.StartTime())
	hi := math.Min(t2, tr.EndTime())
	if !(lo < hi) { // also rejects NaN windows
		return dst, false
	}
	// Samples [i0, i1) lie strictly inside (lo, hi).
	i0 := sort.Search(n, func(i int) bool { return tr.Samples[i].T > lo })
	i1 := i0 + sort.Search(n-i0, func(i int) bool { return tr.Samples[i0+i].T >= hi })
	dst = slices.Grow(dst, i1-i0+2)
	p := tr.At(lo)
	dst = append(dst, Sample{p.X, p.Y, p.T})
	dst = append(dst, tr.Samples[i0:i1]...)
	p = tr.At(hi)
	return append(dst, Sample{p.X, p.Y, p.T}), true
}

// Bounds returns the 3D minimum bounding box of the trajectory.
func (tr *Trajectory) Bounds() geom.MBB {
	b := geom.EmptyMBB()
	for i := 0; i < tr.NumSegments(); i++ {
		b = b.Expand(geom.MBBOfSegment(tr.Segment(i)))
	}
	return b
}

// SpatialLength returns the total travelled distance.
func (tr *Trajectory) SpatialLength() float64 {
	var sum float64
	for i := 1; i < len(tr.Samples); i++ {
		a, b := tr.Samples[i-1], tr.Samples[i]
		sum += math.Hypot(b.X-a.X, b.Y-a.Y)
	}
	return sum
}

// MaxSpeed returns the maximum per-segment speed (zero for degenerate
// trajectories). This feeds the Vmax of the speed-dependent pruning
// metrics.
func (tr *Trajectory) MaxSpeed() float64 {
	var v float64
	for i := 0; i < tr.NumSegments(); i++ {
		v = math.Max(v, tr.Segment(i).Speed())
	}
	return v
}

// MeanSpeed returns total distance over total duration.
func (tr *Trajectory) MeanSpeed() float64 {
	d := tr.Duration()
	if d <= 0 {
		return 0
	}
	return tr.SpatialLength() / d
}

// Resample returns a trajectory with samples at exactly the given strictly
// increasing timestamps (interpolated / constant-extrapolated), keeping the
// same ID. Used by the LCSS-I / EDR-I improved baselines.
func (tr *Trajectory) Resample(times []float64) Trajectory {
	out := Trajectory{ID: tr.ID, Samples: make([]Sample, len(times))}
	for i, t := range times {
		p := tr.At(t)
		out.Samples[i] = Sample{p.X, p.Y, p.T}
	}
	return out
}

// Timestamps returns the sample timestamps.
func (tr *Trajectory) Timestamps() []float64 {
	ts := make([]float64, len(tr.Samples))
	for i, s := range tr.Samples {
		ts[i] = s.T
	}
	return ts
}

// Clone returns a deep copy.
func (tr *Trajectory) Clone() Trajectory {
	out := Trajectory{ID: tr.ID, Samples: make([]Sample, len(tr.Samples))}
	copy(out.Samples, tr.Samples)
	return out
}

// ForEachAligned merges the timelines of q and t over the window [t1, t2]
// and invokes fn once per elementary interval with the two co-temporal
// sub-segments (identical start/end times). Intervals are emitted in
// temporal order; fn returning false stops the iteration. The window is
// intersected with both lifespans, so the callback only sees intervals
// where both objects exist.
//
// This is the alignment step that lets DISSIM handle trajectories with
// entirely different sampling rates (paper Fig. 1): every pair of
// consecutive merged timestamps yields one distance trinomial.
func ForEachAligned(q, t *Trajectory, t1, t2 float64, fn func(qs, ts geom.Segment) bool) {
	lo := math.Max(t1, math.Max(q.StartTime(), t.StartTime()))
	hi := math.Min(t2, math.Min(q.EndTime(), t.EndTime()))
	if lo >= hi {
		return
	}
	qi := sort.Search(len(q.Samples), func(i int) bool { return q.Samples[i].T > lo })
	ti := sort.Search(len(t.Samples), func(i int) bool { return t.Samples[i].T > lo })
	cur := lo
	qp, tp := q.At(lo), t.At(lo)
	for cur < hi {
		next := hi
		if qi < len(q.Samples) && q.Samples[qi].T < next {
			next = q.Samples[qi].T
		}
		if ti < len(t.Samples) && t.Samples[ti].T < next {
			next = t.Samples[ti].T
		}
		var qn, tn geom.STPoint
		if qi < len(q.Samples) && q.Samples[qi].T == next {
			qn = q.Samples[qi].STPoint()
			qi++
		} else {
			qn = q.At(next)
		}
		if ti < len(t.Samples) && t.Samples[ti].T == next {
			tn = t.Samples[ti].STPoint()
			ti++
		} else {
			tn = t.At(next)
		}
		if next > cur {
			if !fn(geom.Segment{A: qp, B: qn}, geom.Segment{A: tp, B: tn}) {
				return
			}
		}
		cur, qp, tp = next, qn, tn
	}
}

// Dataset is an in-memory collection of trajectories keyed by ID.
type Dataset struct {
	Trajs []Trajectory
	byID  map[ID]int
}

// NewDataset builds a dataset from trajectories, indexing them by ID.
// Duplicate IDs are rejected.
func NewDataset(trajs []Trajectory) (*Dataset, error) {
	d := &Dataset{Trajs: trajs, byID: make(map[ID]int, len(trajs))}
	for i := range trajs {
		if _, dup := d.byID[trajs[i].ID]; dup {
			return nil, fmt.Errorf("trajectory: duplicate id %d", trajs[i].ID)
		}
		d.byID[trajs[i].ID] = i
	}
	return d, nil
}

// Get returns the trajectory with the given ID, or nil.
func (d *Dataset) Get(id ID) *Trajectory {
	i, ok := d.byID[id]
	if !ok {
		return nil
	}
	return &d.Trajs[i]
}

// Len returns the number of trajectories.
func (d *Dataset) Len() int { return len(d.Trajs) }

// NumSegments returns the total segment count across the dataset.
func (d *Dataset) NumSegments() int {
	var n int
	for i := range d.Trajs {
		n += d.Trajs[i].NumSegments()
	}
	return n
}

// MaxSpeed returns the maximum segment speed across the dataset — the
// indexed-object half of the Vmax used by OPTDISSIM/PESDISSIM.
func (d *Dataset) MaxSpeed() float64 {
	var v float64
	for i := range d.Trajs {
		v = math.Max(v, d.Trajs[i].MaxSpeed())
	}
	return v
}

// Bounds returns the MBB of the whole dataset.
func (d *Dataset) Bounds() geom.MBB {
	b := geom.EmptyMBB()
	for i := range d.Trajs {
		b = b.Expand(d.Trajs[i].Bounds())
	}
	return b
}
