package baselines

import (
	"math"
	"sort"

	"mstsearch/internal/trajectory"
)

// LCSS computes the Longest Common SubSequence similarity of Vlachos et
// al. [21]: two samples match when both coordinate differences are below
// eps and their index offset is at most delta (delta < 0 disables the
// band). The returned similarity is LCSS/min(n, m) in [0, 1]; use
// 1 − similarity as a distance.
func LCSS(a, b *trajectory.Trajectory, eps float64, delta int) float64 {
	n, m := len(a.Samples), len(b.Samples)
	if n == 0 || m == 0 {
		return 0
	}
	// Rolling two-row DP over the (banded) edit lattice.
	prev := make([]int, m+1)
	cur := make([]int, m+1)
	for i := 1; i <= n; i++ {
		for j := 1; j <= m; j++ {
			if delta >= 0 && abs(i-j) > delta {
				// Outside the band: carry the best neighbour so the band
				// borders stay consistent.
				cur[j] = max(prev[j], cur[j-1])
				continue
			}
			if matches(a.Samples[i-1], b.Samples[j-1], eps) {
				cur[j] = prev[j-1] + 1
			} else {
				cur[j] = max(prev[j], cur[j-1])
			}
		}
		prev, cur = cur, prev
		for j := range cur {
			cur[j] = 0
		}
	}
	lcss := prev[m]
	return float64(lcss) / float64(minInt(n, m))
}

// LCSSDistance is 1 − LCSS similarity, a dissimilarity in [0, 1].
func LCSSDistance(a, b *trajectory.Trajectory, eps float64, delta int) float64 {
	return 1 - LCSS(a, b, eps, delta)
}

// EDR computes the Edit Distance on Real sequence of Chen et al. [5]:
// the number of insert/delete/replace operations needed to turn a into b,
// where a replace is free when the samples match within eps. Smaller is
// more similar.
func EDR(a, b *trajectory.Trajectory, eps float64) int {
	n, m := len(a.Samples), len(b.Samples)
	prev := make([]int, m+1)
	cur := make([]int, m+1)
	for j := 0; j <= m; j++ {
		prev[j] = j
	}
	for i := 1; i <= n; i++ {
		cur[0] = i
		for j := 1; j <= m; j++ {
			sub := 1
			if matches(a.Samples[i-1], b.Samples[j-1], eps) {
				sub = 0
			}
			cur[j] = minInt(prev[j-1]+sub, minInt(prev[j]+1, cur[j-1]+1))
		}
		prev, cur = cur, prev
	}
	return prev[m]
}

// DTW computes the Dynamic Time Warping distance [2] with Euclidean point
// cost and no band constraint. Smaller is more similar.
func DTW(a, b *trajectory.Trajectory) float64 {
	var s DTWScratch
	d, _ := s.Within(a, b, math.Inf(1), nil)
	return d
}

// LowerBoundShrink scales a DTW lower bound down before it is compared with
// a distance, wherever the bound's float value could exceed the kernel's for
// the same real number: when it sums its terms in another order than the
// kernel adds them along a warping path, or measures to a box corner that
// no sample occupies (math.Hypot is not monotone to the last ulp). Either
// rounding moves a sum of n terms by about n ulps, so a relative 1e-9 covers
// sequences of millions of samples, and a bound loses pruning only where it
// lies within a billionth of the distance it is compared with.
const LowerBoundShrink = 1 - 1e-9

// DTWScratch holds the two rolling rows of DTW evaluations between calls,
// so a search that decides many candidates allocates them once. The zero
// value is ready to use.
type DTWScratch struct{ rows []float64 }

// Within computes DTW(a, b) like DTW, but stops as soon as it proves the
// distance strictly exceeds bound. After row i (the i-th sample of a) every
// warping path has cost at least the row's smallest cell, plus suffix[i]
// when suffix is non-nil: the caller's lower bound on what the rows after
// row i add, which must cost at least suffix[i] on any path. The rows are
// abandoned when that sum, shrunk by LowerBoundShrink, exceeds bound.
//
// It returns the distance and true, or a lower bound on the distance that
// strictly exceeds bound and false. A finished distance has the same bits
// whatever the bound and suffix: the recurrence and its operand order do
// not depend on them. For finite samples no cell is NaN or −0, so picking
// the cheapest neighbour with comparisons returns what math.Min returns.
func (s *DTWScratch) Within(a, b *trajectory.Trajectory, bound float64, suffix []float64) (float64, bool) {
	n, m := len(a.Samples), len(b.Samples)
	if n == 0 || m == 0 {
		return math.Inf(1), true
	}
	if cap(s.rows) < 2*(m+1) {
		s.rows = make([]float64, 2*(m+1))
	}
	prev, cur := s.rows[:m+1], s.rows[m+1:2*(m+1)]
	inf := math.Inf(1)
	for j := range prev {
		prev[j] = inf
	}
	prev[0] = 0
	bs := b.Samples
	for i, p := range a.Samples {
		cur[0] = inf
		rowMin := inf
		diag, left := prev[0], inf
		for j := range bs {
			c := dist(p, bs[j])
			up := prev[j+1]
			best := diag
			if up < best {
				best = up
			}
			if left < best {
				best = left
			}
			v := c + best
			cur[j+1] = v
			if v < rowMin {
				rowMin = v
			}
			diag, left = up, v
		}
		prev, cur = cur, prev
		if i == n-1 {
			break
		}
		lb := rowMin
		if suffix != nil {
			lb += suffix[i]
		}
		if lb *= LowerBoundShrink; lb > bound {
			return lb, false
		}
	}
	return prev[m], true
}

// InterpolateToTimestamps implements the paper's "-I" improvement (§5.2):
// the under-sampled query gains linearly interpolated samples at every
// timestamp of the checked data trajectory (within the query's lifespan),
// so sample-by-sample measures see aligned sequences.
func InterpolateToTimestamps(q, data *trajectory.Trajectory) trajectory.Trajectory {
	times := make([]float64, 0, len(q.Samples)+len(data.Samples))
	for _, s := range q.Samples {
		times = append(times, s.T)
	}
	for _, s := range data.Samples {
		if s.T >= q.StartTime() && s.T <= q.EndTime() {
			times = append(times, s.T)
		}
	}
	sort.Float64s(times)
	// De-duplicate.
	uniq := times[:0]
	for i, t := range times {
		if i == 0 || t != uniq[len(uniq)-1] {
			uniq = append(uniq, t)
		}
	}
	return q.Resample(uniq)
}

// LCSSI is the LCSS-I improved measure: LCSS distance after aligning the
// query to the data trajectory's timestamps.
func LCSSI(q, data *trajectory.Trajectory, eps float64, delta int) float64 {
	qi := InterpolateToTimestamps(q, data)
	return LCSSDistance(&qi, data, eps, delta)
}

// EDRI is the EDR-I improved measure: EDR after aligning the query to the
// data trajectory's timestamps.
func EDRI(q, data *trajectory.Trajectory, eps float64) int {
	qi := InterpolateToTimestamps(q, data)
	return EDR(&qi, data, eps)
}

// EpsilonForDataset returns the matching threshold the paper uses for LCSS
// and EDR: a quarter of the maximum standard deviation over the (already
// normalized) trajectories (§5.2, after Chen et al.).
func EpsilonForDataset(trajs []trajectory.Trajectory) float64 {
	return trajectory.MaxStdOfDataset(trajs) / 4
}

func matches(a, b trajectory.Sample, eps float64) bool {
	return math.Abs(a.X-b.X) <= eps && math.Abs(a.Y-b.Y) <= eps
}

func dist(a, b trajectory.Sample) float64 { return math.Hypot(a.X-b.X, a.Y-b.Y) }

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
