package baselines

import (
	"math"
	"math/rand"
	"testing"

	"mstsearch/internal/gstd"
	"mstsearch/internal/trajectory"
)

// dtwRef is DTW as it stood before the bounded kernel: two fresh rows per
// call and the cheapest neighbour by math.Min. It is the definition the
// kernel must reproduce bit for bit, because the exact kNN search and its
// linear-scan oracle compare distances by their bits.
func dtwRef(a, b *trajectory.Trajectory) float64 {
	n, m := len(a.Samples), len(b.Samples)
	if n == 0 || m == 0 {
		return math.Inf(1)
	}
	inf := math.Inf(1)
	prev := make([]float64, m+1)
	cur := make([]float64, m+1)
	for j := range prev {
		prev[j] = inf
	}
	prev[0] = 0
	for i := 1; i <= n; i++ {
		cur[0] = inf
		for j := 1; j <= m; j++ {
			c := dist(a.Samples[i-1], b.Samples[j-1])
			cur[j] = c + math.Min(prev[j-1], math.Min(prev[j], cur[j-1]))
		}
		prev, cur = cur, prev
	}
	return prev[m]
}

// rowMinSuffix is the tightest per-row suffix Within accepts: suffix[i] sums,
// over the rows after i, the row's cheapest cell. Every warping path holds
// at least one cell of each of those rows. It sums backwards, so on pairs
// where the bound is tight its float value can exceed the kernel's.
func rowMinSuffix(a, b *trajectory.Trajectory) []float64 {
	suffix := make([]float64, len(a.Samples))
	var sum float64
	for i := len(a.Samples) - 1; i >= 0; i-- {
		suffix[i] = sum
		least := math.Inf(1)
		for _, x := range b.Samples {
			least = math.Min(least, dist(a.Samples[i], x))
		}
		sum += least
	}
	return suffix
}

// seq draws n samples: a random walk at a random scale, snapped to a coarse
// grid a third of the time (repeated and collinear points, tied cells), with
// some samples repeating the one before.
func seq(rng *rand.Rand, n int) trajectory.Trajectory {
	tr := trajectory.Trajectory{Samples: make([]trajectory.Sample, n)}
	scale := math.Pow(10, 2-4*rng.Float64())
	snap := rng.Intn(3) == 0
	x, y := rng.NormFloat64()*scale, rng.NormFloat64()*scale
	for i := range tr.Samples {
		if i > 0 && rng.Intn(6) == 0 {
			tr.Samples[i] = tr.Samples[i-1]
			tr.Samples[i].T = float64(i)
			continue
		}
		x += rng.NormFloat64() * scale / 4
		y += rng.NormFloat64() * scale / 4
		s := trajectory.Sample{X: x, Y: y, T: float64(i)}
		if snap {
			s.X, s.Y = math.Round(x*4/scale)*scale/4, math.Round(y*4/scale)*scale/4
		}
		tr.Samples[i] = s
	}
	return tr
}

// stationary is n copies of one point: against it, a path's cost is the
// row-order sum of one cell per row, so the row-minimum suffix is tight.
func stationary(rng *rand.Rand, n int) trajectory.Trajectory {
	tr := trajectory.Trajectory{Samples: make([]trajectory.Sample, n)}
	x, y := rng.NormFloat64(), rng.NormFloat64()
	for i := range tr.Samples {
		tr.Samples[i] = trajectory.Sample{X: x, Y: y, T: float64(i)}
	}
	return tr
}

// windowSlices cuts GSTD trajectories to half-length windows that start and
// end between samples, the shape of the metric-dtw workload's DTW pairs: 53
// samples each.
func windowSlices(tb testing.TB, seed int64, count int) []trajectory.Trajectory {
	tb.Helper()
	ds := gstd.Generate(gstd.Config{NumObjects: count, SamplesPerObject: 101, Seed: seed})
	rng := rand.New(rand.NewSource(seed))
	out := make([]trajectory.Trajectory, count)
	for i := range out {
		tr := &ds.Trajs[i]
		lo := rng.Intn(49)
		t1 := (tr.Samples[lo].T + tr.Samples[lo+1].T) / 2
		t2 := (tr.Samples[lo+51].T + tr.Samples[lo+52].T) / 2
		s, ok := tr.Slice(t1, t2)
		if !ok || len(s.Samples) != 53 {
			tb.Fatalf("window slice of trajectory %d has %d samples, want 53", tr.ID, len(s.Samples))
		}
		out[i] = s
	}
	return out
}

// checkWithin runs the kernel under bound with the given suffix and fails
// unless a finished distance has ref's bits, and an abandoned one was
// abandoned rightly: ref strictly above bound, the returned lower bound
// above bound and not above ref. It reports whether the kernel finished.
func checkWithin(t testing.TB, s *DTWScratch, a, b *trajectory.Trajectory, ref, bound float64, suffix []float64) bool {
	t.Helper()
	d, done := s.Within(a, b, bound, suffix)
	if done {
		if math.Float64bits(d) != math.Float64bits(ref) {
			t.Fatalf("Within(bound %v) finished at %v, reference %v\na %v\nb %v", bound, d, ref, a.Samples, b.Samples)
		}
		return true
	}
	if !(ref > bound) || !(d > bound) || d > ref {
		t.Fatalf("Within abandoned under bound %v with lower bound %v, reference %v\na %v\nb %v",
			bound, d, ref, a.Samples, b.Samples)
	}
	return false
}

// checkPair compares DTW with the reference, then runs the kernel under the
// bounds that matter: +Inf, the distance itself (a tie must finish), a
// random fraction of it, with and without the row-minimum suffix. It
// reports whether the kernel abandoned under the fraction.
func checkPair(t testing.TB, rng *rand.Rand, s *DTWScratch, a, b *trajectory.Trajectory) bool {
	t.Helper()
	ref := dtwRef(a, b)
	if got := DTW(a, b); math.Float64bits(got) != math.Float64bits(ref) {
		t.Fatalf("DTW = %v, reference %v\na %v\nb %v", got, ref, a.Samples, b.Samples)
	}
	suffix := rowMinSuffix(a, b)
	checkWithin(t, s, a, b, ref, math.Inf(1), nil)
	checkWithin(t, s, a, b, ref, ref, suffix)
	checkWithin(t, s, a, b, ref, ref, nil)
	return !checkWithin(t, s, a, b, ref, ref*rng.Float64(), suffix)
}

func TestDTWMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	windows := windowSlices(t, 26, 32)
	var s DTWScratch
	abandoned := 0
	for pairs := 0; pairs < 100_000; pairs++ {
		n, m := 1+rng.Intn(30), 1+rng.Intn(30)
		var a, b trajectory.Trajectory
		switch rng.Intn(8) {
		case 0: // one side a single sample
			a, b = seq(rng, n), seq(rng, 1)
			if rng.Intn(2) == 0 {
				a, b = b, a
			}
		case 1: // zero distance
			a = seq(rng, n)
			b = a.Clone()
		case 2: // a tight row suffix: b stationary and no longer than a
			a, b = seq(rng, n+m), stationary(rng, m)
		case 3:
			a, b = stationary(rng, n), seq(rng, m)
		case 4: // the workload's shape
			if pairs%4 == 0 {
				a, b = windows[rng.Intn(len(windows))], windows[rng.Intn(len(windows))]
				break
			}
			fallthrough
		default:
			a, b = seq(rng, n), seq(rng, m)
		}
		if checkPair(t, rng, &s, &a, &b) {
			abandoned++
		}
	}
	if abandoned < 20_000 {
		t.Fatalf("the kernel abandoned only %d pairs below their distance: the generator no longer exercises the bound", abandoned)
	}
}

// pairFromBytes decodes a fuzz input: the first byte splits the points
// between the two sequences and the second scales the bound; then (x, y)
// points as int8 sevenths, which round in binary while the small range keeps
// repeated points and ties common.
func pairFromBytes(data []byte) (a, b trajectory.Trajectory, frac float64, ok bool) {
	if len(data) < 4 {
		return a, b, 0, false
	}
	points := data[2:]
	split := 1 + int(data[0])%(len(points)/2)
	frac = float64(data[1]) / 255
	for i := 0; i+1 < len(points) && i < 2*120; i += 2 {
		s := trajectory.Sample{X: float64(int8(points[i])) / 7, Y: float64(int8(points[i+1])) / 7}
		if i/2 < split {
			s.T = float64(len(a.Samples))
			a.Samples = append(a.Samples, s)
		} else {
			s.T = float64(len(b.Samples))
			b.Samples = append(b.Samples, s)
		}
	}
	return a, b, frac, len(a.Samples) > 0 && len(b.Samples) > 0
}

func FuzzDTW(f *testing.F) {
	f.Add([]byte{2, 128, 0, 0, 7, 7, 14, 14, 0, 7, 7, 14, 14, 21})
	f.Add([]byte{1, 255, 7, 0, 7, 0, 7, 0, 7, 0, 3, 3})               // a stationary side
	f.Add([]byte{3, 0, 1, 2, 3, 4, 5, 6, 1, 2, 3, 4, 5, 6})           // zero distance
	f.Add([]byte{0, 200, 100, 156, 3, 250, 9, 9, 9, 9, 200, 1, 0, 0}) // one sample against many
	f.Fuzz(func(t *testing.T, data []byte) {
		a, b, frac, ok := pairFromBytes(data)
		if !ok {
			return
		}
		var s DTWScratch
		ref := dtwRef(&a, &b)
		if got := DTW(&a, &b); math.Float64bits(got) != math.Float64bits(ref) {
			t.Fatalf("DTW = %v, reference %v\na %v\nb %v", got, ref, a.Samples, b.Samples)
		}
		suffix := rowMinSuffix(&a, &b)
		checkWithin(t, &s, &a, &b, ref, ref, suffix)
		checkWithin(t, &s, &a, &b, ref, ref*frac, suffix)
		checkWithin(t, &s, &a, &b, ref, ref*frac, nil)
	})
}

func TestDTWWithinDoesNotAllocate(t *testing.T) {
	windows := windowSlices(t, 27, 2)
	a, b := &windows[0], &windows[1]
	suffix := rowMinSuffix(a, b)
	ref := dtwRef(a, b)
	var s DTWScratch
	s.Within(a, b, math.Inf(1), nil) // the first call sizes the rows
	var sink float64
	allocs := testing.AllocsPerRun(100, func() {
		d, _ := s.Within(a, b, math.Inf(1), nil)
		sink += d
		d, _ = s.Within(a, b, ref/2, suffix)
		sink += d
	})
	if allocs != 0 {
		t.Fatalf("Within with scratch allocates %v times per two calls, want 0", allocs)
	}
}

// BenchmarkDTW times one 53 × 53 window pair, the metric-dtw workload's
// size, through the kernel and through the reference loop it replaced.
func BenchmarkDTW(b *testing.B) {
	windows := windowSlices(b, 28, 2)
	x, y := &windows[0], &windows[1]
	for _, bc := range []struct {
		name string
		dtw  func(a, b *trajectory.Trajectory) float64
	}{{"kernel", DTW}, {"reference", dtwRef}} {
		b.Run(bc.name, func(b *testing.B) {
			var sink float64
			for i := 0; i < b.N; i++ {
				sink += bc.dtw(x, y)
			}
			if math.IsNaN(sink) {
				b.Fatal("NaN distance")
			}
		})
	}
}
