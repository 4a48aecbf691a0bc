package mst

import (
	"math"
	"math/rand"
	"testing"

	"mstsearch/internal/baselines"
	"mstsearch/internal/gstd"
	"mstsearch/internal/trajectory"
)

// dtwRowMins runs the DTW recurrence as the kernel defines it and returns
// the minimum of every row of the cost table, and the distance.
func dtwRowMins(a, b *trajectory.Trajectory) ([]float64, float64) {
	inf := math.Inf(1)
	m := len(b.Samples)
	prev, cur := make([]float64, m+1), make([]float64, m+1)
	for j := range prev {
		prev[j] = inf
	}
	prev[0] = 0
	mins := make([]float64, len(a.Samples))
	for i, p := range a.Samples {
		cur[0] = inf
		mins[i] = inf
		for j, x := range b.Samples {
			c := math.Hypot(p.X-x.X, p.Y-x.Y)
			cur[j+1] = c + math.Min(prev[j], math.Min(prev[j+1], cur[j]))
			mins[i] = math.Min(mins[i], cur[j+1])
		}
		prev, cur = cur, prev
	}
	return mins, prev[m]
}

// checkCascadeBounds fails unless every bound of the DTW cascade, as the
// search compares it with τ, is at most the distance of the pair: the
// endpoint bound, both box bounds, and after every row but the last the
// row's minimum plus the member box bound's suffix, shrunk as the kernel
// shrinks it.
func checkCascadeBounds(t *testing.T, qs, xs *trajectory.Trajectory) {
	t.Helper()
	mins, d := dtwRowMins(qs, xs)
	if got := baselines.DTW(qs, xs); math.Float64bits(got) != math.Float64bits(d) {
		t.Fatalf("the test's recurrence gives %v, baselines.DTW %v", d, got)
	}
	n, m := len(qs.Samples), len(xs.Samples)
	suffix := make([]float64, n)
	for _, b := range []struct {
		stage string
		lb    float64
	}{
		{"endpoint", endpointBound(qs, xs.Samples[0].STPoint(), xs.Samples[m-1].STPoint())},
		{"member box", memberBoxBound(qs, xs, suffix)},
		{"query box", queryBoxBound(sampleRect(qs), xs)},
	} {
		if b.lb > d {
			t.Fatalf("%s bound %v exceeds DTW %v\nquery %v\nmember %v", b.stage, b.lb, d, qs.Samples, xs.Samples)
		}
	}
	for i := 0; i < n-1; i++ {
		if lb := (mins[i] + suffix[i]) * baselines.LowerBoundShrink; lb > d {
			t.Fatalf("row %d: minimum %v plus suffix %v exceeds DTW %v\nquery %v\nmember %v",
				i, mins[i], suffix[i], d, qs.Samples, xs.Samples)
		}
	}
}

// walk draws n ≥ 2 samples at a random scale, sometimes snapped to a grid
// and sometimes repeating a sample.
func walk(rng *rand.Rand, n int) trajectory.Trajectory {
	tr := trajectory.Trajectory{Samples: make([]trajectory.Sample, n)}
	scale := math.Pow(10, 1-3*rng.Float64())
	snap := rng.Intn(3) == 0
	x, y := rng.NormFloat64()*scale, rng.NormFloat64()*scale
	for i := range tr.Samples {
		if i == 0 || rng.Intn(5) > 0 {
			x += rng.NormFloat64() * scale / 3
			y += rng.NormFloat64() * scale / 3
		}
		tr.Samples[i] = trajectory.Sample{X: x, Y: y, T: float64(i)}
		if snap {
			tr.Samples[i].X, tr.Samples[i].Y = math.Round(x*3/scale), math.Round(y*3/scale)
		}
	}
	return tr
}

// hypotStep returns p, q with math.Hypot(p, q') < math.Hypot(p, q) where q'
// is the float after q: math.Hypot is not monotone to the last ulp.
func hypotStep(t *testing.T, rng *rand.Rand) (p, q float64) {
	t.Helper()
	for i := 0; i < 100_000; i++ {
		p, q = rng.Float64()*10, rng.Float64()*10
		if math.Hypot(p, math.Nextafter(q, math.Inf(1))) < math.Hypot(p, q) {
			return p, q
		}
	}
	t.Fatal("math.Hypot was monotone on every draw")
	return 0, 0
}

// cornerPair builds a pair whose box bound exceeds DTW in floats although
// it cannot in reals. The near side's two samples, (0, 0) and (−1, δ), span
// a box whose corner (0, δ) is no sample; the far side's first sample is
// (p, q + δ) and its second is (−1, δ). DTW is the one cell
// Hypot(p, q + δ); the box bound's term is Hypot(p, q), which rounds above
// it. It returns the pair with the box on the query side and with it on the
// member side.
func cornerPair(t *testing.T, rng *rand.Rand) (qs, xs trajectory.Trajectory) {
	p, q := hypotStep(t, rng)
	y := math.Nextafter(q, math.Inf(1))
	delta := y - q
	near := trajectory.Trajectory{Samples: []trajectory.Sample{{X: 0, Y: 0, T: 0}, {X: -1, Y: delta, T: 1}}}
	far := trajectory.Trajectory{Samples: []trajectory.Sample{{X: p, Y: y, T: 0}, {X: -1, Y: delta, T: 1}}}
	return near, far
}

func TestDTWCascadeBoundsBelowDTW(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for i := 0; i < 20_000; i++ {
		n, m := 2+rng.Intn(30), 2+rng.Intn(30)
		qs, xs := walk(rng, n), walk(rng, m)
		switch rng.Intn(6) {
		case 0: // zero distance
			xs = qs.Clone()
		case 1: // a stationary member: the member box bound and the suffix are tight
			xs = walk(rng, 2+rng.Intn(n-1))
			for j := range xs.Samples {
				xs.Samples[j].X, xs.Samples[j].Y = xs.Samples[0].X, xs.Samples[0].Y
			}
		case 2: // a stationary query: the query box bound is tight
			for j := range qs.Samples {
				qs.Samples[j].X, qs.Samples[j].Y = qs.Samples[0].X, qs.Samples[0].Y
			}
		case 3: // a box corner where math.Hypot rounds up
			near, far := cornerPair(t, rng)
			if rng.Intn(2) == 0 {
				qs, xs = near, far
			} else {
				qs, xs = far, near
			}
		}
		checkCascadeBounds(t, &qs, &xs)
	}

	// The workload's shape: window slices of two GSTD fleets, query and member
	// each cut at the window's ends.
	fleet := gstd.Generate(gstd.Config{NumObjects: 60, SamplesPerObject: 101, Seed: 1})
	foreign := gstd.Generate(gstd.Config{NumObjects: 8, SamplesPerObject: 101, Seed: 2})
	for i := 0; i < 400; i++ {
		src := &foreign.Trajs[rng.Intn(foreign.Len())]
		lo := rng.Intn(50)
		t1 := src.Samples[lo].T + rng.Float64()*(src.Samples[lo+1].T-src.Samples[lo].T)
		t2 := src.Samples[lo+50].T
		qs, _ := src.Slice(t1, t2)
		xs, _ := fleet.Trajs[rng.Intn(fleet.Len())].Slice(t1, t2)
		checkCascadeBounds(t, &qs, &xs)
	}
}
