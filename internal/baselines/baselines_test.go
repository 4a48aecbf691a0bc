package baselines

import (
	"math"
	"math/rand"
	"testing"

	"mstsearch/internal/dissim"
	"mstsearch/internal/trajectory"
)

func traj(id trajectory.ID, pts ...[3]float64) trajectory.Trajectory {
	tr := trajectory.Trajectory{ID: id}
	for _, p := range pts {
		tr.Samples = append(tr.Samples, trajectory.Sample{X: p[0], Y: p[1], T: p[2]})
	}
	return tr
}

func randTraj(rng *rand.Rand, id trajectory.ID, n int, span float64) trajectory.Trajectory {
	tr := trajectory.Trajectory{ID: id, Samples: make([]trajectory.Sample, n)}
	x, y := rng.Float64()*10, rng.Float64()*10
	for i := 0; i < n; i++ {
		tr.Samples[i] = trajectory.Sample{X: x, Y: y, T: span * float64(i) / float64(n-1)}
		x += rng.NormFloat64()
		y += rng.NormFloat64()
	}
	return tr
}

func TestLCSSIdentical(t *testing.T) {
	a := traj(1, [3]float64{0, 0, 0}, [3]float64{1, 1, 1}, [3]float64{2, 2, 2})
	b := a.Clone()
	if got := LCSS(&a, &b, 0.1, -1); got != 1 {
		t.Fatalf("identical LCSS = %v", got)
	}
	if got := LCSSDistance(&a, &b, 0.1, -1); got != 0 {
		t.Fatalf("identical LCSS distance = %v", got)
	}
}

func TestLCSSDisjoint(t *testing.T) {
	a := traj(1, [3]float64{0, 0, 0}, [3]float64{1, 0, 1})
	b := traj(2, [3]float64{100, 100, 0}, [3]float64{101, 100, 1})
	if got := LCSS(&a, &b, 0.5, -1); got != 0 {
		t.Fatalf("disjoint LCSS = %v", got)
	}
}

func TestLCSSPartialAndOutliers(t *testing.T) {
	// b equals a with one wild outlier: LCSS should ignore it (its main
	// advantage over Euclidean/DTW).
	a := traj(1,
		[3]float64{0, 0, 0}, [3]float64{1, 0, 1}, [3]float64{2, 0, 2},
		[3]float64{3, 0, 3}, [3]float64{4, 0, 4})
	b := a.Clone()
	b.Samples[2].X = 500
	got := LCSS(&a, &b, 0.1, -1)
	if math.Abs(got-0.8) > 1e-12 { // 4 of 5 match
		t.Fatalf("outlier LCSS = %v, want 0.8", got)
	}
}

func TestLCSSBandConstraint(t *testing.T) {
	// Same positions but shifted by 3 indices: a generous band finds them,
	// a tight band does not.
	var a, b trajectory.Trajectory
	a.ID, b.ID = 1, 2
	for i := 0; i < 10; i++ {
		a.Samples = append(a.Samples, trajectory.Sample{X: float64(i), Y: 0, T: float64(i)})
	}
	for i := 0; i < 10; i++ {
		b.Samples = append(b.Samples, trajectory.Sample{X: float64(i - 3), Y: 0, T: float64(i)})
	}
	loose := LCSS(&a, &b, 0.1, 5)
	tight := LCSS(&a, &b, 0.1, 1)
	if loose <= tight {
		t.Fatalf("band should matter: loose=%v tight=%v", loose, tight)
	}
}

func TestLCSSSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		a := randTraj(rng, 1, 5+rng.Intn(20), 10)
		b := randTraj(rng, 2, 5+rng.Intn(20), 10)
		if LCSS(&a, &b, 1, -1) != LCSS(&b, &a, 1, -1) {
			t.Fatal("LCSS must be symmetric without a band")
		}
	}
}

func TestEDRIdenticalAndBounds(t *testing.T) {
	a := traj(1, [3]float64{0, 0, 0}, [3]float64{1, 1, 1}, [3]float64{2, 2, 2})
	b := a.Clone()
	if got := EDR(&a, &b, 0.1); got != 0 {
		t.Fatalf("identical EDR = %v", got)
	}
	// Length difference lower-bounds EDR.
	c := traj(3, [3]float64{0, 0, 0}, [3]float64{1, 1, 1})
	if got := EDR(&a, &c, 0.1); got != 1 {
		t.Fatalf("EDR with one missing sample = %v", got)
	}
	// Completely different: at most max(n, m).
	d := traj(4, [3]float64{50, 50, 0}, [3]float64{51, 51, 1}, [3]float64{52, 52, 2})
	if got := EDR(&a, &d, 0.1); got != 3 {
		t.Fatalf("disjoint EDR = %v", got)
	}
}

// The paper's analytical argument (§5.2): for a compressed trajectory Ac
// of A (n vertices → m), EDR(A, Ac) ≥ n − m, so a short unrelated
// trajectory T with max(m, k) ≤ n − m can beat the original under EDR.
func TestEDRCompressionWeakness(t *testing.T) {
	// A: 40 samples along a line; Ac: its 2-point compression.
	var a trajectory.Trajectory
	a.ID = 1
	for i := 0; i < 40; i++ {
		a.Samples = append(a.Samples, trajectory.Sample{X: float64(i), Y: 0, T: float64(i)})
	}
	ac := traj(2, [3]float64{0, 0, 0}, [3]float64{39, 0, 39})
	// T: a tiny 2-vertex trajectory spatially far from A.
	tt := traj(3, [3]float64{500, 500, 0}, [3]float64{501, 500, 39})
	edrOrig := EDR(&a, &ac, 0.5)
	edrFar := EDR(&tt, &ac, 0.5)
	if edrFar > edrOrig {
		t.Fatalf("expected EDR to prefer the tiny far trajectory: orig=%d far=%d", edrOrig, edrFar)
	}
}

func TestDTW(t *testing.T) {
	a := traj(1, [3]float64{0, 0, 0}, [3]float64{1, 0, 1}, [3]float64{2, 0, 2})
	b := a.Clone()
	if got := DTW(&a, &b); got != 0 {
		t.Fatalf("identical DTW = %v", got)
	}
	// Constant offset of 1 in y: each of 3 alignments costs 1.
	c := traj(2, [3]float64{0, 1, 0}, [3]float64{1, 1, 1}, [3]float64{2, 1, 2})
	if got := DTW(&a, &c); math.Abs(got-3) > 1e-12 {
		t.Fatalf("offset DTW = %v, want 3", got)
	}
	// DTW tolerates time stretching: b sampled twice as densely.
	d := traj(3,
		[3]float64{0, 0, 0}, [3]float64{0.5, 0, 0.5}, [3]float64{1, 0, 1},
		[3]float64{1.5, 0, 1.5}, [3]float64{2, 0, 2})
	if got := DTW(&a, &d); got > 1.1 {
		t.Fatalf("stretched DTW = %v, expected small", got)
	}
}

func TestInterpolateToTimestamps(t *testing.T) {
	q := traj(1, [3]float64{0, 0, 0}, [3]float64{10, 0, 10})
	data := traj(2,
		[3]float64{0, 1, 0}, [3]float64{2, 1, 2}, [3]float64{5, 1, 5},
		[3]float64{8, 1, 8}, [3]float64{10, 1, 10})
	qi := InterpolateToTimestamps(&q, &data)
	if len(qi.Samples) != 5 {
		t.Fatalf("aligned query has %d samples: %+v", len(qi.Samples), qi.Samples)
	}
	// Interpolated positions lie on q's motion.
	for _, s := range qi.Samples {
		if math.Abs(s.X-s.T) > 1e-12 || s.Y != 0 {
			t.Fatalf("interpolated sample off course: %+v", s)
		}
	}
	// Data timestamps outside q's lifespan are not added.
	short := traj(3, [3]float64{0, 0, 2}, [3]float64{1, 0, 4})
	qs := InterpolateToTimestamps(&short, &data)
	for _, s := range qs.Samples {
		if s.T < 2 || s.T > 4 {
			t.Fatalf("sample outside lifespan: %+v", s)
		}
	}
}

// The paper's headline quality claim in miniature: with a 4-sample query
// against a 32-sample version of the same course (Fig. 1), plain LCSS/EDR
// fail while their -I variants and DISSIM succeed.
func TestImprovedVariantsHandleSamplingRates(t *testing.T) {
	mk := func(id trajectory.ID, n int, yOff float64) trajectory.Trajectory {
		tr := trajectory.Trajectory{ID: id, Samples: make([]trajectory.Sample, n)}
		for i := 0; i < n; i++ {
			tt := 10 * float64(i) / float64(n-1)
			tr.Samples[i] = trajectory.Sample{X: tt, Y: yOff + 0.3*math.Sin(tt), T: tt}
		}
		return tr
	}
	q := mk(0, 4, 0)       // sparse query
	same := mk(1, 32, 0)   // same course, dense sampling
	other := mk(2, 4, 3.0) // different course, matching sampling rate
	eps := 0.5

	// Plain EDR prefers the sampling-rate twin over the true course.
	if EDR(&q, &same, eps) <= EDR(&q, &other, eps) {
		t.Skip("plain EDR unexpectedly fine here; construction too easy")
	}
	// EDR-I must prefer the true course.
	if EDRI(&q, &same, eps) >= EDRI(&q, &other, eps) {
		t.Fatalf("EDR-I: same-course %d vs other %d", EDRI(&q, &same, eps), EDRI(&q, &other, eps))
	}
	// LCSS-I must prefer the true course too.
	if LCSSI(&q, &same, eps, -1) >= LCSSI(&q, &other, eps, -1) {
		t.Fatalf("LCSS-I: same %v vs other %v", LCSSI(&q, &same, eps, -1), LCSSI(&q, &other, eps, -1))
	}
	// And DISSIM trivially prefers it.
	dSame, _ := dissim.Exact(&q, &same, 0, 10)
	dOther, _ := dissim.Exact(&q, &other, 0, 10)
	if dSame >= dOther {
		t.Fatalf("DISSIM: same %v vs other %v", dSame, dOther)
	}
}

func TestEpsilonForDataset(t *testing.T) {
	a := traj(1, [3]float64{-2, 0, 0}, [3]float64{2, 0, 1}) // std 2 on x
	b := traj(2, [3]float64{0, 0, 0}, [3]float64{0, 0.2, 1})
	got := EpsilonForDataset([]trajectory.Trajectory{a, b})
	if math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("eps = %v, want 0.5", got)
	}
}

func TestLinearScanMST(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	trajs := make([]trajectory.Trajectory, 20)
	for i := range trajs {
		trajs[i] = randTraj(rng, trajectory.ID(i+1), 20, 10)
	}
	data, err := trajectory.NewDataset(trajs)
	if err != nil {
		t.Fatal(err)
	}
	// Query = copy of trajectory 5 → it must rank first with DISSIM ≈ 0.
	q := trajs[4].Clone()
	q.ID = 0
	res := LinearScanMST(data, &q, 0, 10, 3)
	if len(res) != 3 {
		t.Fatalf("got %d results", len(res))
	}
	if res[0].TrajID != 5 || res[0].Dissim > 1e-9 {
		t.Fatalf("top result = %+v, want trajectory 5 at 0", res[0])
	}
	if res[1].Dissim > res[2].Dissim {
		t.Fatal("results must be sorted")
	}
	// k larger than dataset.
	all := LinearScanMST(data, &q, 0, 10, 100)
	if len(all) != 20 {
		t.Fatalf("k beyond dataset: %d results", len(all))
	}
	// Window not covered by anyone → empty.
	if res := LinearScanMST(data, &q, -5, 10, 1); len(res) != 0 {
		t.Fatalf("uncoverable window gave %d results", len(res))
	}
}

func BenchmarkLCSS(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a := randTraj(rng, 1, 200, 10)
	c := randTraj(rng, 2, 200, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		LCSS(&a, &c, 1, -1)
	}
}

func BenchmarkEDR(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a := randTraj(rng, 1, 200, 10)
	c := randTraj(rng, 2, 200, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EDR(&a, &c, 1)
	}
}
