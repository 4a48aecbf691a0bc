package geom

import (
	"math"
	"testing"
)

// Degenerate trinomials exercise the special-cased branches of
// IntegralBetween and MinDist that real sampled data rarely reaches:
// constant distance (a = b = 0), linear-f robustness fallback (a = 0,
// b != 0), perfect-square discriminants, and zero-duration intervals.
func TestTrinomialDegenerateIntegral(t *testing.T) {
	cases := []struct {
		name string
		tri  Trinomial
		want float64
		tol  float64
	}{
		{
			name: "zero distance zero motion",
			tri:  Trinomial{A: 0, B: 0, C: 0, T0: 0, T1: 5},
			want: 0,
			tol:  0,
		},
		{
			name: "constant distance", // D = 3 for 4 time units
			tri:  Trinomial{A: 0, B: 0, C: 9, T0: 1, T1: 5},
			want: 12,
			tol:  1e-12,
		},
		{
			name: "linear f fallback", // ∫₀³ sqrt(1+2τ) dτ = (7^{3/2}−1)/3
			tri:  Trinomial{A: 0, B: 2, C: 1, T0: 0, T1: 3},
			want: (math.Pow(7, 1.5) - 1) / 3,
			tol:  1e-12,
		},
		{
			name: "perfect square through zero", // sqrt(f) = |τ−1| over [0,2]
			tri:  Trinomial{A: 1, B: -2, C: 1, T0: 0, T1: 2},
			want: 1,
			tol:  1e-12,
		},
		{
			name: "zero duration",
			tri:  Trinomial{A: 2, B: 1, C: 7, T0: 3, T1: 3},
			want: 0,
			tol:  0,
		},
		{
			name: "general asinh branch", // ∫₀¹ sqrt(τ²+1) dτ = (√2 + asinh 1)/2
			tri:  Trinomial{A: 1, B: 0, C: 1, T0: 0, T1: 1},
			want: (math.Sqrt2 + math.Asinh(1)) / 2,
			tol:  1e-12,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := tc.tri.Integral()
			if math.Abs(got-tc.want) > tc.tol {
				t.Errorf("Integral() = %v, want %v (±%v)", got, tc.want, tc.tol)
			}
			// The refined trapezoid must agree within its own certified
			// error bound whenever that bound is finite.
			approx, errB := tc.tri.TrapezoidRefined(4)
			if !math.IsInf(errB, 1) {
				if math.Abs(approx-tc.want) > errB+1e-9*(1+math.Abs(tc.want)) {
					t.Errorf("TrapezoidRefined(4) = %v ± %v does not cover %v", approx, errB, tc.want)
				}
			}
		})
	}
}

// TestMinDistDegenerateSegments drives the MINDIST machinery with
// zero-duration and spatially degenerate (point-like) segments: the
// ExactZero guards in Lerp, Velocity and DistSegmentPoint must keep every
// result finite and exact.
func TestMinDistDegenerateSegments(t *testing.T) {
	seg := func(x1, y1, t1, x2, y2, t2 float64) Segment {
		return Segment{A: STPoint{X: x1, Y: y1, T: t1}, B: STPoint{X: x2, Y: y2, T: t2}}
	}
	cases := []struct {
		name   string
		q, t   Segment
		want   float64
		wantOK bool
	}{
		{
			name:   "both zero duration, coincident instant",
			q:      seg(0, 0, 5, 0, 0, 5),
			t:      seg(3, 4, 5, 3, 4, 5),
			want:   5,
			wantOK: true,
		},
		{
			name:   "zero duration against moving point",
			q:      seg(0, 0, 1, 0, 0, 1),
			t:      seg(-1, 2, 0, 3, 2, 2), // at t=1 sits at (1,2)
			want:   math.Sqrt(5),
			wantOK: true,
		},
		{
			name:   "identical segments",
			q:      seg(0, 0, 0, 10, 10, 4),
			t:      seg(0, 0, 0, 10, 10, 4),
			want:   0,
			wantOK: true,
		},
		{
			name:   "stationary points at constant distance",
			q:      seg(0, 0, 0, 0, 0, 10),
			t:      seg(6, 8, 0, 6, 8, 10),
			want:   10,
			wantOK: true,
		},
		{
			name:   "temporally disjoint",
			q:      seg(0, 0, 0, 1, 1, 1),
			t:      seg(0, 0, 2, 1, 1, 3),
			wantOK: false,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, ok := MinDistSegments(tc.q, tc.t)
			if ok != tc.wantOK {
				t.Fatalf("ok = %v, want %v", ok, tc.wantOK)
			}
			if !ok {
				if !math.IsInf(got, 1) {
					t.Errorf("disjoint distance = %v, want +Inf", got)
				}
				return
			}
			if math.Abs(got-tc.want) > 1e-9 {
				t.Errorf("MinDistSegments = %v, want %v", got, tc.want)
			}
		})
	}
}

// TestDistSegmentPointDegenerate pins the den == 0 branch: a segment whose
// endpoints coincide is a point, and the distance falls back to
// point-to-point.
func TestDistSegmentPointDegenerate(t *testing.T) {
	cases := []struct {
		name    string
		a, b, p Point
		want    float64
	}{
		{"point segment", Point{1, 1}, Point{1, 1}, Point{4, 5}, 5},
		{"point segment zero dist", Point{2, 3}, Point{2, 3}, Point{2, 3}, 0},
		{"projection clamped", Point{0, 0}, Point{1, 0}, Point{5, 0}, 4},
		{"interior projection", Point{0, 0}, Point{10, 0}, Point{5, 2}, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := DistSegmentPoint(tc.a, tc.b, tc.p); math.Abs(got-tc.want) > 1e-12 {
				t.Errorf("DistSegmentPoint = %v, want %v", got, tc.want)
			}
		})
	}
}
