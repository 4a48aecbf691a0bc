package mstsearch

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"mstsearch/internal/gstd"
)

// Metamorphic properties of k-MST: relations that must hold between the
// answers to *related* queries, checkable without any ground truth.

// TestMetamorphicKPrefix: shrinking k can only truncate the answer. For
// every k' < k, results(k') must be bit-identical to results(k)[:k'] —
// best-first search with exact refinement admits ranks independently of
// how many are requested beyond them.
func TestMetamorphicKPrefix(t *testing.T) {
	trajs := gstd.Generate(gstd.Config{NumObjects: 40, SamplesPerObject: 81, Seed: 11}).Trajs
	for _, kind := range IndexKinds() {
		t.Run(kind.String(), func(t *testing.T) {
			db, err := NewDB(kind, trajs)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(21))
			for iter := 0; iter < 12; iter++ {
				q := oracleQuery(rng, 61)
				t1, t2 := oracleWindow(rng)
				const kMax = 8
				resp, err := db.Query(context.Background(), Request{Q: q, Interval: Interval{t1, t2}, K: kMax})
				if err != nil {
					t.Fatal(err)
				}
				full := resp.Results
				for _, kSmall := range []int{1, 3, kMax - 1} {
					resp, err := db.Query(context.Background(), Request{Q: q, Interval: Interval{t1, t2}, K: kSmall})
					if err != nil {
						t.Fatal(err)
					}
					pre := resp.Results
					want := full
					if len(want) > kSmall {
						want = want[:kSmall]
					}
					checkBitIdentical(t, "k-prefix", iter, want, pre)
				}
			}
		})
	}
}

// TestMetamorphicLifespanNonCovering: a trajectory that does not cover the
// query window has no DISSIM over it (§3 Def. 1), so adding any number of
// them never changes the answer. For each request of the heterogeneous-
// lifespan workload, the GSTD fleet alone and the fleet plus every
// near-twin not covering the request's window must answer bit-identically
// at every k from 1 to 8.
func TestMetamorphicLifespanNonCovering(t *testing.T) {
	trajs, reqs := lifespanWorkload(10)
	const fleet = 40 // the GSTD members lead the workload
	for _, kind := range IndexKinds() {
		t.Run(kind.String(), func(t *testing.T) {
			base, err := NewDB(kind, trajs[:fleet])
			if err != nil {
				t.Fatal(err)
			}
			for i, req := range reqs {
				with := append([]Trajectory{}, trajs[:fleet]...)
				for _, tr := range trajs[fleet:] {
					if !tr.Covers(req.Interval.T1, req.Interval.T2) {
						with = append(with, tr)
					}
				}
				db, err := NewDB(kind, with)
				if err != nil {
					t.Fatal(err)
				}
				for k := 1; k <= 8; k++ {
					req.K = k
					want, err := base.Query(context.Background(), req)
					if err != nil {
						t.Fatal(err)
					}
					got, err := db.Query(context.Background(), req)
					if err != nil {
						t.Fatal(err)
					}
					checkBitIdentical(t, fmt.Sprintf("k=%d non-covering added", k), i, want.Results, got.Results)
				}
			}
		})
	}
}

// TestMetamorphicDuplicate: indexing an exact copy of a stored trajectory
// under a fresh ID must make the copy show up alongside the original with
// the same DISSIM to any query — the metric cannot tell identical curves
// apart.
func TestMetamorphicDuplicate(t *testing.T) {
	trajs := gstd.Generate(gstd.Config{NumObjects: 30, SamplesPerObject: 61, Seed: 31}).Trajs
	const victim = 4
	dup := trajs[victim].Clone()
	dup.ID = ID(len(trajs) + 100)
	withDup := append(append([]Trajectory{}, trajs...), dup)

	for _, kind := range IndexKinds() {
		t.Run(kind.String(), func(t *testing.T) {
			db, err := NewDB(kind, withDup)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(32))
			for iter := 0; iter < 10; iter++ {
				// Query near the victim so original and copy land in the
				// top-k; k covers the whole fleet to make presence certain.
				q := trajs[victim].Clone()
				for j := range q.Samples {
					q.Samples[j].X += rng.NormFloat64() * 0.01
					q.Samples[j].Y += rng.NormFloat64() * 0.01
				}
				resp, err := db.Query(context.Background(), Request{Q: &q, Interval: Interval{0, 1}, K: len(withDup)})
				if err != nil {
					t.Fatal(err)
				}
				res := resp.Results
				var dOrig, dCopy float64
				foundOrig, foundCopy := false, false
				for _, r := range res {
					switch r.TrajID {
					case trajs[victim].ID:
						dOrig, foundOrig = r.Dissim, true
					case dup.ID:
						dCopy, foundCopy = r.Dissim, true
					}
				}
				if !foundOrig || !foundCopy {
					t.Fatalf("iter %d: original present=%v, duplicate present=%v", iter, foundOrig, foundCopy)
				}
				if math.Abs(dOrig-dCopy) > 1e-9*(1+math.Abs(dOrig)) {
					t.Fatalf("iter %d: original DISSIM %g != duplicate DISSIM %g", iter, dOrig, dCopy)
				}
			}
		})
	}
}

// TestMetamorphicWindowShrink: DISSIM is the integral of a non-negative
// distance function over the query window (Definition 3), so shrinking the
// window to a sub-interval can only remove area under the curve — for any
// trajectory defined on both windows, DISSIM over the sub-window is ≤ its
// DISSIM over the full window. (This is the monotonicity direction the
// integral actually gives; the per-trajectory value never *increases* as
// the window shrinks.) Checked both on the raw metric and through the
// index for every result surviving in both answers.
func TestMetamorphicWindowShrink(t *testing.T) {
	trajs := gstd.Generate(gstd.Config{NumObjects: 35, SamplesPerObject: 81, Seed: 41}).Trajs
	for _, kind := range IndexKinds() {
		t.Run(kind.String(), func(t *testing.T) {
			db, err := NewDB(kind, trajs)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(42))
			for iter := 0; iter < 12; iter++ {
				q := oracleQuery(rng, 81)
				t1, t2 := 0.1+rng.Float64()*0.1, 0.8+rng.Float64()*0.1
				// A strict sub-window.
				s1 := t1 + 0.05 + rng.Float64()*0.1
				s2 := t2 - 0.05 - rng.Float64()*0.1

				// Raw metric, every trajectory.
				for i := range trajs {
					dFull, ok1 := Dissimilarity(q, &trajs[i], t1, t2)
					dSub, ok2 := Dissimilarity(q, &trajs[i], s1, s2)
					if !ok1 || !ok2 {
						continue
					}
					if dSub > dFull+1e-9*(1+dFull) {
						t.Fatalf("iter %d traj %d: sub-window DISSIM %g > full-window %g",
							iter, trajs[i].ID, dSub, dFull)
					}
				}

				// Through the index: the same inequality for results
				// surviving in both top-k answers.
				const k = 10
				resp, err := db.Query(context.Background(), Request{Q: q, Interval: Interval{t1, t2}, K: k})
				if err != nil {
					t.Fatal(err)
				}
				full := resp.Results
				resp, err = db.Query(context.Background(), Request{Q: q, Interval: Interval{s1, s2}, K: k})
				if err != nil {
					t.Fatal(err)
				}
				sub := resp.Results
				fullBy := make(map[ID]float64, len(full))
				for _, r := range full {
					fullBy[r.TrajID] = r.Dissim
				}
				survived := 0
				for _, r := range sub {
					dFull, ok := fullBy[r.TrajID]
					if !ok {
						continue
					}
					survived++
					if r.Dissim > dFull+1e-9*(1+dFull) {
						t.Fatalf("iter %d traj %d: index sub-window DISSIM %g > full-window %g",
							iter, r.TrajID, r.Dissim, dFull)
					}
				}
				if survived == 0 {
					t.Fatalf("iter %d: no result survived the window shrink; property never exercised", iter)
				}
			}
		})
	}
}
