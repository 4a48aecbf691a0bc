package mstsearch

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"mstsearch/internal/gstd"
)

// The differential oracle: every index-based k-MST answer — over all three
// index kinds, serial and parallel, single-query and batch — must match a
// brute-force exact-DISSIM scan of the raw trajectory slice. The scan
// (linearTopK) touches no index, no buffer pool, and no concurrency, so an
// agreement here certifies the whole query stack at once.
//
// Tolerances: result membership and ordering must be identical. Distances
// must agree within the result's own certified error band (Lemma 1 gives
// Err = 0 after exact refinement, so in practice this is a floating-point
// epsilon). Serial and parallel runs of the *same* query must be
// bit-identical — same IDs, same float bits, same Certified flags — per
// the Options.Parallelism contract.

// oracleQuery builds a seeded random-walk query trajectory spanning the
// GSTD time domain [0, 1] inside the unit workspace.
func oracleQuery(rng *rand.Rand, samples int) *Trajectory {
	tr := &Trajectory{ID: 0, Samples: make([]Sample, samples)}
	x, y := rng.Float64(), rng.Float64()
	for j := 0; j < samples; j++ {
		tr.Samples[j] = Sample{X: x, Y: y, T: float64(j) / float64(samples-1)}
		x += rng.NormFloat64() * 0.02
		y += rng.NormFloat64() * 0.02
	}
	return tr
}

// oracleWindow draws a random query window [t1, t2] ⊂ [0, 1] wide enough
// to always span at least a few sampling intervals.
func oracleWindow(rng *rand.Rand) (float64, float64) {
	t1 := rng.Float64() * 0.6
	t2 := t1 + 0.1 + rng.Float64()*(1.0-t1-0.1)
	return t1, t2
}

// checkOracle compares an index answer against the linear-scan oracle:
// same members, same order, distances within the certified band.
func checkOracle(t *testing.T, label string, iter int, res []Result, want []scanHit) {
	t.Helper()
	if len(res) != len(want) {
		t.Fatalf("%s iter %d: got %d results, oracle %d", label, iter, len(res), len(want))
	}
	for j := range want {
		if res[j].TrajID != want[j].id {
			t.Fatalf("%s iter %d: rank %d = traj %d (%g), oracle %d (%g)",
				label, iter, j, res[j].TrajID, res[j].Dissim, want[j].id, want[j].d)
		}
		tol := res[j].Err + 1e-9*(1+math.Abs(want[j].d))
		if math.Abs(res[j].Dissim-want[j].d) > tol {
			t.Fatalf("%s iter %d: traj %d dissim %g outside band ±%g of oracle %g",
				label, iter, res[j].TrajID, res[j].Dissim, tol, want[j].d)
		}
		if !res[j].Certified {
			t.Fatalf("%s iter %d: unbudgeted search left result %d uncertified",
				label, iter, res[j].TrajID)
		}
	}
}

// checkBitIdentical asserts two answers to the same query are equal down
// to the float bits — the determinism contract of parallel execution.
func checkBitIdentical(t *testing.T, label string, iter int, serial, parallel []Result) {
	t.Helper()
	if len(serial) != len(parallel) {
		t.Fatalf("%s iter %d: serial %d results, parallel %d", label, iter, len(serial), len(parallel))
	}
	for j := range serial {
		s, p := serial[j], parallel[j]
		if s.TrajID != p.TrajID ||
			math.Float64bits(s.Dissim) != math.Float64bits(p.Dissim) ||
			math.Float64bits(s.Err) != math.Float64bits(p.Err) ||
			s.Certified != p.Certified {
			t.Fatalf("%s iter %d rank %d: serial %+v != parallel %+v", label, iter, j, s, p)
		}
	}
}

// TestDifferentialOracle is the PR's central correctness gate: randomized
// GSTD fleets × every index kind × {serial, Parallelism=4,
// batch(Parallelism=4)} — every answer checked against the brute-force
// oracle, and every parallel answer checked bit-identical to its serial
// twin. Over 1000 index query executions run per full pass.
func TestDifferentialOracle(t *testing.T) {
	fleets := []struct {
		name string
		cfg  gstd.Config
	}{
		{"S0030", gstd.Config{NumObjects: 30, SamplesPerObject: 121, Seed: 1}},
		{"S0048", gstd.Config{NumObjects: 48, SamplesPerObject: 81, Seed: 2}},
	}
	const queriesPerCombo = 56 // × (serial+parallel+batch) × 3 kinds × 2 fleets = 1008 executions
	executions := 0
	for _, fl := range fleets {
		trajs := gstd.Generate(fl.cfg).Trajs
		for _, kind := range IndexKinds() {
			label := fl.name + "/" + kind.String()
			t.Run(label, func(t *testing.T) {
				db, err := NewDB(kind, trajs)
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(1000*int64(kind) + fl.cfg.Seed))

				serialOut := make([][]Result, queriesPerCombo)
				batch := make([]BatchQuery, queriesPerCombo)
				for i := 0; i < queriesPerCombo; i++ {
					var q *Trajectory
					if i%3 == 0 {
						// Reuse a stored trajectory as query: its twin must
						// surface at distance ~0.
						c := trajs[rng.Intn(len(trajs))].Clone()
						q = &c
					} else {
						q = oracleQuery(rng, 61)
					}
					t1, t2 := oracleWindow(rng)
					k := 1 + rng.Intn(5)
					want := linearTopK(trajs, q, t1, t2, k)

					// Serial leg through the canonical Query entry point,
					// parallel leg through the deprecated wrapper: the
					// bit-identical check then also certifies that the two
					// entry points are the same search.
					resp, err := db.Query(context.Background(), Request{
						Q: q, Interval: Interval{T1: t1, T2: t2}, K: k,
						Options: Options{ExactRefine: true, Refine: 1, Parallelism: 1},
					})
					if err != nil {
						t.Fatalf("iter %d serial: %v", i, err)
					}
					serial := resp.Results
					checkOracle(t, "serial", i, serial, want)

					par, _, err := db.KMostSimilarOpts(q, t1, t2, k,
						Options{ExactRefine: true, Refine: 1, Parallelism: 4})
					if err != nil {
						t.Fatalf("iter %d parallel: %v", i, err)
					}
					checkOracle(t, "parallel", i, par, want)
					checkBitIdentical(t, "single", i, serial, par)

					serialOut[i] = serial
					batch[i] = BatchQuery{Q: q, T1: t1, T2: t2, K: k}
					executions += 2
				}

				// The whole combo again as one batch on 4 workers: every
				// slot bit-identical to its serial twin.
				for i, br := range db.KMostSimilarBatch(context.Background(), batch,
					Options{ExactRefine: true, Refine: 1, Parallelism: 4}) {
					if br.Err != nil {
						t.Fatalf("batch slot %d: %v", i, br.Err)
					}
					checkBitIdentical(t, "batch", i, serialOut[i], br.Results)
					executions += 1
				}
			})
		}
	}
	if !t.Failed() && executions > 0 && executions < 1000 {
		t.Fatalf("oracle pass ran only %d index query executions, want ≥ 1000", executions)
	}
}

// TestOracleSelfQuery pins the identity case across kinds: querying with a
// stored trajectory over the full window must rank its twin first at
// DISSIM ≈ 0.
func TestOracleSelfQuery(t *testing.T) {
	trajs := gstd.Generate(gstd.Config{NumObjects: 25, SamplesPerObject: 61, Seed: 9}).Trajs
	for _, kind := range IndexKinds() {
		db, err := NewDB(kind, trajs)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range []int{0, 7, 24} {
			q := trajs[id].Clone()
			res, _, err := db.KMostSimilar(&q, 0, 1, 1)
			if err != nil {
				t.Fatalf("%s: %v", kind, err)
			}
			if len(res) != 1 || res[0].TrajID != trajs[id].ID {
				t.Fatalf("%s: self-query for traj %d returned %+v", kind, trajs[id].ID, res)
			}
			if res[0].Dissim > 1e-9 {
				t.Fatalf("%s: self-distance %g, want ~0", kind, res[0].Dissim)
			}
		}
	}
}
