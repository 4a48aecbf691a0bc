package mstsearch

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"mstsearch/internal/gstd"
	"mstsearch/internal/index"
	"mstsearch/internal/mst"
)

// The differential oracle: every index-based k-MST answer — over every
// index kind, single-query and batch — must match a brute-force
// exact-DISSIM scan of the raw trajectory slice. The scan (linearTopK)
// touches no index, no buffer pool, and no concurrency, so an agreement
// here certifies the whole query stack at once.
//
// Tolerances: result membership and ordering must be identical. Every
// index evaluates its answers exactly, so distances must agree within a
// floating-point epsilon, and the heterogeneous-lifespan oracle demands
// the oracle's bits. Two runs of the *same* query
// — alone, through another entry point, or as a slot of a batch on many
// workers — must be bit-identical: same IDs, same float bits, same
// Certified flags.

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
// same members, same order, distances within a floating-point epsilon.
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
		tol := 1e-9 * (1 + math.Abs(want[j].d))
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

					// Serial leg through Query, parallel leg through
					// Explain: the bit-identical check then also certifies
					// that the two entry points are the same search.
					resp, err := db.Query(context.Background(), Request{
						Q: q, Interval: Interval{T1: t1, T2: t2}, K: k,
						Options: Options{Parallelism: 1},
					})
					if err != nil {
						t.Fatalf("iter %d serial: %v", i, err)
					}
					serial := resp.Results
					checkOracle(t, "serial", i, serial, want)

					rep, err := db.Explain(context.Background(), Request{
						Q: q, Interval: Interval{T1: t1, T2: t2}, K: k,
						Options: Options{Parallelism: 4},
					})
					if err != nil {
						t.Fatalf("iter %d parallel: %v", i, err)
					}
					par := rep.Results
					checkOracle(t, "parallel", i, par, want)
					checkBitIdentical(t, "single", i, serial, par)

					serialOut[i] = serial
					batch[i] = BatchQuery{Q: q, T1: t1, T2: t2, K: k}
					executions += 2
				}

				// The whole combo again as one batch on 4 workers: every
				// slot bit-identical to its serial twin.
				for i, br := range db.KMostSimilarBatch(context.Background(), batch,
					Options{Parallelism: 4}) {
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

// searchMST runs req on db's index through internal/mst with opts, filling
// in K, Vmax, ExcludeIDs and MaxNodeAccesses from req and db as DB.Query
// does. It reaches the switches DB.Query does not expose: on an MBB index,
// opts.Data nil runs the paper's trapezoid search, and the heuristics
// switches and Refine act as internal/mst documents them. A metric index
// always searches with the trajectory store.
func searchMST(tb testing.TB, db *DB, req Request, opts mst.Options) ([]mst.Result, mst.Stats) {
	tb.Helper()
	opts.K, opts.Vmax = req.K, db.vmax+req.Q.MaxSpeed()
	opts.ExcludeIDs, opts.MaxNodeAccesses = req.Options.ExcludeIDs, req.Options.MaxNodeAccesses
	ctx, iv := context.Background(), req.Interval
	var (
		res []mst.Result
		st  mst.Stats
		err error
	)
	switch tree := db.view().(type) {
	case index.MetricTree:
		if opts.Data, err = db.dataset(); err == nil {
			res, st, err = mst.MetricSearchContext(ctx, tree, req.Q, iv.T1, iv.T2, req.Metric, req.MetricEps, opts)
		}
	case index.Tree:
		res, st, err = mst.SearchContext(ctx, tree, req.Q, iv.T1, iv.T2, opts)
	default:
		err = fmt.Errorf("index kind %s exposes no searchable view", db.kind)
	}
	if err != nil {
		tb.Fatal(err)
	}
	return res, st
}

// TestDifferentialOraclePaperPath is the oracle's leg for the paper's
// trapezoid search, run through internal/mst without the trajectory store:
// an MBB index assembles candidates segment by segment and reports
// certified intervals. Each result's interval must contain its exact
// DISSIM, and a result may stand in for a true top-k member only within
// their two errors — r outranks a missing t only if mid(r) ≤ mid(t), so
// exact(r) ≤ k-th exact + Err(r) + the largest Err over the true top k.
// Members' errors come from a reference search that completes every
// trajectory (both heuristics off, k = all). The metric index searches
// exactly either way and must match the oracle.
func TestDifferentialOraclePaperPath(t *testing.T) {
	trajs := gstd.Generate(gstd.Config{NumObjects: 48, SamplesPerObject: 81, Seed: 2}).Trajs
	for _, kind := range IndexKinds() {
		t.Run(kind.String(), func(t *testing.T) {
			db, err := NewDB(kind, trajs)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(500 + int64(kind)))
			for i := 0; i < 24; i++ {
				q := oracleQuery(rng, 61)
				t1, t2 := oracleWindow(rng)
				k := 1 + rng.Intn(5)
				req := Request{Q: q, Interval: Interval{T1: t1, T2: t2}, K: k}
				res, _ := searchMST(t, db, req, mst.Options{Refine: 1})
				req.K = len(trajs)
				ref, _ := searchMST(t, db, req, mst.Options{Refine: 1, DisableHeuristic1: true, DisableHeuristic2: true})
				refErr := map[ID]float64{}
				for _, r := range ref {
					refErr[r.TrajID] = r.Err
				}
				all := linearTopK(trajs, q, t1, t2, len(trajs))
				exact := map[ID]float64{}
				for _, a := range all {
					exact[a.id] = a.d
				}
				want := all[:min(k, len(all))]
				var kth, topErr float64
				for _, w := range want {
					kth, topErr = w.d, math.Max(topErr, refErr[w.id])
				}
				if len(res) != len(want) {
					t.Fatalf("iter %d: got %d results, oracle %d", i, len(res), len(want))
				}
				for j, r := range res {
					d, ok := exact[r.TrajID]
					slack := 1e-9 * (1 + math.Abs(d))
					switch {
					case !ok:
						t.Fatalf("iter %d: rank %d traj %d does not cover the window", i, j, r.TrajID)
					case math.Abs(d-r.Dissim) > r.Err+slack:
						t.Fatalf("iter %d: rank %d traj %d exact %v outside certified %v±%v", i, j, r.TrajID, d, r.Dissim, r.Err)
					case d > kth+r.Err+topErr+slack:
						t.Fatalf("iter %d: rank %d traj %d exact %v beyond k-th %v + errors %v + %v", i, j, r.TrajID, d, kth, r.Err, topErr)
					case !r.Certified:
						t.Fatalf("iter %d: unbudgeted search left result %d uncertified", i, r.TrajID)
					}
				}
			}
		})
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
			resp, err := db.Query(context.Background(), Request{Q: &q, Interval: Interval{0, 1}, K: 1})
			if err != nil {
				t.Fatalf("%s: %v", kind, err)
			}
			res := resp.Results
			if len(res) != 1 || res[0].TrajID != trajs[id].ID {
				t.Fatalf("%s: self-query for traj %d returned %+v", kind, trajs[id].ID, res)
			}
			if res[0].Dissim > 1e-9 {
				t.Fatalf("%s: self-distance %g, want ~0", kind, res[0].Dissim)
			}
		}
	}
}

// lifespanWorkload is the heterogeneous-lifespan fleet: the GSTD fleet,
// whose members all cover the time domain [0, 1], plus twelve short
// near-twins of each query — noisy copies of a piece of the query, each
// covering only part of the query's window. A quarter straddle the
// window's start, a quarter its end, a quarter lie inside it, and a
// quarter miss it by a sliver at one end. A near-twin is closer to its
// query than any covering trajectory, yet has no DISSIM over the window
// (§3 Def. 1): it must never be an answer, nor tighten the bound that
// decides one. The requests carry Q and Interval only.
func lifespanWorkload(nq int) ([]Trajectory, []Request) {
	trajs := gstd.Generate(gstd.Config{NumObjects: 40, SamplesPerObject: 81, Seed: 3}).Trajs
	rng := rand.New(rand.NewSource(37))
	reqs := make([]Request, nq)
	for i := range reqs {
		q := oracleQuery(rng, 61)
		t1 := 0.1 + rng.Float64()*0.3
		t2 := t1 + 0.25 + rng.Float64()*0.3
		w := t2 - t1
		reqs[i] = Request{Q: q, Interval: Interval{T1: t1, T2: t2}}
		for j := 0; j < 12; j++ {
			var a, b float64
			switch j % 4 {
			case 0: // straddles the window's start
				a, b = t1-0.02-rng.Float64()*0.08, t1+w*(0.3+0.6*rng.Float64())
			case 1: // straddles the window's end
				a, b = t2-w*(0.3+0.6*rng.Float64()), t2+0.02+rng.Float64()*0.03
			case 2: // inside the window
				a, b = t1+w*(0.01+0.2*rng.Float64()), t2-w*(0.01+0.2*rng.Float64())
			default: // all but a sliver at one end
				if j%8 == 3 {
					a, b = t1+w*0.005, t2+0.05
				} else {
					a, b = t1-0.05, t2-w*0.005
				}
			}
			twin, ok := q.Slice(a, b)
			if !ok {
				panic(fmt.Sprintf("lifespan twin [%g, %g] outside its query", a, b))
			}
			twin.ID = ID(10000 + 100*i + j)
			for s := range twin.Samples {
				twin.Samples[s].X += rng.NormFloat64() * 0.003
				twin.Samples[s].Y += rng.NormFloat64() * 0.003
			}
			trajs = append(trajs, twin)
		}
	}
	return trajs, reqs
}

// checkExactOracle asserts an answer equals the linear-scan oracle down to
// the float bits, and certified.
func checkExactOracle(t *testing.T, label string, res []Result, want []scanHit) {
	t.Helper()
	if len(res) != len(want) {
		t.Errorf("%s: got %d results, oracle %d: %+v", label, len(res), len(want), res)
		return
	}
	for j := range want {
		r := res[j]
		if r.TrajID != want[j].id || math.Float64bits(r.Dissim) != math.Float64bits(want[j].d) || !r.Certified {
			t.Errorf("%s: rank %d = %+v, oracle traj %d at %v", label, j, r, want[j].id, want[j].d)
			return
		}
	}
}

// TestLifespanOracle runs the heterogeneous-lifespan workload on every
// index kind, k from 1 to 8, and demands the oracle's answer bit for bit,
// once with DefaultOptions and once with the zero Options a Request
// carries when the caller sets none. A search that lets a non-covering
// trajectory's bound into τ rejects or stops short of covering answers and
// returns fewer or other results.
func TestLifespanOracle(t *testing.T) {
	trajs, reqs := lifespanWorkload(10)
	rows := []struct {
		name string
		opts Options
	}{
		{"DefaultOptions", DefaultOptions()},
		{"ZeroOptions", Options{}},
	}
	for _, kind := range IndexKinds() {
		t.Run(kind.String(), func(t *testing.T) {
			db, err := NewDB(kind, trajs)
			if err != nil {
				t.Fatal(err)
			}
			for _, row := range rows {
				t.Run(row.name, func(t *testing.T) {
					for i, req := range reqs {
						for k := 1; k <= 8; k++ {
							req.K, req.Options = k, row.opts
							resp, err := db.Query(context.Background(), req)
							if err != nil {
								t.Fatalf("query %d k=%d: %v", i, k, err)
							}
							want := linearTopK(trajs, req.Q, req.Interval.T1, req.Interval.T2, k)
							checkExactOracle(t, fmt.Sprintf("query %d k=%d", i, k), resp.Results, want)
						}
					}
				})
			}
		})
	}
}
