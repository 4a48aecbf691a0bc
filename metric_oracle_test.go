package mstsearch

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"

	"mstsearch/internal/gstd"
	"mstsearch/internal/mst"
)

// The metric differential oracle: every exact-metric kNN answer the
// N-tree produces — serial, parallel, and batch — must match a
// brute-force scan that evaluates the same EvalMetric code path against
// every stored trajectory. The scan touches no index, so agreement
// certifies the metric search stack (pivot descent, triangle-bound
// pruning, leaf refinement) end to end. Distances must be bit-identical:
// the tree's exact refinement and the oracle call the same function on
// the same operands.

// metricLinearTopK is the brute-force exact-metric oracle.
func metricLinearTopK(trajs []Trajectory, q *Trajectory, t1, t2 float64, k int, m Metric, eps float64) []scanHit {
	var hits []scanHit
	for i := range trajs {
		d, ok := MetricDistance(m, eps, q, &trajs[i], t1, t2)
		if !ok {
			continue
		}
		hits = append(hits, scanHit{id: trajs[i].ID, d: d})
	}
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].d != hits[j].d {
			return hits[i].d < hits[j].d
		}
		return hits[i].id < hits[j].id
	})
	if len(hits) > k {
		hits = hits[:k]
	}
	return hits
}

// checkMetricOracle compares an index answer against the metric oracle:
// same members, same order, bit-identical distances.
func checkMetricOracle(t *testing.T, label string, iter int, res []Result, want []scanHit) {
	t.Helper()
	if len(res) != len(want) {
		t.Fatalf("%s iter %d: got %d results, oracle %d", label, iter, len(res), len(want))
	}
	for j := range want {
		if res[j].TrajID != want[j].id {
			t.Fatalf("%s iter %d: rank %d = traj %d (%g), oracle %d (%g)",
				label, iter, j, res[j].TrajID, res[j].Dissim, want[j].id, want[j].d)
		}
		if math.Float64bits(res[j].Dissim) != math.Float64bits(want[j].d) {
			t.Fatalf("%s iter %d: traj %d distance %g not bit-identical to oracle %g",
				label, iter, res[j].TrajID, res[j].Dissim, want[j].d)
		}
		if !res[j].Certified {
			t.Fatalf("%s iter %d: unbudgeted metric search left result %d uncertified",
				label, iter, res[j].TrajID)
		}
	}
}

// TestMetricDifferentialOracle runs randomized GSTD fleets × all four
// metrics (DISSIM through the metric engine, plus DTW/LCSS/EDR) ×
// {serial, Parallelism=4, batch} on the N-tree, each answer checked
// against the brute-force oracle and each parallel answer bit-identical
// to its serial twin.
func TestMetricDifferentialOracle(t *testing.T) {
	trajs := gstd.Generate(gstd.Config{NumObjects: 32, SamplesPerObject: 81, Seed: 5}).Trajs
	db, err := NewDB(NTree, trajs)
	if err != nil {
		t.Fatal(err)
	}
	metrics := []struct {
		m   Metric
		eps float64
	}{
		{MetricDISSIM, 0},
		{MetricDTW, 0},
		{MetricLCSS, 0.05},
		{MetricEDR, 0.05},
	}
	const queriesPerMetric = 24
	for _, mc := range metrics {
		t.Run(mc.m.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(100 * int64(mc.m)))
			serialOut := make([][]Result, queriesPerMetric)
			batch := make([]BatchQuery, queriesPerMetric)
			filtered := 0
			for i := 0; i < queriesPerMetric; i++ {
				var q *Trajectory
				if i%3 == 0 {
					c := trajs[rng.Intn(len(trajs))].Clone()
					q = &c
				} else {
					q = oracleQuery(rng, 61)
				}
				t1, t2 := oracleWindow(rng)
				k := 1 + rng.Intn(5)
				want := metricLinearTopK(trajs, q, t1, t2, k, mc.m, mc.eps)

				req := Request{
					Q: q, Interval: Interval{T1: t1, T2: t2}, K: k,
					Metric: mc.m, MetricEps: mc.eps,
					Options: Options{Parallelism: 1},
				}
				resp, err := db.Query(context.Background(), req)
				if err != nil {
					t.Fatalf("iter %d serial: %v", i, err)
				}
				checkMetricOracle(t, "serial", i, resp.Results, want)
				if mc.m == MetricDTW {
					filtered += checkDTWFilterParity(t, db, req, resp.Results)
				}

				preq := req
				preq.Options.Parallelism = 4
				presp, err := db.Query(context.Background(), preq)
				if err != nil {
					t.Fatalf("iter %d parallel: %v", i, err)
				}
				checkMetricOracle(t, "parallel", i, presp.Results, want)
				checkBitIdentical(t, "metric-single", i, resp.Results, presp.Results)

				serialOut[i] = resp.Results
				batch[i] = BatchQuery{Q: q, T1: t1, T2: t2, K: k, Metric: mc.m, MetricEps: mc.eps}
			}
			for i, br := range db.KMostSimilarBatch(context.Background(), batch,
				Options{Parallelism: 4}) {
				if br.Err != nil {
					t.Fatalf("batch slot %d: %v", i, br.Err)
				}
				checkBitIdentical(t, "metric-batch", i, serialOut[i], br.Results)
			}
			if mc.m == MetricDTW && filtered == 0 {
				t.Fatal("no admitted DTW candidate was filtered or abandoned: the cascade did not run")
			}
		})
	}
	t.Run("dtw-ties", func(t *testing.T) { testDTWTies(t, trajs) })
}

// checkDTWFilterParity reruns a DTW request traced, and again through
// internal/mst with Heuristic 1 disabled, which evaluates every admitted
// candidate in full. Both must return want. It returns how many candidates
// the traced run admitted and then rejected: filtered by a cascade bound
// or abandoned by the kernel.
func checkDTWFilterParity(t *testing.T, db *DB, req Request, want []Result) int {
	t.Helper()
	treq := req
	filtered := countFiltered(&treq.Options)
	tresp, err := db.Query(context.Background(), treq)
	if err != nil {
		t.Fatal(err)
	}
	checkBitIdentical(t, "dtw-traced", 0, want, tresp.Results)
	checkBitIdentical(t, "dtw-heuristic1-off", 0, want, searchH1Off(t, db, req))
	return *filtered
}

// searchH1Off runs req on db's metric index through internal/mst with
// Heuristic 1 disabled, the switch DB.Query does not expose.
func searchH1Off(t *testing.T, db *DB, req Request) []Result {
	t.Helper()
	res, _ := searchMST(t, db, req, mst.Options{DisableHeuristic1: true})
	out := make([]Result, len(res))
	for i, r := range res {
		out[i] = Result{TrajID: r.TrajID, Dissim: r.Dissim, Certified: r.Certified}
	}
	return out
}

// countFiltered sets a trace hook on o that counts the candidates admitted
// and then rejected by Heuristic 1, and returns the counter.
func countFiltered(o *Options) *int {
	admitted := map[ID]bool{}
	filtered := new(int)
	o.Trace = func(ev TraceEvent) {
		switch {
		case ev.Kind == EventCandidateAdmit:
			admitted[ev.TrajID] = true
		case ev.Kind == EventCandidatePrune && ev.Heuristic == 1 && admitted[ev.TrajID]:
			*filtered++
		}
	}
	return filtered
}

// testDTWTies holds two copies of each of two trajectories under other IDs,
// one copy stored before its original and one after, and asks for the k
// that puts the lower ID of a pair in the answer and the higher one out. A
// tie is no reason to reject: the lower ID must win however the leaf orders
// the twins. Windows on sample times against a twin's own samples make
// every bound of the cascade equal to the distance, 0.
func testDTWTies(t *testing.T, fleet []Trajectory) {
	early, late := fleet[3].Clone(), fleet[7].Clone()
	early.ID, late.ID = 1000, 1001
	trajs := append(append([]Trajectory{early}, fleet...), late)
	db, err := NewDB(NTree, trajs)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(26))
	for i := 0; i < 16; i++ {
		twin, orig := early, fleet[3]
		if i%2 == 1 {
			twin, orig = late, fleet[7]
		}
		lo := rng.Intn(40)
		t1, t2 := orig.Samples[lo].T, orig.Samples[lo+20+rng.Intn(20)].T
		var q *Trajectory
		if i%4 < 2 {
			s, _ := orig.Slice(t1, t2)
			q = &s
		} else {
			q = oracleQuery(rng, 61)
		}
		all := metricLinearTopK(trajs, q, t1, t2, len(trajs), MetricDTW, 0)
		k := 0
		for j, h := range all {
			if h.id == orig.ID {
				k = j + 1
			}
		}
		if k == len(all) || all[k].id != twin.ID || all[k].d != all[k-1].d {
			t.Fatalf("iter %d: twins %d and %d are not adjacent ties in the oracle ranking", i, orig.ID, twin.ID)
		}
		req := Request{
			Q: q, Interval: Interval{T1: t1, T2: t2}, K: k, Metric: MetricDTW,
			Options: Options{Parallelism: 1},
		}
		resp, err := db.Query(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		checkMetricOracle(t, "dtw-ties", i, resp.Results, all[:k])
		checkDTWFilterParity(t, db, req, resp.Results)
	}
}

// TestMetricDegradedBudgetParity pins the degradation contract on the
// metric engine: under a tight node budget the search must report
// Degraded, stay bit-identical between serial and parallel runs, every
// result it still marks Certified must hold its oracle rank, and CertFloor
// must not exceed the distance of any covering trajectory it left out.
// Disabling Heuristic 1 visits the same nodes, so it returns the same
// answers.
func TestMetricDegradedBudgetParity(t *testing.T) {
	// Enough objects to force a multi-level tree (a 4 KiB page holds ~63
	// metric leaf entries), so a tight budget actually runs out mid-walk.
	trajs := gstd.Generate(gstd.Config{NumObjects: 220, SamplesPerObject: 21, Seed: 6}).Trajs
	db, err := NewDB(NTree, trajs)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	degraded, filtered := 0, 0
	const iters = 40
	for i := 0; i < iters; i++ {
		q := oracleQuery(rng, 61)
		t1, t2 := oracleWindow(rng)
		k := 1 + rng.Intn(4)
		opts := Options{
			Parallelism:     1,
			MaxNodeAccesses: 1 + rng.Intn(3), // tight: most searches degrade
		}
		req := Request{
			Q: q, Interval: Interval{T1: t1, T2: t2}, K: k,
			Metric: MetricDTW, Options: opts,
		}
		resp, err := db.Query(context.Background(), req)
		if err != nil {
			t.Fatalf("iter %d serial: %v", i, err)
		}
		preq := req
		preq.Options.Parallelism = 4
		n := countFiltered(&preq.Options)
		presp, err := db.Query(context.Background(), preq)
		if err != nil {
			t.Fatalf("iter %d parallel: %v", i, err)
		}
		filtered += *n
		checkBitIdentical(t, "degraded", i, resp.Results, presp.Results)
		if resp.Stats.Degraded {
			degraded++
		}
		all := metricLinearTopK(trajs, q, t1, t2, len(trajs), MetricDTW, 0)
		want := all[:min(k, len(all))]
		for j, r := range resp.Results {
			if !r.Certified {
				continue
			}
			if j >= len(want) || want[j].id != r.TrajID ||
				math.Float64bits(want[j].d) != math.Float64bits(r.Dissim) {
				t.Fatalf("iter %d: certified rank %d (traj %d, %g) does not hold against the oracle",
					i, j, r.TrajID, r.Dissim)
			}
		}
		returned := map[ID]bool{}
		for _, r := range resp.Results {
			returned[r.TrajID] = true
		}
		for _, h := range all {
			if !returned[h.id] && resp.Stats.CertFloor > h.d {
				t.Fatalf("iter %d: CertFloor %v exceeds the distance %v of trajectory %d, which was not returned",
					i, resp.Stats.CertFloor, h.d, h.id)
			}
		}
		uresults := searchH1Off(t, db, req)
		if len(uresults) != len(resp.Results) {
			t.Fatalf("iter %d: %d results with Heuristic 1 off, %d with it on", i, len(uresults), len(resp.Results))
		}
		for j, r := range resp.Results {
			u := uresults[j]
			if u.TrajID != r.TrajID || math.Float64bits(u.Dissim) != math.Float64bits(r.Dissim) {
				t.Fatalf("iter %d rank %d: traj %d (%v) with Heuristic 1 off, %d (%v) with it on",
					i, j, u.TrajID, u.Dissim, r.TrajID, r.Dissim)
			}
		}
	}
	if degraded == 0 {
		t.Fatalf("no search degraded under 1-3 node budgets across %d iterations", iters)
	}
	if filtered == 0 {
		t.Fatalf("no admitted candidate was filtered or abandoned across %d iterations", iters)
	}
}

// TestMetricUnsupportedKind: the MBB kinds must reject non-DISSIM
// metrics with ErrBadQuery — their geometry cannot lower-bound DTW — and
// ParseMetric must reject unknown names with ErrUnknownMetric.
func TestMetricUnsupportedKind(t *testing.T) {
	trajs := gstd.Generate(gstd.Config{NumObjects: 8, SamplesPerObject: 21, Seed: 7}).Trajs
	q := trajs[0].Clone()
	q.ID = 0
	for _, kind := range IndexKinds() {
		if kind.Metric() {
			continue
		}
		db, err := NewDB(kind, trajs)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range []Metric{MetricDTW, MetricLCSS, MetricEDR} {
			_, err := db.Query(context.Background(), Request{
				Q: &q, Interval: Interval{T1: 0, T2: 1}, K: 1, Metric: m, MetricEps: 0.1,
			})
			if !errors.Is(err, ErrBadQuery) {
				t.Fatalf("%s: %s query returned %v, want ErrBadQuery", kind, m, err)
			}
			if _, err := db.Explain(context.Background(), Request{
				Q: &q, Interval: Interval{T1: 0, T2: 1}, K: 1, Metric: m, MetricEps: 0.1,
			}); !errors.Is(err, ErrBadQuery) {
				t.Fatalf("%s: %s explain returned %v, want ErrBadQuery", kind, m, err)
			}
		}
	}
	for _, name := range []string{"cosine", "frechet", "x"} {
		if _, err := ParseMetric(name); !errors.Is(err, ErrUnknownMetric) {
			t.Fatalf("ParseMetric(%q) = %v, want ErrUnknownMetric", name, err)
		}
	}
	for name, want := range map[string]Metric{
		"": MetricDISSIM, "dissim": MetricDISSIM, "dtw": MetricDTW,
		"lcss": MetricLCSS, "edr": MetricEDR, "DTW": MetricDTW,
	} {
		m, err := ParseMetric(name)
		if err != nil || m != want {
			t.Fatalf("ParseMetric(%q) = %v, %v, want %v", name, m, err, want)
		}
	}
}
