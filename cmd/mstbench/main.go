// Command mstbench regenerates the tables and figures of the paper's
// experimental study (§5). Each experiment prints an aligned text table
// whose rows correspond to the published plot/table.
//
// Usage:
//
//	mstbench -exp table2|fig8|fig9|q1|q2|q3|ablation|batch|shard|explain|index-compare|all [flags]
//
// The default flags run a scaled-down study that finishes in minutes;
// -paper switches to the published scale (273 trucks / 112K segments for
// the quality study; S0100…S1000 with ~2000 samples per object and 500
// queries per setting for the performance study).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"mstsearch"
	"mstsearch/internal/experiments"
	"mstsearch/internal/shard"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment: table2, fig8, fig9, q1, q2, q3, ablation, batch, shard, explain, index-compare or all")
		jsonOut = flag.String("json", "", "write the index-compare report as benchjson-shaped JSON to this path")
		paper   = flag.Bool("paper", false, "run at the paper's full scale (slow)")
		scale   = flag.Float64("scale", 0.25, "Trucks dataset scale in (0,1] for fig8/fig9/table2")
		samples = flag.Int("samples", 501, "samples per synthetic object (paper: 2001)")
		queries = flag.Int("queries", 50, "queries per performance setting (paper: 500)")
		qf      = flag.Int("qualityqueries", 40, "queries per fig9 p-value (0 = all trajectories)")
		seed    = flag.Int64("seed", 2007, "generator seed")
		verbose = flag.Bool("v", false, "print progress")
		withSTR = flag.Bool("str", false, "add the STR-tree as a third series in Q1-Q3")
	)
	flag.Parse()

	if *paper {
		*scale = 1
		*samples = 2001
		*queries = 500
		*qf = 0
	}

	run := func(name string) bool { return *exp == "all" || strings.EqualFold(*exp, name) }
	progress := func(string) {}
	if *verbose {
		progress = func(s string) { fmt.Fprintln(os.Stderr, "# "+s) }
	}

	any := false
	if run("table2") {
		any = true
		cards := []int{100, 250, 500, 1000}
		if !*paper {
			cards = []int{25, 50, 100, 200}
			fmt.Printf("(scaled: cardinalities %v, %d samples/object — use -paper for S0100..S1000)\n", cards, *samples)
		}
		rows, err := experiments.RunTable2(cards, *samples, *scale, *seed)
		fail(err)
		experiments.PrintTable2(os.Stdout, rows)
		fmt.Println()
	}
	if run("fig8") {
		any = true
		rows := experiments.RunCompression(experiments.QualityConfig{Scale: *scale, Seed: *seed})
		experiments.PrintCompression(os.Stdout, rows)
		fmt.Println()
	}
	if run("fig9") {
		any = true
		rows := experiments.RunQuality(experiments.QualityConfig{
			Scale:      *scale,
			NumQueries: *qf,
			Seed:       *seed,
		})
		experiments.PrintQuality(os.Stdout, rows)
		fmt.Println()
	}
	if run("batch") {
		any = true
		card, nq := 50, *queries
		if *paper {
			card = 500
		}
		runBatchExperiment(card, *samples, nq, *seed)
		fmt.Println()
	}
	if run("shard") {
		any = true
		card, nq := 50, *queries
		if *paper {
			card = 500
		}
		runShardExperiment(card, *samples, nq, *seed)
		fmt.Println()
	}
	if run("explain") {
		any = true
		card := 50
		if *paper {
			card = 500
		}
		runExplainExperiment(card, *samples, *queries, *seed)
		fmt.Println()
	}
	if run("index-compare") {
		any = true
		card, nq := 50, *queries
		if *paper {
			card = 500
		}
		runIndexCompareExperiment(card, *samples, nq, *seed, *jsonOut)
		fmt.Println()
	}
	if run("ablation") {
		any = true
		card := 100
		if *paper {
			card = 500
		}
		rows, err := experiments.RunAblation(experiments.PerfConfig{
			SamplesPerObject: *samples,
			Seed:             *seed,
		}, card, *queries, 0.05)
		fail(err)
		experiments.PrintAblation(os.Stdout, rows)
		fmt.Println()
	}
	perf := experiments.NewRunner(experiments.PerfConfig{
		SamplesPerObject: *samples,
		NumQueries:       *queries,
		Seed:             *seed,
		IncludeSTRTree:   *withSTR,
	})
	perf.Progress = progress
	for _, qs := range experiments.PaperQuerySettings() {
		if !run(qs.Name) {
			continue
		}
		any = true
		if !*paper && qs.Name == "Q1" {
			qs.Cardinalities = []int{25, 50, 100, 200}
			fmt.Printf("(scaled: cardinalities %v — use -paper for S0100..S1000)\n", qs.Cardinalities)
		}
		if !*paper && (qs.Name == "Q2" || qs.Name == "Q3") {
			qs.Cardinalities = []int{100}
		}
		rows, err := perf.Run(qs)
		fail(err)
		experiments.PrintPerf(os.Stdout, qs.Name, rows)
		fmt.Println()
	}
	if !any {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		flag.Usage()
		os.Exit(2)
	}
}

// runBatchExperiment measures KMostSimilarBatch throughput across worker
// counts on a Fig. 10 Q1-shaped workload (5% windows, k = 1) through the
// DB's shared buffer pool. It lives here rather than internal/experiments
// because it drives the public facade (the experiments package sits below
// it in the import graph). Speedup is relative to the one-worker leg; on a
// single-CPU machine expect ~1.0× across the board.
func runBatchExperiment(card, samples, nq int, seed int64) {
	data := experiments.SyntheticDataset(card, samples, seed)
	db, err := mstsearch.NewDB(mstsearch.RTree3D, data.Trajs)
	fail(err)

	rng := rand.New(rand.NewSource(seed))
	queries := make([]mstsearch.BatchQuery, nq)
	held := make([]mstsearch.Trajectory, nq)
	for i := range queries {
		src := &data.Trajs[rng.Intn(len(data.Trajs))]
		t1 := rng.Float64() * 0.9
		t2 := t1 + 0.05
		sl, ok := src.Slice(t1, t2)
		if !ok {
			fail(fmt.Errorf("batch: query window [%g, %g] outside dataset span", t1, t2))
		}
		held[i] = sl.Clone()
		held[i].ID = 0
		queries[i] = mstsearch.BatchQuery{Q: &held[i], T1: t1, T2: t2, K: 1}
	}

	var opts mstsearch.Options
	// Untimed warmup so every leg sees the same buffer state.
	for _, br := range db.KMostSimilarBatch(context.Background(), queries, opts) {
		fail(br.Err)
	}

	fmt.Printf("Batch k-MST executor: S%04d, %d samples/object, %d queries (5%% windows, k=1), GOMAXPROCS=%d\n",
		card, samples, nq, runtime.GOMAXPROCS(0))
	fmt.Println("workers   total(ms)   queries/s   speedup")
	var base float64
	for _, par := range []int{1, 2, 4, 8} {
		o := opts
		o.Parallelism = par
		start := time.Now()
		for _, br := range db.KMostSimilarBatch(context.Background(), queries, o) {
			fail(br.Err)
		}
		elapsed := time.Since(start)
		qps := float64(nq) / elapsed.Seconds()
		if par == 1 {
			base = qps
		}
		fmt.Printf("%7d %11.2f %11.0f %8.2fx\n", par, float64(elapsed.Microseconds())/1000, qps, qps/base)
	}
}

// runShardExperiment measures scatter-gather k-MST across shard counts
// and placement policies on the Fig. 10 Q1-shaped workload (5% windows,
// k = 1): per-setting throughput plus the coordinator's gather profile —
// how many shards each query actually searched and how many were pruned
// on their root lower bound without being touched. Spatial placement
// co-locates nearby trajectories, so localized queries prune most of the
// cluster; hash placement spreads them, so the fanout stays wide. Like
// the batch experiment it drives the public facade and lives here rather
// than in internal/experiments.
func runShardExperiment(card, samples, nq int, seed int64) {
	data := experiments.SyntheticDataset(card, samples, seed)
	rng := rand.New(rand.NewSource(seed))
	type workItem struct {
		q      mstsearch.Trajectory
		t1, t2 float64
	}
	work := make([]workItem, nq)
	for i := range work {
		src := &data.Trajs[rng.Intn(len(data.Trajs))]
		t1 := rng.Float64() * 0.9
		t2 := t1 + 0.05
		sl, ok := src.Slice(t1, t2)
		if !ok {
			fail(fmt.Errorf("shard: query window [%g, %g] outside dataset span", t1, t2))
		}
		work[i].q = sl.Clone()
		work[i].q.ID = 0
		work[i].t1, work[i].t2 = t1, t2
	}

	fmt.Printf("Sharded k-MST scatter-gather: S%04d, %d samples/object, %d queries (5%% windows, k=1), GOMAXPROCS=%d\n",
		card, samples, nq, runtime.GOMAXPROCS(0))
	fmt.Println("shards   placement   total(ms)   queries/s   avg fanout   avg pruned")
	for _, n := range []int{1, 2, 4, 8} {
		for _, placeName := range []string{"hash", "spatial"} {
			place, err := shard.PlacementByName(placeName)
			fail(err)
			c, err := shard.New(mstsearch.RTree3D, n, place, shard.Options{})
			fail(err)
			for i := range data.Trajs {
				fail(c.Add(data.Trajs[i]))
			}
			var opts mstsearch.Options
			// Untimed warmup so every leg measures the same buffer state.
			for _, w := range work {
				if _, err := c.Query(context.Background(), mstsearch.Request{
					Q: &w.q, Interval: mstsearch.Interval{T1: w.t1, T2: w.t2}, K: 1, Options: opts,
				}); err != nil {
					fail(err)
				}
			}
			var fanout, pruned int
			start := time.Now()
			for _, w := range work {
				_, qs, err := c.QueryShards(context.Background(), mstsearch.Request{
					Q: &w.q, Interval: mstsearch.Interval{T1: w.t1, T2: w.t2}, K: 1, Options: opts,
				})
				fail(err)
				fanout += qs.Fanout
				pruned += qs.Pruned
			}
			elapsed := time.Since(start)
			fmt.Printf("%6d %11s %11.2f %11.0f %12.2f %12.2f\n",
				n, placeName, float64(elapsed.Microseconds())/1000,
				float64(nq)/elapsed.Seconds(),
				float64(fanout)/float64(nq), float64(pruned)/float64(nq))
		}
	}
}

// runExplainExperiment validates the selectivity cost model against the
// observability layer on a GSTD fleet: each query runs under DB.Explain
// and the table compares the model's predicted leaf I/O with the leaf
// pages the traced search actually touched. The last query's full EXPLAIN
// transcript follows the table. Like the batch experiment it drives the
// public facade, so it lives here rather than in internal/experiments.
func runExplainExperiment(card, samples, nq int, seed int64) {
	data := experiments.SyntheticDataset(card, samples, seed)
	db, err := mstsearch.NewDB(mstsearch.RTree3D, data.Trajs)
	fail(err)

	fmt.Printf("EXPLAIN vs. cost model: GSTD S%04d, %d samples/object, %d queries (5%% windows, k=5)\n",
		card, samples, nq)
	fmt.Println("query   predLeaf   actLeaf   nodes   pruned%   events   latency")
	rng := rand.New(rand.NewSource(seed))
	var last *mstsearch.ExplainReport
	for i := 0; i < nq; i++ {
		src := &data.Trajs[rng.Intn(len(data.Trajs))]
		t1 := rng.Float64() * 0.9
		t2 := t1 + 0.05
		sl, ok := src.Slice(t1, t2)
		if !ok {
			fail(fmt.Errorf("explain: query window [%g, %g] outside dataset span", t1, t2))
		}
		q := sl.Clone()
		q.ID = 0
		rep, err := db.Explain(context.Background(), mstsearch.Request{
			Q:        &q,
			Interval: mstsearch.Interval{T1: t1, T2: t2},
			K:        5,
		})
		fail(err)
		fmt.Printf("%5d %10.1f %9d %7d %8.1f %8d %9s\n",
			i+1, rep.Estimate.ExpectedLeafPages, rep.Stats.LeavesAccessed,
			rep.Stats.NodesAccessed, rep.Stats.PruningPower*100,
			rep.Trace.Events, rep.Duration.Round(time.Microsecond))
		last = rep
	}
	fmt.Println("\nlast query's transcript:")
	fmt.Print(last)
}

// benchResult and benchReport mirror cmd/benchjson's document shape so
// the index-compare report diffs cleanly against `go test -bench` runs
// converted by that tool.
type benchResult struct {
	Name       string             `json:"name"`
	Package    string             `json:"package,omitempty"`
	Iterations int64              `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op,omitempty"`
	Extra      map[string]float64 `json:"extra,omitempty"`
}

type benchReport struct {
	GOOS    string        `json:"goos,omitempty"`
	GOARCH  string        `json:"goarch,omitempty"`
	Results []benchResult `json:"results"`
}

// runIndexCompareExperiment races every registered index kind on the same
// workload: a k-MST (DISSIM) leg all four kinds serve, then an exact DTW
// kNN leg only the metric kind can answer (MBB geometry cannot lower-bound
// DTW, so the R-tree family rejects it as a bad query) — that leg is
// priced against a brute-force linear scan and the answers are checked
// against it. Per-kind node accesses, pruning power, and page I/O come
// from the engine's own SearchStats. With jsonPath set, the table is also
// written as a benchjson-shaped document (results/BENCH_PR9.json in CI).
func runIndexCompareExperiment(card, samples, nq int, seed int64, jsonPath string) {
	data := experiments.SyntheticDataset(card, samples, seed)
	rng := rand.New(rand.NewSource(seed))
	type workItem struct {
		q      mstsearch.Trajectory
		t1, t2 float64
	}
	work := make([]workItem, nq)
	for i := range work {
		src := &data.Trajs[rng.Intn(len(data.Trajs))]
		t1 := rng.Float64() * 0.9
		t2 := t1 + 0.05
		sl, ok := src.Slice(t1, t2)
		if !ok {
			fail(fmt.Errorf("index-compare: query window [%g, %g] outside dataset span", t1, t2))
		}
		work[i].q = sl.Clone()
		work[i].q.ID = 0
		work[i].t1, work[i].t2 = t1, t2
	}
	rep := &benchReport{GOOS: runtime.GOOS, GOARCH: runtime.GOARCH}
	slug := func(kind mstsearch.IndexKind) string {
		return strings.ReplaceAll(kind.String(), " ", "_")
	}

	fmt.Printf("Index head-to-head: S%04d, %d samples/object, %d queries (5%% windows, k=5)\n", card, samples, nq)
	fmt.Println("k-MST (DISSIM) leg:")
	fmt.Println("kind          total(ms)   queries/s    nodes/q   pruned%    leaf/q   reads/q")
	var opts mstsearch.Options
	dbs := make(map[mstsearch.IndexKind]*mstsearch.DB)
	for _, kind := range mstsearch.IndexKinds() {
		db, err := mstsearch.NewDB(kind, data.Trajs)
		fail(err)
		dbs[kind] = db
		// Untimed warmup so every kind measures the same buffer state.
		for _, w := range work {
			_, err := db.Query(context.Background(), mstsearch.Request{
				Q: &w.q, Interval: mstsearch.Interval{T1: w.t1, T2: w.t2}, K: 5, Options: opts,
			})
			fail(err)
		}
		var nodes, leaves int
		var reads uint64
		var pruned float64
		start := time.Now()
		for _, w := range work {
			resp, err := db.Query(context.Background(), mstsearch.Request{
				Q: &w.q, Interval: mstsearch.Interval{T1: w.t1, T2: w.t2}, K: 5, Options: opts,
			})
			fail(err)
			nodes += resp.Stats.NodesAccessed
			leaves += resp.Stats.LeavesAccessed
			reads += resp.Stats.PageReads
			pruned += resp.Stats.PruningPower
		}
		elapsed := time.Since(start)
		fq := float64(nq)
		fmt.Printf("%-12s %10.2f %11.0f %10.1f %9.1f %9.1f %9.1f\n",
			kind, float64(elapsed.Microseconds())/1000, fq/elapsed.Seconds(),
			float64(nodes)/fq, pruned/fq*100, float64(leaves)/fq, float64(reads)/fq)
		rep.Results = append(rep.Results, benchResult{
			Name: "IndexCompare/kMST/kind=" + slug(kind), Package: "mstsearch",
			Iterations: int64(nq), NsPerOp: float64(elapsed.Nanoseconds()) / fq,
			Extra: map[string]float64{
				"nodes/q": float64(nodes) / fq, "pruned%": pruned / fq * 100,
				"leaf/q": float64(leaves) / fq, "reads/q": float64(reads) / fq,
				"queries/s": fq / elapsed.Seconds(),
			},
		})
	}

	fmt.Println("\nexact DTW kNN leg (k=5, same windows):")
	fmt.Println("kind          total(ms)   queries/s    nodes/q   evals/q   matches-linear")
	// Brute-force baseline: every query evaluates DTW against every stored
	// trajectory. Its answers are the ground truth the index leg must hit.
	type ranked struct {
		id mstsearch.ID
		d  float64
	}
	truth := make([][]ranked, nq)
	linStart := time.Now()
	for i, w := range work {
		var all []ranked
		for j := range data.Trajs {
			d, ok := mstsearch.MetricDistance(mstsearch.MetricDTW, 0, &w.q, &data.Trajs[j], w.t1, w.t2)
			if !ok {
				continue
			}
			all = append(all, ranked{data.Trajs[j].ID, d})
		}
		sort.Slice(all, func(a, b int) bool {
			if all[a].d != all[b].d {
				return all[a].d < all[b].d
			}
			return all[a].id < all[b].id
		})
		if len(all) > 5 {
			all = all[:5]
		}
		truth[i] = all
	}
	linElapsed := time.Since(linStart)
	fmt.Printf("%-12s %10.2f %11.0f %10s %9.1f %16s\n",
		"linear scan", float64(linElapsed.Microseconds())/1000,
		float64(nq)/linElapsed.Seconds(), "-", float64(card), "(baseline)")
	rep.Results = append(rep.Results, benchResult{
		Name: "IndexCompare/exactDTW/kind=linear_scan", Package: "mstsearch",
		Iterations: int64(nq), NsPerOp: float64(linElapsed.Nanoseconds()) / float64(nq),
		Extra: map[string]float64{"evals/q": float64(card), "queries/s": float64(nq) / linElapsed.Seconds()},
	})
	for _, kind := range mstsearch.IndexKinds() {
		db := dbs[kind]
		if !kind.Metric() {
			_, err := db.Query(context.Background(), mstsearch.Request{
				Q: &work[0].q, Interval: mstsearch.Interval{T1: work[0].t1, T2: work[0].t2},
				K: 5, Metric: mstsearch.MetricDTW, Options: opts,
			})
			if err == nil {
				fail(fmt.Errorf("index-compare: %s accepted a DTW query; expected rejection", kind))
			}
			fmt.Printf("%-12s %10s %11s %10s %9s   unsupported (MBB cannot bound DTW)\n", kind, "-", "-", "-", "-")
			continue
		}
		var nodes, evals, mismatches int
		start := time.Now()
		for i, w := range work {
			resp, err := db.Query(context.Background(), mstsearch.Request{
				Q: &w.q, Interval: mstsearch.Interval{T1: w.t1, T2: w.t2},
				K: 5, Metric: mstsearch.MetricDTW, Options: opts,
			})
			fail(err)
			nodes += resp.Stats.NodesAccessed
			evals += resp.Stats.ExactRefined
			if len(resp.Results) != len(truth[i]) {
				mismatches++
				continue
			}
			for j, r := range resp.Results {
				if r.TrajID != truth[i][j].id || r.Dissim != truth[i][j].d {
					mismatches++
					break
				}
			}
		}
		elapsed := time.Since(start)
		fq := float64(nq)
		match := "yes"
		if mismatches > 0 {
			match = fmt.Sprintf("NO (%d/%d)", mismatches, nq)
		}
		fmt.Printf("%-12s %10.2f %11.0f %10.1f %9.1f %16s\n",
			kind, float64(elapsed.Microseconds())/1000, fq/elapsed.Seconds(),
			float64(nodes)/fq, float64(evals)/fq, match)
		rep.Results = append(rep.Results, benchResult{
			Name: "IndexCompare/exactDTW/kind=" + slug(kind), Package: "mstsearch",
			Iterations: int64(nq), NsPerOp: float64(elapsed.Nanoseconds()) / fq,
			Extra: map[string]float64{
				"nodes/q": float64(nodes) / fq, "evals/q": float64(evals) / fq,
				"queries/s": fq / elapsed.Seconds(), "mismatches": float64(mismatches),
			},
		})
		if mismatches > 0 {
			fail(fmt.Errorf("index-compare: %s exact DTW kNN diverged from the linear scan on %d/%d queries", kind, mismatches, nq))
		}
	}

	if jsonPath != "" {
		buf, err := json.MarshalIndent(rep, "", "  ")
		fail(err)
		fail(os.WriteFile(jsonPath, append(buf, '\n'), 0o644))
		fmt.Printf("\nwrote %s (%d results)\n", jsonPath, len(rep.Results))
	}
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "mstbench:", err)
		os.Exit(1)
	}
}
