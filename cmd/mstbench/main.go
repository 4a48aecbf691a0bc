// Command mstbench regenerates the tables and figures of the paper's
// experimental study (§5). Each experiment prints an aligned text table
// whose rows correspond to the published plot/table.
//
// Usage:
//
//	mstbench -exp table2|fig8|fig9|q1|q2|q3|ablation|explain|all [flags]
//
// The default flags run a scaled-down study that finishes in minutes;
// -paper switches to the published scale (273 trucks / 112K segments for
// the quality study; S0100…S1000 with ~2000 samples per object and 500
// queries per setting for the performance study).
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"time"

	"mstsearch"
	"mstsearch/internal/experiments"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment: table2, fig8, fig9, q1, q2, q3, ablation, explain or all")
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
	if run("explain") {
		any = true
		card := 50
		if *paper {
			card = 500
		}
		runExplainExperiment(card, *samples, *queries, *seed)
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

// runExplainExperiment validates the selectivity cost model against the
// observability layer on a GSTD fleet: each query runs under DB.Explain
// and the table compares the model's predicted leaf I/O with the leaf
// pages the traced search actually touched. The last query's full EXPLAIN
// transcript follows the table. It drives the public facade, so it lives
// here rather than in internal/experiments.
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

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "mstbench:", err)
		os.Exit(1)
	}
}
