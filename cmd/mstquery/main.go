// Command mstquery runs ad-hoc k-Most-Similar-Trajectory queries against a
// CSV dataset ("id,x,y,t" rows, as written by gendata).
//
// The query trajectory comes either from a separate CSV file (-queryfile,
// first trajectory is used) or from the dataset itself (-queryid),
// optionally TD-TR-compressed (-p) to emulate a sketched query. The query
// period defaults to the query trajectory's lifespan.
//
// Example:
//
//	gendata -kind trucks -scale 0.2 -o trucks.csv
//	mstquery -data trucks.csv -queryid 7 -p 0.01 -k 5 -tree tb
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"mstsearch"
)

func main() {
	var (
		dataPath  = flag.String("data", "", "dataset CSV (required)")
		queryFile = flag.String("queryfile", "", "query trajectory CSV")
		queryID   = flag.Uint("queryid", 0, "use this dataset trajectory as the query")
		p         = flag.Float64("p", 0, "TD-TR compression ratio applied to the query (0 = none)")
		k         = flag.Int("k", 1, "number of results")
		tree      = flag.String("tree", "rtree", "index structure: rtree, tb, str, or ntree")
		metric    = flag.String("metric", "", "similarity metric: dissim (default), dtw, lcss, or edr (non-dissim needs -tree ntree)")
		eps       = flag.Float64("eps", 0, "match threshold for the lcss and edr metrics")
		from      = flag.Float64("from", 0, "query period start (default: query lifespan)")
		to        = flag.Float64("to", 0, "query period end")
		relaxed   = flag.Bool("relaxed", false, "time-relaxed search: best DISSIM over any time shift")
		explain   = flag.Bool("explain", false, "run the k-MST query with EXPLAIN: cost-model prediction vs. actual work")
		nn        = flag.String("nn", "", "point-NN query instead: \"x,y,t\"")
		rangeQ    = flag.String("range", "", "range query instead: \"minX,minY,maxX,maxY,t1,t2\"")
		topo      = flag.String("topology", "", "topological query instead: \"minX,minY,maxX,maxY,t1,t2\"")
	)
	flag.Parse()
	if *dataPath == "" {
		fmt.Fprintln(os.Stderr, "mstquery: -data is required")
		flag.Usage()
		os.Exit(2)
	}

	trajs := readCSV(*dataPath)
	kind, err := mstsearch.ParseIndexKind(*tree)
	fail(err)
	m, err := mstsearch.ParseMetric(*metric)
	fail(err)

	// The non-similarity query modes need no query trajectory.
	if *nn != "" || *rangeQ != "" || *topo != "" {
		db, err := mstsearch.NewDB(kind, trajs)
		fail(err)
		ctx := context.Background()
		switch {
		case *nn != "":
			v := parseFloats(*nn, 3)
			res, err := db.Nearest(ctx, v[0], v[1], v[2], *k)
			fail(err)
			fmt.Printf("%d nearest objects to (%g, %g) at t=%g:\n", *k, v[0], v[1], v[2])
			for i, r := range res {
				fmt.Printf("%2d. trajectory %-6d distance %.4f\n", i+1, r.TrajID, r.Dist)
			}
		case *rangeQ != "":
			v := parseFloats(*rangeQ, 6)
			hits, err := db.Range(ctx, mstsearch.Window{MinX: v[0], MinY: v[1], MaxX: v[2], MaxY: v[3]}, mstsearch.Interval{T1: v[4], T2: v[5]})
			fail(err)
			fmt.Printf("range query: %d segments\n", len(hits))
		default:
			v := parseFloats(*topo, 6)
			rels, err := db.Topology(ctx, mstsearch.Window{MinX: v[0], MinY: v[1], MaxX: v[2], MaxY: v[3]}, mstsearch.Interval{T1: v[4], T2: v[5]})
			fail(err)
			for _, r := range rels {
				fmt.Printf("trajectory %-6d %-8s inside for %.4f\n",
					r.TrajID, r.Relation, r.InsideDuration)
			}
		}
		return
	}

	var q mstsearch.Trajectory
	switch {
	case *queryFile != "":
		qs := readCSV(*queryFile)
		if len(qs) == 0 {
			fail(fmt.Errorf("query file %s holds no trajectory", *queryFile))
		}
		q = qs[0]
	case *queryID != 0:
		found := false
		for i := range trajs {
			if trajs[i].ID == mstsearch.ID(*queryID) {
				q = trajs[i].Clone()
				found = true
				break
			}
		}
		if !found {
			fail(fmt.Errorf("trajectory %d not in dataset", *queryID))
		}
	default:
		fail(fmt.Errorf("one of -queryfile or -queryid is required"))
	}
	if *p > 0 {
		orig := len(q.Samples)
		q = mstsearch.CompressTDTR(&q, *p)
		fmt.Printf("query compressed with TD-TR p=%.2f%%: %d -> %d samples\n",
			*p*100, orig, len(q.Samples))
	}
	q.ID = 0

	db, err := mstsearch.NewDB(kind, trajs)
	fail(err)
	fmt.Printf("indexed %d trajectories / %d segments in a %s (%.2f MB)\n",
		db.Len(), db.NumSegments(), kind, db.IndexSizeMB())

	if *relaxed {
		res, err := db.Relaxed(context.Background(), &q, *k)
		fail(err)
		fmt.Printf("time-relaxed k=%d MST: %d results\n", *k, len(res))
		for i, r := range res {
			fmt.Printf("%2d. trajectory %-6d DISSIM = %.6f at time offset %+.4f\n",
				i+1, r.TrajID, r.Dissim, r.Offset)
		}
		return
	}

	t1, t2 := *from, *to
	if t1 == 0 && t2 == 0 {
		t1, t2 = q.StartTime(), q.EndTime()
	}
	req := mstsearch.Request{
		Q:         &q,
		Interval:  mstsearch.Interval{T1: t1, T2: t2},
		K:         *k,
		Metric:    m,
		MetricEps: *eps,
	}
	if *explain {
		rep, err := db.Explain(context.Background(), req)
		fail(err)
		fmt.Print(rep)
		return
	}
	resp, err := db.Query(context.Background(), req)
	fail(err)
	res, stats := resp.Results, resp.Stats

	fmt.Printf("k=%d MST (%s) over [%g, %g]: %d results, pruning %.1f%%, %d/%d nodes, %d page reads\n",
		*k, m, t1, t2, len(res), stats.PruningPower*100,
		stats.NodesAccessed, stats.TotalNodes, stats.PageReads)
	for i, r := range res {
		fmt.Printf("%2d. trajectory %-6d %s = %.6f\n", i+1, r.TrajID, m, r.Dissim)
	}
}

func readCSV(path string) []mstsearch.Trajectory {
	f, err := os.Open(path)
	fail(err)
	defer f.Close()
	trajs, err := mstsearch.ReadTrajectoriesCSV(f)
	fail(err)
	return trajs
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "mstquery:", err)
		os.Exit(1)
	}
}

// parseFloats splits a comma-separated list into exactly n floats.
func parseFloats(s string, n int) []float64 {
	parts := strings.Split(s, ",")
	if len(parts) != n {
		fail(fmt.Errorf("expected %d comma-separated numbers, got %q", n, s))
	}
	out := make([]float64, n)
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			fail(fmt.Errorf("bad number %q: %v", p, err))
		}
		out[i] = v
	}
	return out
}
