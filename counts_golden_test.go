package mstsearch

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mstsearch/internal/gstd"
	"mstsearch/internal/index"
	"mstsearch/internal/mst"
)

// TestSearchCountsGolden is the search-work gate: for fixed-seed GSTD
// queries it records, per query, the answer and the work the search did —
// result IDs, the bits of every distance, nodes, leaves, enqueued,
// completed, rejected, exact evaluations, trapezoid evaluations, early
// termination and the bits of CertFloor. The legs are the three MBB kinds
// searched by raw mst.Search without the trajectory store (the paper's
// algorithm, as internal/experiments runs it) and through DB.Query, and
// the N-tree through DB.Query under DISSIM and DTW. Windows are 5 % with
// the query sliced from a stored trajectory, and 25 % with a foreign
// query; k is 1, 5 and 10. A last leg, prefixed "long", runs the 25 %
// foreign queries on a fleet of few long trajectories (40 × 1001 samples)
// over the three MBB kinds, where most leaves hold one trajectory's
// segments only. Everything runs on one goroutine, so a change
// that leaves pruning alone leaves testdata/counts.golden byte for byte
// unchanged, and one that moves it shows its exact delta in the diff.
//
// After an intentional change to what a search does, regenerate the file
// and commit it alongside the change:
//
//	UPDATE_COUNTS=1 go test -run TestSearchCountsGolden .
func TestSearchCountsGolden(t *testing.T) {
	stored := gstd.Generate(gstd.Config{NumObjects: 120, SamplesPerObject: 81, Seed: 31}).Trajs
	foreign := gstd.Generate(gstd.Config{NumObjects: 8, SamplesPerObject: 81, Seed: 32}).Trajs
	queries := countsQueries(t, 33, []countsShape{{"twin5", stored, 0.05}, {"foreign25", foreign, 0.25}})

	var b strings.Builder
	for _, kind := range IndexKinds() {
		countsKind(t, &b, "", kind, stored, queries)
	}
	long := gstd.Generate(gstd.Config{NumObjects: 40, SamplesPerObject: 1001, Seed: 34}).Trajs
	longForeign := gstd.Generate(gstd.Config{NumObjects: 8, SamplesPerObject: 1001, Seed: 35}).Trajs
	longQueries := countsQueries(t, 36, []countsShape{{"foreign25", longForeign, 0.25}})
	for _, kind := range []IndexKind{RTree3D, TBTree, STRTree} {
		countsKind(t, &b, "long ", kind, long, longQueries)
	}

	got := b.String()
	path := filepath.Join("testdata", "counts.golden")
	if os.Getenv("UPDATE_COUNTS") != "" {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run UPDATE_COUNTS=1 go test -run TestSearchCountsGolden .): %v", err)
	}
	if got != string(want) {
		t.Errorf("search counts drifted from %s.\n"+
			"If the change is intentional, regenerate with UPDATE_COUNTS=1 go test -run TestSearchCountsGolden .\n%s",
			path, surfaceDiff(string(want), got))
	}
}

// countsKind builds a DB of the kind over stored and appends its legs,
// each line prefixed with prefix: the raw paper search and DB.Query for an
// MBB kind, DB.Query under DISSIM and DTW for the metric kind.
func countsKind(t *testing.T, b *strings.Builder, prefix string, kind IndexKind, stored []Trajectory, queries []countsQuery) {
	t.Helper()
	db, err := NewDB(kind, stored)
	if err != nil {
		t.Fatalf("%s: %v", kind, err)
	}
	if kind.Metric() {
		for _, m := range []Metric{MetricDISSIM, MetricDTW} {
			countsLeg(t, b, fmt.Sprintf("%s%s DB.Query %s", prefix, kind, m), queries, func(q countsQuery, k int) countsLine {
				return countsViaQuery(t, db, q, k, m)
			})
		}
		return
	}
	tree, ok := db.view().(index.Tree)
	if !ok {
		t.Fatalf("%s: view is not an index.Tree", kind)
	}
	countsLeg(t, b, fmt.Sprintf("%s%s mst.Search", prefix, kind), queries, func(q countsQuery, k int) countsLine {
		opts := mst.Options{K: k, Vmax: db.vmax + q.q.MaxSpeed(), Refine: 1}
		res, st, err := mst.Search(tree, q.q, q.t1, q.t2, opts)
		if err != nil {
			t.Fatalf("%s raw search: %v", kind, err)
		}
		l := countsLine{
			nodes: st.NodesAccessed, leaves: st.LeavesAccessed, enqueued: st.Enqueued,
			completed: st.Completed, rejected: st.Rejected, exact: st.ExactRefined,
			trapezoids: st.TrapezoidEvals, early: st.TerminatedEarly, floor: st.CertFloor,
		}
		for _, r := range res {
			l.ids = append(l.ids, r.TrajID)
			l.dists = append(l.dists, r.Dissim)
		}
		return l
	})
	countsLeg(t, b, fmt.Sprintf("%s%s DB.Query", prefix, kind), queries, func(q countsQuery, k int) countsLine {
		return countsViaQuery(t, db, q, k, MetricDISSIM)
	})
}

// countsQuery is one query of the golden workload.
type countsQuery struct {
	name   string
	q      *Trajectory
	t1, t2 float64
}

// countsShape is one kind of query window: its name, the fleet the query
// is sliced from, and the window's share of the time axis.
type countsShape struct {
	name  string
	fleet []Trajectory
	width float64
}

// countsQueries draws four queries of each shape from seed: a window of
// the shape's width sliced from a random trajectory of its fleet. A window
// sliced from the stored fleet keeps its twin in the index; one sliced
// from a foreign fleet has none.
func countsQueries(t *testing.T, seed int64, shapes []countsShape) []countsQuery {
	rng := rand.New(rand.NewSource(seed))
	var out []countsQuery
	for _, shape := range shapes {
		for i := 0; i < 4; i++ {
			src := &shape.fleet[rng.Intn(len(shape.fleet))]
			t1 := src.StartTime() + rng.Float64()*(src.EndTime()-src.StartTime()-shape.width)
			t2 := t1 + shape.width
			sl, ok := src.Slice(t1, t2)
			if !ok {
				t.Fatalf("%s query %d: window [%g, %g] outside trajectory %d", shape.name, i, t1, t2, src.ID)
			}
			q := sl.Clone()
			q.ID = 0
			out = append(out, countsQuery{name: fmt.Sprintf("%s#%d", shape.name, i), q: &q, t1: t1, t2: t2})
		}
	}
	return out
}

// countsLine is what one query records.
type countsLine struct {
	ids                                                 []ID
	dists                                               []float64
	nodes, leaves, enqueued, completed, rejected, exact int
	trapezoids                                          int
	early                                               bool
	floor                                               float64
}

// countsLeg runs every query of the workload at k = 1, 5 and 10 and
// appends one line per run.
func countsLeg(t *testing.T, b *strings.Builder, leg string, queries []countsQuery, run func(countsQuery, int) countsLine) {
	t.Helper()
	for _, q := range queries {
		for _, k := range []int{1, 5, 10} {
			l := run(q, k)
			bits := make([]string, len(l.dists))
			for i, d := range l.dists {
				bits[i] = fmt.Sprintf("%016x", math.Float64bits(d))
			}
			fmt.Fprintf(b, "%s %s k=%d: ids=%v d=[%s] nodes=%d leaves=%d enq=%d completed=%d rejected=%d exact=%d trap=%d early=%t floor=%016x\n",
				leg, q.name, k, l.ids, strings.Join(bits, " "), l.nodes, l.leaves, l.enqueued,
				l.completed, l.rejected, l.exact, l.trapezoids, l.early, math.Float64bits(l.floor))
		}
	}
}

// countsViaQuery runs one query through DB.Query with the default options.
// SearchStats carries no completed or rejected count, so those come from
// the trace, which reconciles with the search's own statistics. DB.Query
// evaluates no trapezoid, so the trapezoid count stays 0.
func countsViaQuery(t *testing.T, db *DB, q countsQuery, k int, m Metric) countsLine {
	t.Helper()
	var l countsLine
	var o Options
	o.Trace = func(ev TraceEvent) {
		switch {
		case ev.Kind == EventCandidateComplete:
			l.completed++
		case ev.Kind == EventCandidatePrune && ev.Heuristic == 1:
			l.rejected++
		}
	}
	resp, err := db.Query(context.Background(), Request{
		Q: q.q, Interval: Interval{T1: q.t1, T2: q.t2}, K: k, Metric: m, Options: o,
	})
	if err != nil {
		t.Fatalf("%s %s k=%d: %v", m, q.name, k, err)
	}
	for _, r := range resp.Results {
		l.ids = append(l.ids, r.TrajID)
		l.dists = append(l.dists, r.Dissim)
	}
	st := resp.Stats
	l.nodes, l.leaves, l.enqueued = st.NodesAccessed, st.LeavesAccessed, st.Enqueued
	l.exact, l.early, l.floor = st.ExactRefined, st.TerminatedEarly, st.CertFloor
	return l
}
