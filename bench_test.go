// Benchmarks regenerating the paper's tables and figures, one testing.B
// target per artifact (see DESIGN.md §2 for the experiment index). They
// run scaled-down workloads with the published shape; `mstbench -paper`
// runs the full-scale versions.
package mstsearch

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"mstsearch/internal/experiments"
	"mstsearch/internal/index"
	"mstsearch/internal/mst"
	"mstsearch/internal/rtree"
	"mstsearch/internal/storage"
)

// benchSamples keeps per-object sampling small enough for -bench runs
// while preserving the workload shape (the paper uses 2001).
const benchSamples = 301

// BenchmarkTable2IndexBuild regenerates Table 2's build step: indexing one
// synthetic dataset into each structure and reporting the index size.
func BenchmarkTable2IndexBuild(b *testing.B) {
	for _, kind := range experiments.TreeKinds {
		b.Run(kind.String(), func(b *testing.B) {
			data := experiments.SyntheticDataset(50, benchSamples, 1)
			b.ResetTimer()
			var mb float64
			for i := 0; i < b.N; i++ {
				built, err := experiments.BuildIndex(kind, data)
				if err != nil {
					b.Fatal(err)
				}
				mb = built.SizeMB()
			}
			b.ReportMetric(mb, "MB")
			b.ReportMetric(float64(data.NumSegments())/1000, "kEntries")
		})
	}
}

// BenchmarkFig8Compression regenerates Fig. 8: TD-TR compression of the
// fleet's busiest trajectory across the p sweep.
func BenchmarkFig8Compression(b *testing.B) {
	cfg := experiments.QualityConfig{Scale: 0.2, Seed: 1}
	b.ResetTimer()
	var rows []experiments.CompressionRow
	for i := 0; i < b.N; i++ {
		rows = experiments.RunCompression(cfg)
	}
	b.StopTimer()
	if len(rows) > 0 {
		b.ReportMetric(float64(rows[0].Vertices), "vertices_p0")
		b.ReportMetric(float64(rows[len(rows)-1].Vertices), "vertices_pMax")
	}
}

// BenchmarkFig9Quality regenerates one p-column of Fig. 9 (the quality
// comparison DISSIM vs LCSS/LCSS-I/EDR/EDR-I) on a scaled fleet.
func BenchmarkFig9Quality(b *testing.B) {
	cfg := experiments.QualityConfig{
		Scale:      0.08,
		NumQueries: 6,
		PValues:    []float64{0.01},
		Seed:       1,
	}
	b.ResetTimer()
	var rows []experiments.QualityRow
	for i := 0; i < b.N; i++ {
		rows = experiments.RunQuality(cfg)
	}
	b.StopTimer()
	if len(rows) > 0 {
		b.ReportMetric(rows[0].FalsePercent["DISSIM"], "falsePct_DISSIM")
		b.ReportMetric(rows[0].FalsePercent["EDR"], "falsePct_EDR")
	}
}

// runPerfBench executes one Fig. 10 x-position for both trees as
// sub-benchmarks.
func runPerfBench(b *testing.B, name string, card int, qlen float64, k int) {
	b.Helper()
	r := experiments.NewRunner(experiments.PerfConfig{
		SamplesPerObject: benchSamples,
		NumQueries:       10,
		Seed:             1,
	})
	qs := experiments.QuerySettings{
		Name:          name,
		Cardinalities: []int{card},
		QueryLengths:  []float64{qlen},
		Ks:            []int{k},
	}
	// Build outside the timed region.
	rows, err := r.Run(qs)
	if err != nil {
		b.Fatal(err)
	}
	for _, kind := range experiments.TreeKinds {
		b.Run(fmt.Sprintf("%s/objs=%d/len=%.0f%%/k=%d", kind, card, qlen*100, k), func(b *testing.B) {
			var last experiments.PerfRow
			for i := 0; i < b.N; i++ {
				got, err := r.Run(qs)
				if err != nil {
					b.Fatal(err)
				}
				for _, row := range got {
					if row.Tree == kind {
						last = row
					}
				}
			}
			b.ReportMetric(last.AvgTimeMS, "msPerQuery")
			b.ReportMetric(last.PruningPower*100, "pruning%")
		})
	}
	_ = rows
}

// BenchmarkFig10Q1 regenerates Fig. 10 Q1 (scaling with cardinality).
func BenchmarkFig10Q1(b *testing.B) {
	for _, card := range []int{25, 50, 100} {
		runPerfBench(b, "Q1", card, 0.05, 1)
	}
}

// BenchmarkFig10Q2 regenerates Fig. 10 Q2 (scaling with query length).
func BenchmarkFig10Q2(b *testing.B) {
	for _, qlen := range []float64{0.01, 0.25, 1.0} {
		runPerfBench(b, "Q2", 50, qlen, 1)
	}
}

// BenchmarkFig10Q3 regenerates Fig. 10 Q3 (scaling with k).
func BenchmarkFig10Q3(b *testing.B) {
	for _, k := range []int{1, 5, 10} {
		runPerfBench(b, "Q3", 50, 0.05, k)
	}
}

// benchDB builds a facade DB reused by the ablation benches.
func benchDB(b *testing.B, kind IndexKind) (*DB, Trajectory) {
	b.Helper()
	data := experiments.SyntheticDataset(50, benchSamples, 1)
	db, err := NewDB(kind, data.Trajs)
	if err != nil {
		b.Fatal(err)
	}
	src := db.Get(1)
	q, _ := src.Slice(0.4, 0.6)
	qq := q.Clone()
	qq.ID = 0
	return db, qq
}

// BenchmarkAblationHeuristics quantifies what each pruning heuristic buys
// (DESIGN.md §4.2): the same query with heuristics individually disabled,
// on the paper's search through internal/mst, without the trajectory
// store, which leaves Heuristic 1 no partial candidates to reject.
func BenchmarkAblationHeuristics(b *testing.B) {
	db, q := benchDB(b, RTree3D)
	req := Request{Q: &q, Interval: Interval{T1: q.StartTime(), T2: q.EndTime()}, K: 1}
	cases := []struct {
		name string
		opt  mst.Options
	}{
		{"full", mst.Options{}},
		{"noH1", mst.Options{DisableHeuristic1: true}},
		{"noH2", mst.Options{DisableHeuristic2: true}},
		{"noH1H2", mst.Options{DisableHeuristic1: true, DisableHeuristic2: true}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			var nodes int
			for i := 0; i < b.N; i++ {
				_, st := searchMST(b, db, req, c.opt)
				nodes = st.NodesAccessed
			}
			b.ReportMetric(float64(nodes), "nodesAccessed")
		})
	}
}

// BenchmarkAblationRefine measures the trapezoid refinement knob
// (DESIGN.md §4.1) on the paper's search through internal/mst: Lemma 1 as
// published (refine=1) vs subdivided intervals. The search runs without
// the trajectory store, because with it no trapezoid is evaluated.
func BenchmarkAblationRefine(b *testing.B) {
	db, q := benchDB(b, RTree3D)
	req := Request{Q: &q, Interval: Interval{T1: q.StartTime(), T2: q.EndTime()}, K: 1}
	for _, refine := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("refine=%d", refine), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				searchMST(b, db, req, mst.Options{Refine: refine})
			}
		})
	}
}

// BenchmarkAblationSpeedMetrics compares speed-dependent pruning
// (OPTDISSIM/PESDISSIM with Vmax) against the speed-independent
// MINDISSIMINC-only configuration (DESIGN.md §4.3), on the raw search API.
func BenchmarkAblationSpeedMetrics(b *testing.B) {
	data := experiments.SyntheticDataset(50, benchSamples, 1)
	built, err := experiments.BuildIndex(experiments.RTree3D, data)
	if err != nil {
		b.Fatal(err)
	}
	tree, _ := built.View()
	src := &data.Trajs[0]
	q, _ := src.Slice(0.4, 0.6)
	qq := q.Clone()
	qq.ID = 0
	vmax := data.MaxSpeed() + qq.MaxSpeed()
	for _, c := range []struct {
		name string
		vmax float64
	}{{"speedDependent", vmax}, {"speedIndependent", 0}} {
		b.Run(c.name, func(b *testing.B) {
			var nodes int
			for i := 0; i < b.N; i++ {
				_, st, err := mst.Search(tree, &qq, qq.StartTime(), qq.EndTime(),
					mst.Options{K: 1, Vmax: c.vmax})
				if err != nil {
					b.Fatal(err)
				}
				nodes = st.NodesAccessed
			}
			b.ReportMetric(float64(nodes), "nodesAccessed")
		})
	}
}

// BenchmarkLinearScanVsIndexed contrasts the indexed search with the
// brute-force scan the index is supposed to beat.
func BenchmarkLinearScanVsIndexed(b *testing.B) {
	data := experiments.SyntheticDataset(50, benchSamples, 1)
	db, err := NewDB(RTree3D, data.Trajs)
	if err != nil {
		b.Fatal(err)
	}
	src := db.Get(1)
	sl, _ := src.Slice(0.4, 0.6)
	q := sl.Clone()
	q.ID = 0
	b.Run("indexed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := db.Query(context.Background(), Request{Q: &q, Interval: Interval{q.StartTime(), q.EndTime()}, K: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			scanMST(db, &q)
		}
	})
}

// scanMST is the brute-force comparison: exact DISSIM against every
// stored trajectory.
func scanMST(db *DB, q *Trajectory) (ID, float64) {
	bestID, best := ID(0), -1.0
	for id := 1; id <= db.Len(); id++ {
		tr := db.Get(ID(id))
		if tr == nil {
			continue
		}
		if d, ok := Dissimilarity(q, tr, q.StartTime(), q.EndTime()); ok {
			if best < 0 || d < best {
				best, bestID = d, ID(id)
			}
		}
	}
	return bestID, best
}

// BenchmarkAblationBulkVsDynamic compares the two 3D R-tree construction
// paths: Guttman dynamic insertion (what a live MOD does, and what the
// experiments use) versus STR bulk loading (what a warehouse rebuild would
// do), reporting the node-count difference that drives query I/O.
func BenchmarkAblationBulkVsDynamic(b *testing.B) {
	data := experiments.SyntheticDataset(50, benchSamples, 1)
	var entries []index.LeafEntry
	for i := range data.Trajs {
		tr := &data.Trajs[i]
		for s := 0; s < tr.NumSegments(); s++ {
			entries = append(entries, index.LeafEntry{TrajID: tr.ID, SeqNo: uint32(s), Seg: tr.Segment(s)})
		}
	}
	b.Run("dynamic", func(b *testing.B) {
		var nodes int
		for i := 0; i < b.N; i++ {
			f := storage.NewFile(storage.DefaultPageSize)
			t := rtree.New(f)
			for _, e := range entries {
				if err := t.Insert(e); err != nil {
					b.Fatal(err)
				}
			}
			nodes = t.NumNodes()
		}
		b.ReportMetric(float64(nodes), "nodes")
	})
	b.Run("bulkSTR", func(b *testing.B) {
		var nodes int
		for i := 0; i < b.N; i++ {
			cp := make([]index.LeafEntry, len(entries))
			copy(cp, entries)
			t, err := rtree.BulkLoad(storage.NewFile(storage.DefaultPageSize), cp)
			if err != nil {
				b.Fatal(err)
			}
			nodes = t.NumNodes()
		}
		b.ReportMetric(float64(nodes), "nodes")
	})
}

// BenchmarkDiskBackedTree measures the same search against a tree whose
// pages live in an os.File rather than memory — the realistic I/O path the
// storage substrate exists for.
func BenchmarkDiskBackedTree(b *testing.B) {
	data := experiments.SyntheticDataset(30, benchSamples, 1)
	disk, err := storage.CreateDiskFile(b.TempDir()+"/pages.db", storage.DefaultPageSize)
	if err != nil {
		b.Fatal(err)
	}
	defer disk.Close()
	tree := rtree.New(disk)
	for i := range data.Trajs {
		tr := &data.Trajs[i]
		for s := 0; s < tr.NumSegments(); s++ {
			e := index.LeafEntry{TrajID: tr.ID, SeqNo: uint32(s), Seg: tr.Segment(s)}
			if err := tree.Insert(e); err != nil {
				b.Fatal(err)
			}
		}
	}
	src := &data.Trajs[0]
	sl, _ := src.Slice(0.4, 0.6)
	q := sl.Clone()
	q.ID = 0
	opts := mst.Options{K: 1, Vmax: data.MaxSpeed() + q.MaxSpeed()}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := mst.Search(tree, &q, q.StartTime(), q.EndTime(), opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConcurrentQueries measures query throughput with parallel
// clients, each holding its own buffered view (RunParallel scales workers
// with GOMAXPROCS).
func BenchmarkConcurrentQueries(b *testing.B) {
	data := experiments.SyntheticDataset(50, benchSamples, 1)
	db, err := NewDB(RTree3D, data.Trajs)
	if err != nil {
		b.Fatal(err)
	}
	src := db.Get(1)
	sl, _ := src.Slice(0.4, 0.6)
	q := sl.Clone()
	q.ID = 0
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := db.Query(context.Background(), Request{Q: &q, Interval: Interval{q.StartTime(), q.EndTime()}, K: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkKMostSimilarBatch measures the batch executor's throughput on a
// Fig. 10 Q1-shaped workload (5% windows, k = 1) at different worker
// counts — the serving-path number the striped pool and batch engine
// exist for. Note this container may be scheduled on a single CPU; on one
// core the parallel legs measure coordination overhead rather than
// speedup, so read the ratio between legs on multi-core hardware.
func BenchmarkKMostSimilarBatch(b *testing.B) {
	data := experiments.SyntheticDataset(50, benchSamples, 1)
	db, err := NewDB(RTree3D, data.Trajs)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	const nq = 32
	queries := make([]BatchQuery, nq)
	held := make([]Trajectory, nq)
	for i := range queries {
		src := &data.Trajs[rng.Intn(len(data.Trajs))]
		t1 := rng.Float64() * 0.9
		t2 := t1 + 0.05
		sl, ok := src.Slice(t1, t2)
		if !ok {
			b.Fatalf("query window [%g, %g] outside dataset span", t1, t2)
		}
		held[i] = sl.Clone()
		held[i].ID = 0
		queries[i] = BatchQuery{Q: &held[i], T1: t1, T2: t2, K: 1}
	}
	// One untimed pass warms the shared buffer so every leg measures the
	// same steady state.
	for _, br := range db.KMostSimilarBatch(context.Background(), queries,
		Options{Parallelism: 1}) {
		if br.Err != nil {
			b.Fatal(br.Err)
		}
	}
	for _, par := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("parallelism=%d", par), func(b *testing.B) {
			opts := Options{Parallelism: par}
			b.ResetTimer()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				for _, br := range db.KMostSimilarBatch(context.Background(), queries, opts) {
					if br.Err != nil {
						b.Fatal(br.Err)
					}
				}
			}
			elapsed := time.Since(start).Seconds()
			if elapsed > 0 {
				b.ReportMetric(float64(b.N)*nq/elapsed, "queries/s")
			}
		})
	}
}
