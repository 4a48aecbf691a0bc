package experiments

import (
	"bytes"
	"strings"
	"testing"
)

func TestBuildIndexBothKinds(t *testing.T) {
	data := SyntheticDataset(10, 101, 1)
	for _, kind := range AllTreeKinds {
		b, err := BuildIndex(kind, data)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if b.SizeMB() <= 0 {
			t.Fatalf("%s: zero size", kind)
		}
		tree, bp := b.View()
		if tree.NumNodes() == 0 || tree.Height() == 0 {
			t.Fatalf("%s: empty tree", kind)
		}
		if bp.Capacity() < 1 {
			t.Fatalf("%s: bad buffer capacity", kind)
		}
	}
}

func TestTBTreeSmallerThanRTree(t *testing.T) {
	// The Table 2 shape: TB-tree indexes are roughly half the 3D R-tree's
	// size thanks to fully packed leaves.
	data := SyntheticDataset(20, 501, 2)
	r, err := BuildIndex(RTree3D, data)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := BuildIndex(TBTree, data)
	if err != nil {
		t.Fatal(err)
	}
	if tb.SizeMB() >= r.SizeMB() {
		t.Fatalf("TB-tree (%.2f MB) should be smaller than 3D R-tree (%.2f MB)",
			tb.SizeMB(), r.SizeMB())
	}
}

func TestRunTable2Scaled(t *testing.T) {
	rows, err := RunTable2([]int{10, 20}, 301, 0.05, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 || rows[0].Name != "Trucks" || rows[2].Name != "S0020" {
		t.Fatalf("rows = %+v", rows)
	}
	for _, r := range rows {
		if r.Entries == 0 || r.RTreeMB <= 0 || r.TBTreeMB <= 0 {
			t.Fatalf("degenerate row %+v", r)
		}
		// The Table 2 size relation (TB-tree ≈ half the 3D R-tree) holds
		// when trajectories span several leaves; the scaled-down Trucks
		// row has too few segments per truck for the bundling to pay off.
		if strings.HasPrefix(r.Name, "S") && r.TBTreeMB >= r.RTreeMB {
			t.Fatalf("%s: TB-tree not smaller: %+v", r.Name, r)
		}
	}
	var buf bytes.Buffer
	PrintTable2(&buf, rows)
	if !strings.Contains(buf.String(), "Trucks") {
		t.Fatal("printed table must mention Trucks")
	}
}

func TestRunQualityScaled(t *testing.T) {
	rows := RunQuality(QualityConfig{
		Scale:      0.06, // ~16 trucks, ~400 segments
		NumQueries: 8,
		PValues:    []float64{0.001, 0.05},
		Seed:       3,
	})
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		for _, m := range QualityMeasures {
			v, ok := r.FalsePercent[m]
			if !ok || v < 0 || v > 100 {
				t.Fatalf("row %+v: bad %s", r, m)
			}
		}
	}
	// The paper's headline: DISSIM at small p identifies the original.
	if rows[0].FalsePercent["DISSIM"] > 20 {
		t.Fatalf("DISSIM at p=0.1%% should be near-perfect: %+v", rows[0])
	}
	var buf bytes.Buffer
	PrintQuality(&buf, rows)
	if !strings.Contains(buf.String(), "DISSIM") {
		t.Fatal("printed table must mention DISSIM")
	}
}

func TestRunCompressionScaled(t *testing.T) {
	rows := RunCompression(QualityConfig{Scale: 0.06, Seed: 3})
	if len(rows) < 3 || rows[0].P != 0 {
		t.Fatalf("rows = %+v", rows)
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].Vertices > rows[i-1].Vertices {
			t.Fatalf("vertex counts must not increase with p: %+v", rows)
		}
	}
	var buf bytes.Buffer
	PrintCompression(&buf, rows)
	if !strings.Contains(buf.String(), "vertices") {
		t.Fatal("printed table header missing")
	}
}

func TestRunnerQ1Scaled(t *testing.T) {
	r := NewRunner(PerfConfig{SamplesPerObject: 101, NumQueries: 5, Seed: 1})
	rows, err := r.Run(QuerySettings{
		Name:          "Q1",
		Cardinalities: []int{10, 20},
		QueryLengths:  []float64{0.05},
		Ks:            []int{1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 { // 2 cardinalities × 2 trees
		t.Fatalf("rows = %d", len(rows))
	}
	for _, row := range rows {
		if row.Queries != 5 || row.AvgNodes <= 0 {
			t.Fatalf("bad row %+v", row)
		}
		if row.PruningPower < 0 || row.PruningPower > 1 {
			t.Fatalf("pruning power out of range: %+v", row)
		}
	}
	var buf bytes.Buffer
	PrintPerf(&buf, "Q1", rows)
	if !strings.Contains(buf.String(), "pruning%") {
		t.Fatal("printed perf header missing")
	}
	// Dataset caching: re-running must not rebuild (hit the cache).
	if len(r.cache) != 2 {
		t.Fatalf("expected 2 cached datasets, got %d", len(r.cache))
	}
}

func TestPaperQuerySettingsShape(t *testing.T) {
	qss := PaperQuerySettings()
	if len(qss) != 3 {
		t.Fatalf("want Q1..Q3, got %d", len(qss))
	}
	if qss[0].Cardinalities[len(qss[0].Cardinalities)-1] != 1000 {
		t.Fatal("Q1 must scale to S1000")
	}
	if qss[1].QueryLengths[len(qss[1].QueryLengths)-1] != 1.0 {
		t.Fatal("Q2 must scale to 100% query length")
	}
	if qss[2].Ks[len(qss[2].Ks)-1] != 10 {
		t.Fatal("Q3 must scale to k=10")
	}
	for _, qs := range qss {
		if qs.NumQueries != 500 {
			t.Fatalf("%s: paper uses 500 queries", qs.Name)
		}
	}
}

func TestRunAblationScaled(t *testing.T) {
	rows, err := RunAblation(PerfConfig{SamplesPerObject: 101, Seed: 1}, 15, 5, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	full, noBoth := rows[0], rows[3]
	if full.Name == "" || full.AvgNodes <= 0 {
		t.Fatalf("degenerate row %+v", full)
	}
	// Heuristics must not increase node accesses.
	if noBoth.AvgNodes < full.AvgNodes-1e-9 {
		t.Fatalf("disabling heuristics reduced work: %+v vs %+v", noBoth, full)
	}
	var buf bytes.Buffer
	PrintAblation(&buf, rows)
	if !strings.Contains(buf.String(), "pruning%") {
		t.Fatal("printed ablation header missing")
	}
}
