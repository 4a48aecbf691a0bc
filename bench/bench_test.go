package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
	"time"
)

var tinyTiming = timing{setupReps: 1, timed: 400 * time.Millisecond}

// benchmarkJSON is the whole of BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(buf, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCatalogueMatchesBenchmarkJSON keeps the file the driver reads and the
// tables the harness emits from drifting apart.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	ws := workloads(false)
	if len(b.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(b.Workloads), len(ws))
	}
	for i, w := range ws {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, harness {%s %s}", i, b.Workloads[i], w.name, w.why)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the harness %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		got := b.EndToEnd[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, harness %+v", i, got, d)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the harness %d", len(b.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		got := b.PerLayer[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, harness %+v", i, got, d)
		}
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func checkEmitted(t *testing.T, rec *runRecord, defs []metricDef) {
	t.Helper()
	if err := rec.check(defs); err != nil {
		t.Fatal(err)
	}
	for _, d := range defs {
		if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) {
			t.Errorf("metric %q (unit %q) breaks the naming rules", d.Name, d.Unit)
		}
	}
	if !rec.Correct || rec.Failed != 0 || rec.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d (first error: %s)", rec.Correct, rec.Attempted, rec.Failed, rec.FirstError)
	}
}

// TestEveryWorkloadEmitsEveryMetric runs each workload at the tiny scale,
// untraced and traced.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir())
	for _, w := range workloads(true) {
		t.Run(w.name, func(t *testing.T) {
			rec, err := runEndToEnd(w, 1, tinyTiming)
			if err != nil {
				t.Fatal(err)
			}
			checkEmitted(t, rec, endToEnd)
			for _, d := range endToEnd {
				if rec.Metrics[d.Name].Value == 0 {
					t.Errorf("end-to-end metric %s is 0 on %s", d.Name, w.name)
				}
			}

			spans := t.TempDir() + "/spans.json"
			rec, err = runTraced(w, 1, tinyTiming, spans)
			if err != nil {
				t.Fatal(err)
			}
			checkEmitted(t, rec, perLayer)
			var got []span
			buf, err := os.ReadFile(spans)
			if err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(buf, &got); err != nil {
				t.Fatal(err)
			}
			if len(got) == 0 {
				t.Fatal("the traced run wrote no span")
			}
			if err := checkSpans(got); err != nil {
				t.Fatal(err)
			}

			// The serving layers are measured on serve-rw and nowhere else.
			serving := rec.Metrics["server.self_us"].Value + rec.Metrics["shard.overhead_us"].Value
			if w.serve && serving <= 0 {
				t.Errorf("server.self_us + shard.overhead_us = %g on %s", serving, w.name)
			}
			if !w.serve && serving != 0 {
				t.Errorf("server.self_us + shard.overhead_us = %g on %s, which has no serving layer", serving, w.name)
			}
			if w.kind.Metric() {
				// BENCH_PR9's fixture fit one leaf and never exercised pruning.
				if h := rec.Metrics["ntree.height"].Value; h < 2 {
					t.Errorf("ntree.height = %g, want a multi-level tree", h)
				}
				if n := rec.Metrics["ntree.nodes_per_query"].Value; n <= 1 {
					t.Errorf("ntree.nodes_per_query = %g, want more than one", n)
				}
			}
		})
	}
}

func TestPoolIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads(true) {
		a, b, c := poolHash(genPool(w, 7)), poolHash(genPool(w, 7)), poolHash(genPool(w, 8))
		if a != b {
			t.Errorf("%s: seed 7 gave pools %s and %s", w.name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 gave the same pool %s", w.name, a)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 30, End: 60, Parent: 0}, // overlaps a: the union counts once
		{Name: "c", Start: 15, End: 20, Parent: 1},
	}
	want := []int64{50, 25, 30, 5}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got, want[i])
		}
	}
	spans[3].End = 45 // now c leaves its parent a
	if err := checkSpans(spans); err == nil {
		t.Error("checkSpans accepted a child that leaves its parent")
	}
}

func TestQuantiles(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5}
	for q, want := range map[float64]float64{0: 1, 0.25: 2, 0.5: 3, 0.9: 4.6, 1: 5} {
		if got := quantile(s, q); math.Abs(got-want) > 1e-12 {
			t.Errorf("quantile(%g) = %g, want %g", q, got, want)
		}
	}
	// statistics.quantiles([1, 2, 4, 8, 16, 32, 64, 128, 256, 512], n=4) is [3.5, 24.0, 160.0].
	pow := []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512}
	if q1, q3 := quartile(pow, 1), quartile(pow, 3); q1 != 3.5 || q3 != 160 {
		t.Errorf("quartiles = %g, %g, want 3.5, 160", q1, q3)
	}
	if q := tailQuantile(1500); q != 0.99 {
		t.Errorf("tailQuantile(1500) = %g, want 0.99", q)
	}
	if q := tailQuantile(500); q != 0.98 {
		t.Errorf("tailQuantile(500) = %g, want 0.98", q)
	}
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	// write stores a document with one lib-short run per p50 value, seeds
	// 1, 2, ..., and whatever extra runs the case adds.
	write := func(name string, p50 []float64, correct float64, extra ...*runRecord) string {
		doc := document{Schema: documentSchema, Runs: extra}
		for i, v := range p50 {
			doc.Runs = append(doc.Runs, &runRecord{Workload: "lib-short", Seed: int64(i + 1), Seconds: 12, Metrics: map[string]metricValue{
				"query_p50_ms":  {Value: v, Unit: "ms"},
				"correct_share": {Value: correct, Unit: "ratio"},
			}})
		}
		buf, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		path := dir + "/" + name
		if err := os.WriteFile(path, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	steady := []float64{1.00, 1.01, 0.99, 1.00}
	serve := func(seconds float64) *runRecord {
		return &runRecord{Workload: "serve-rw", Seed: 1, Seconds: seconds, Metrics: map[string]metricValue{"write_p50_ms": {Value: 1, Unit: "ms"}}}
	}
	base := write("base.json", steady, 1)
	both := write("both.json", steady, 1, serve(12))
	for _, tc := range []struct {
		name             string
		old, new         string
		regressed, refus bool
	}{
		{"same", base, write("same.json", []float64{1.00, 1.01, 0.99, 1.02}, 1), false, false},
		{"slower", base, write("slower.json", []float64{1.30, 1.31, 1.29, 1.30}, 1), true, false},
		{"faster", base, write("faster.json", []float64{0.70, 0.71, 0.69, 0.70}, 1), false, false},
		{"noisy", base, write("noisy.json", []float64{0.8, 1.2, 1.6, 2.0}, 1), false, false}, // unresolved, not regressed
		{"failing", base, write("failing.json", steady, 0.99), true, false},
		// A workload that broke outright appends no record at all.
		{"workload missing", both, base, true, false},
		{"workload present", both, write("both2.json", steady, 1, serve(12)), false, false},
		{"a run missing", base, write("short.json", steady[:3], 1), false, true},
		{"other window", both, write("both4s.json", steady, 1, serve(4)), false, true},
		{"mixed windows", both, write("mixed.json", steady, 1, serve(12), serve(4)), false, true},
	} {
		got, err := compareDocuments(os.Stderr, "../BENCHMARK.json", tc.old, tc.new)
		if (err != nil) != tc.refus {
			t.Errorf("%s: error %v, want a refusal: %v", tc.name, err, tc.refus)
		}
		if got != tc.regressed {
			t.Errorf("%s: regressed = %v, want %v", tc.name, got, tc.regressed)
		}
	}
}
