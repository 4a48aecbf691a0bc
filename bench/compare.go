package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
)

// benchmarkFile is the part of BENCHMARK.json -compare needs.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// side is one document's runs of one workload, summarised for one metric.
type side struct {
	median, spread float64 // spread is the interquartile range as a share of the median
	runs           int
}

func summarise(runs []*runRecord, metric string) (side, bool) {
	var vals []float64
	for _, r := range runs {
		if m, ok := r.Metrics[metric]; ok {
			vals = append(vals, m.Value)
		}
	}
	if len(vals) == 0 {
		return side{}, false
	}
	s := sortedCopy(vals)
	out := side{median: quantile(s, 0.5), runs: len(vals)}
	if len(vals) >= 4 && out.median != 0 {
		out.spread = (quartile(s, 3) - quartile(s, 1)) / out.median
	}
	return out, true
}

// settings are what runs must share before their numbers are pooled into one
// median or set against another document's.
type settings struct {
	seconds                    float64
	cpu                        string
	nproc, gomaxprocs, clients int
	fsync                      string
	checkpointBytes            int64
}

func settingsOf(r *runRecord) settings {
	m := r.Meta
	return settings{r.Seconds, m.CPUModel, m.NProc, m.GOMAXPROCS, m.Clients, m.FsyncPolicy, m.CheckpointBytes}
}

// untracedRuns returns the document's end-to-end runs of one workload and the
// operation pools they ran, sorted. Runs that differ in their settings are
// refused: their median would describe no configuration.
func untracedRuns(doc *document, path, workload string) (runs []*runRecord, pools []string, err error) {
	for _, r := range doc.Runs {
		if r.Workload != workload || r.Trace != 0 {
			continue
		}
		if len(runs) > 0 && settingsOf(r) != settingsOf(runs[0]) {
			return nil, nil, fmt.Errorf("%s: runs of %s differ in their settings: %+v and %+v", path, workload, settingsOf(runs[0]), settingsOf(r))
		}
		runs = append(runs, r)
		pools = append(pools, fmt.Sprintf("%d/%s", r.Seed, r.Meta.PoolHash))
	}
	sort.Strings(pools)
	return runs, pools, nil
}

// quartile is the i-th quartile of sorted as Python's
// statistics.quantiles(values, n=4) gives it (the exclusive method), the rule
// the benchmark contract measures spreads by.
func quartile(sorted []float64, i int) float64 {
	n := len(sorted)
	j := i * (n + 1) / 4
	if j < 1 {
		j = 1
	}
	if j > n-1 {
		j = n - 1
	}
	delta := float64(i*(n+1) - j*4)
	return (sorted[j-1]*(4-delta) + sorted[j]*delta) / 4
}

// compareDocuments prints one row per workload and end-to-end metric: both
// medians, the change, the bound, and a verdict. It reports whether any metric
// regressed. A drop of correct_share (a rise in failures) always does, and so
// does a workload or metric the old document has and the new one lacks: a run
// that breaks leaves no record. Documents whose runs of a workload differ in
// settings or in the pools they ran are refused with an error.
func compareDocuments(out io.Writer, boundsPath, oldPath, newPath string) (regressed bool, err error) {
	buf, err := os.ReadFile(boundsPath)
	if err != nil {
		return false, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(buf, &bf); err != nil {
		return false, fmt.Errorf("%s: %w", boundsPath, err)
	}
	oldDoc, err := readDocument(oldPath)
	if err != nil {
		return false, err
	}
	newDoc, err := readDocument(newPath)
	if err != nil {
		return false, err
	}
	seen := map[string]bool{}
	var names []string
	for _, r := range oldDoc.Runs {
		if !seen[r.Workload] {
			seen[r.Workload] = true
			names = append(names, r.Workload)
		}
	}
	sort.Strings(names)

	tw := tabwriter.NewWriter(out, 0, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\told\tnew\tchange\tbound\tspread\tverdict")
	for _, wl := range names {
		oldRuns, oldPools, err := untracedRuns(oldDoc, oldPath, wl)
		if err != nil {
			return false, err
		}
		newRuns, newPools, err := untracedRuns(newDoc, newPath, wl)
		if err != nil {
			return false, err
		}
		if len(oldRuns) == 0 {
			continue
		}
		if len(newRuns) > 0 {
			if o, n := settingsOf(oldRuns[0]), settingsOf(newRuns[0]); o != n {
				return false, fmt.Errorf("%s: %s ran with %+v, %s with %+v", wl, oldPath, o, newPath, n)
			}
			if o, n := fmt.Sprint(oldPools), fmt.Sprint(newPools); o != n {
				return false, fmt.Errorf("%s: the documents ran different seed/pool sets, or a run is missing: %s has %s, %s has %s", wl, oldPath, o, newPath, n)
			}
		}
		for _, m := range bf.EndToEnd {
			o, ok := summarise(oldRuns, m.Name)
			if !ok || o.median == 0 {
				continue
			}
			n, ok := summarise(newRuns, m.Name)
			if !ok {
				regressed = true
				fmt.Fprintf(tw, "%s\t%s\t%.6g\tmissing\t\t%.1f%%\t\tregressed\n", wl, m.Name, o.median, 100*m.Bound)
				continue
			}
			// worse > 0 means the new side is worse, as a share of the old median.
			worse := (n.median - o.median) / o.median
			if m.Better == "higher" {
				worse = -worse
			}
			spread := o.spread
			if n.spread > spread {
				spread = n.spread
			}
			verdict := "unchanged"
			switch {
			case m.Name == "correct_share" && worse > 0:
				verdict = "regressed"
			case spread > m.Bound:
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "regressed"
			case worse < -m.Bound:
				verdict = "improved"
			}
			if verdict == "regressed" {
				regressed = true
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%+.2f%%\t%.1f%%\t%.2f%%\t%s\n",
				wl, m.Name, o.median, n.median, 100*(n.median-o.median)/o.median, 100*m.Bound, 100*spread, verdict)
		}
	}
	return regressed, tw.Flush()
}
