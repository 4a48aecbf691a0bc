package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"mstsearch"
)

// metricValue is one reported number.
type metricValue struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"` // how many measurements the value summarises
}

// runMeta fingerprints the host and the settings a run used, so two documents
// can be told apart before their numbers are compared.
type runMeta struct {
	CPUModel        string `json:"cpu_model"`
	NProc           int    `json:"nproc"`
	GOMAXPROCS      int    `json:"gomaxprocs"`
	GoVersion       string `json:"go_version"`
	GitCommit       string `json:"git_commit"`
	Clients         int    `json:"clients"`
	PoolHash        string `json:"pool_hash"`
	FsyncPolicy     string `json:"fsync_policy,omitempty"`
	CheckpointBytes int64  `json:"checkpoint_bytes,omitempty"`
}

// runRecord is one run of one workload: the unit -out appends and -compare
// reads.
type runRecord struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Trace    int     `json:"trace"`
	Seconds  float64 `json:"seconds"`
	Meta     runMeta `json:"meta"`

	Correct        bool    `json:"correct"`
	Attempted      int     `json:"attempted"`
	Failed         int     `json:"failed"`
	FirstError     string  `json:"first_error,omitempty"`
	TailPercentile float64 `json:"tail_percentile,omitempty"` // what query_p99_ms actually is at this sample count

	Metrics map[string]metricValue `json:"metrics"`
	// Notes are figures that explain the metrics but are not part of the
	// catalogue: kernel busy shares, checkpoints seen, span counts.
	Notes map[string]float64 `json:"notes,omitempty"`
}

// document is the file -out writes: every run appended so far.
type document struct {
	Schema string       `json:"schema"`
	Runs   []*runRecord `json:"runs"`
}

const documentSchema = "mstbench/1"

func newRecord(w *workloadSpec, seed int64, trace int, pool []op) *runRecord {
	rec := &runRecord{
		Workload: w.name, Seed: seed, Trace: trace,
		Meta: runMeta{
			CPUModel:   cpuModel(),
			NProc:      runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			GoVersion:  runtime.Version(),
			GitCommit:  gitCommit(),
			Clients:    w.clients,
			PoolHash:   poolHash(pool),
		},
		Metrics: map[string]metricValue{},
	}
	if w.serve {
		rec.Meta.FsyncPolicy = mstsearch.SyncAlways.String()
		rec.Meta.CheckpointBytes = checkpointBytes
	}
	return rec
}

func unitOf(name string) string {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.Name == name {
				return d.Unit
			}
		}
	}
	panic("bench: metric " + name + " is not in the catalogue")
}

func (r *runRecord) put(name string, v float64, samples int) {
	r.Metrics[name] = metricValue{Value: v, Unit: unitOf(name), Samples: samples}
}

// check reports the catalogue metrics the record lacks or holds as NaN/Inf.
func (r *runRecord) check(defs []metricDef) error {
	for _, d := range defs {
		m, ok := r.Metrics[d.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", d.Name, m.Value)
		}
	}
	return nil
}

// print writes one "name value unit" line per metric, then the single JSON
// object the benchmark contract wants as the last line.
func (r *runRecord) print(out io.Writer, defs []metricDef) error {
	w := bufio.NewWriter(out)
	fmt.Fprintf(w, "workload %s seed %d trace %d: attempted %d failed %d\n", r.Workload, r.Seed, r.Trace, r.Attempted, r.Failed)
	type wire struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]wire{}
	for _, d := range defs {
		m := r.Metrics[d.Name]
		fmt.Fprintf(w, "%-34s %16.6g %-6s n=%d\n", d.Name, m.Value, m.Unit, m.Samples)
		metrics[d.Name] = wire{m.Value, m.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool            `json:"correct"`
		Attempted int             `json:"attempted"`
		Failed    int             `json:"failed"`
		Metrics   map[string]wire `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
	if err != nil {
		return err
	}
	w.Write(line)
	w.WriteByte('\n')
	return w.Flush()
}

func readDocument(path string) (*document, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc document
	if err := json.Unmarshal(buf, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if doc.Schema != documentSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, doc.Schema, documentSchema)
	}
	return &doc, nil
}

// appendRecord adds the run to the document at path, creating it if needed.
func appendRecord(path string, rec *runRecord) error {
	doc := &document{Schema: documentSchema}
	if _, err := os.Stat(path); err == nil {
		if doc, err = readDocument(path); err != nil {
			return err
		}
	}
	doc.Runs = append(doc.Runs, rec)
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

func cpuModel() string {
	buf, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(buf), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// gitCommit resolves HEAD by reading .git directly: the benchmark starts no
// process, and a checkout that is not a repository reports "unknown".
func gitCommit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if !strings.HasPrefix(ref, "ref: ") {
		return ref
	}
	if buf, err := os.ReadFile(filepath.Join(".git", strings.TrimPrefix(ref, "ref: "))); err == nil {
		return strings.TrimSpace(string(buf))
	}
	return "unknown"
}
