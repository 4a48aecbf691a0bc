// Command mststore manages durable trajectory stores: directories holding
// a checkpoint snapshot plus a write-ahead log, as created by
// mstsearch.OpenDurable. Unlike mstquery — which rebuilds an in-memory
// index from CSV on every run — mststore ingests once and reopens the
// same store across runs, surviving crashes in between.
//
// Usage:
//
//	mststore ingest     -dir store/ -data trucks.csv [-tree rtree] [-sync always]
//	mststore append     -dir store/ -data updates.csv
//	mststore checkpoint -dir store/
//	mststore info       -dir store/
//	mststore query      -dir store/ -queryid 7 -k 5
//
// Sharded (cluster) stores partition trajectories across N independent
// shard directories under one root, each with its own WAL and
// checkpoints, pinned by a cluster manifest:
//
//	mststore cluster-init   -dir cluster/ -shards 4 [-replicas 2] [-placement hash] [-tree rtree]
//	mststore cluster-ingest -dir cluster/ -data trucks.csv
//	mststore cluster-info   -dir cluster/
//	mststore cluster-query  -dir cluster/ -queryid 7 -k 5 [-p 0.25]
//
// verify is the offline scrubber: it walks every snapshot and WAL frame
// of a store directory — or every shard/replica directory of a cluster —
// re-checking the CRCs recovery would, and emits a JSON findings report,
// exiting non-zero when damage is found:
//
//	mststore verify -dir store/
//	mststore verify -dir cluster/
//
// Example:
//
//	gendata -kind trucks -scale 0.2 -o trucks.csv
//	mststore ingest -dir store/ -data trucks.csv -tree tb
//	mststore query -dir store/ -queryid 7 -k 5
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"mstsearch"
	"mstsearch/internal/shard"
	"mstsearch/internal/wal"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "ingest":
		runIngest(os.Args[2:])
	case "append":
		runAppend(os.Args[2:])
	case "checkpoint":
		runCheckpoint(os.Args[2:])
	case "info":
		runInfo(os.Args[2:])
	case "query":
		runQuery(os.Args[2:])
	case "cluster-init":
		runClusterInit(os.Args[2:])
	case "cluster-ingest":
		runClusterIngest(os.Args[2:])
	case "cluster-info":
		runClusterInfo(os.Args[2:])
	case "cluster-query":
		runClusterQuery(os.Args[2:])
	case "verify":
		runVerify(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: mststore <ingest|append|checkpoint|info|query|verify|cluster-init|cluster-ingest|cluster-info|cluster-query> -dir <store> [flags]")
	os.Exit(2)
}

// storeFlags declares the flags every subcommand shares.
func storeFlags(name string) (*flag.FlagSet, *string, *string, *string) {
	fs := flag.NewFlagSet("mststore "+name, flag.ExitOnError)
	dir := fs.String("dir", "", "store directory (required)")
	tree := fs.String("tree", "rtree", "index structure: rtree, tb, str, or ntree")
	sync := fs.String("sync", "always", "fsync policy: always, grouped, or off")
	return fs, dir, tree, sync
}

func parseKind(tree string) mstsearch.IndexKind {
	kind, err := mstsearch.ParseIndexKind(tree)
	fail(err)
	return kind
}

func parseSync(s string) mstsearch.SyncMode {
	switch s {
	case "grouped":
		return mstsearch.SyncGrouped
	case "off":
		return mstsearch.SyncOff
	default:
		return mstsearch.SyncAlways
	}
}

// open opens the store, resolving the index kind from the directory when
// it already holds a checkpoint under a different kind than requested.
func open(dir string, kind mstsearch.IndexKind, mode mstsearch.SyncMode) (*mstsearch.DB, mstsearch.IndexKind) {
	opts := mstsearch.DurableOptions{Sync: mode}
	db, err := mstsearch.OpenDurable(dir, kind, opts)
	if errors.Is(err, mstsearch.ErrSnapshotKind) {
		for _, k := range mstsearch.IndexKinds() {
			if k == kind {
				continue
			}
			if db, err = mstsearch.OpenDurable(dir, k, opts); err == nil {
				kind = k
				break
			}
		}
	}
	fail(err)
	return db, kind
}

func runIngest(args []string) {
	fs, dir, tree, sync := storeFlags("ingest")
	data := fs.String("data", "", "dataset CSV to ingest (required)")
	fs.Parse(args)
	requireDir(*dir)
	if *data == "" {
		fail(fmt.Errorf("-data is required"))
	}
	db, kind := open(*dir, parseKind(*tree), parseSync(*sync))
	trajs := readCSV(*data)
	added := 0
	for i := range trajs {
		if err := db.Add(trajs[i]); err != nil {
			fail(fmt.Errorf("trajectory %d: %w", trajs[i].ID, err))
		}
		added++
	}
	fail(db.Close())
	fmt.Printf("ingested %d trajectories into %s (%s, durable)\n", added, *dir, kind)
}

// runAppend streams location updates into existing trajectories: each
// CSV trajectory's samples are appended to the stored trajectory with
// the same ID.
func runAppend(args []string) {
	fs, dir, tree, sync := storeFlags("append")
	data := fs.String("data", "", "updates CSV (required)")
	fs.Parse(args)
	requireDir(*dir)
	if *data == "" {
		fail(fmt.Errorf("-data is required"))
	}
	db, _ := open(*dir, parseKind(*tree), parseSync(*sync))
	updates := readCSV(*data)
	n := 0
	for i := range updates {
		for _, s := range updates[i].Samples {
			if err := db.AppendSample(updates[i].ID, s); err != nil {
				fail(fmt.Errorf("trajectory %d: %w", updates[i].ID, err))
			}
			n++
		}
	}
	fail(db.Close())
	fmt.Printf("appended %d samples across %d trajectories\n", n, len(updates))
}

func runCheckpoint(args []string) {
	fs, dir, tree, sync := storeFlags("checkpoint")
	fs.Parse(args)
	requireDir(*dir)
	db, _ := open(*dir, parseKind(*tree), parseSync(*sync))
	fail(db.Checkpoint())
	fail(db.Close())
	fmt.Printf("checkpointed %s\n", *dir)
}

func runInfo(args []string) {
	fs, dir, tree, sync := storeFlags("info")
	fs.Parse(args)
	requireDir(*dir)
	db, kind := open(*dir, parseKind(*tree), parseSync(*sync))
	defer db.Close()
	segs, err := wal.Segments(*dir)
	fail(err)
	var logBytes int64
	for _, s := range segs {
		if st, err := os.Stat(filepath.Join(*dir, s.Name)); err == nil {
			logBytes += st.Size()
		}
	}
	fmt.Printf("store:        %s\n", *dir)
	fmt.Printf("index:        %s (%.2f MB)\n", kind, db.IndexSizeMB())
	fmt.Printf("trajectories: %d (%d segments)\n", db.Len(), db.NumSegments())
	fmt.Printf("wal:          %d segment file(s), %d bytes\n", len(segs), logBytes)
}

func runQuery(args []string) {
	fs, dir, tree, sync := storeFlags("query")
	queryID := fs.Uint("queryid", 0, "stored trajectory to use as the query (required)")
	k := fs.Int("k", 1, "number of results")
	fs.Parse(args)
	requireDir(*dir)
	if *queryID == 0 {
		fail(fmt.Errorf("-queryid is required"))
	}
	db, _ := open(*dir, parseKind(*tree), parseSync(*sync))
	defer db.Close()
	q := db.Get(mstsearch.ID(*queryID))
	if q == nil {
		fail(fmt.Errorf("trajectory %d not in store", *queryID))
	}
	qc := q.Clone()
	qc.ID = 0
	resp, err := db.Query(context.Background(), mstsearch.Request{
		Q:        &qc,
		Interval: mstsearch.Interval{T1: qc.StartTime(), T2: qc.EndTime()},
		K:        *k,
	})
	fail(err)
	fmt.Printf("k=%d MST over [%g, %g]: %d results\n", *k, qc.StartTime(), qc.EndTime(), len(resp.Results))
	for i, r := range resp.Results {
		fmt.Printf("%2d. trajectory %-6d DISSIM = %.6f\n", i+1, r.TrajID, r.Dissim)
	}
}

// openCluster opens an existing cluster, taking (kind, shards, placement,
// replicas) from the manifest so the operator never has to repeat
// cluster-init's flags on later subcommands.
func openCluster(dir, sync string) *shard.Cluster {
	kind, n, placeName, replicas, err := shard.ReadManifest(dir)
	if err != nil {
		fail(fmt.Errorf("not a cluster directory (run cluster-init first): %w", err))
	}
	place, err := shard.PlacementByName(placeName)
	fail(err)
	c, err := shard.Open(dir, kind, n, place, shard.Options{
		Replicas: replicas,
		Durable:  mstsearch.DurableOptions{Sync: parseSync(sync)},
	})
	fail(err)
	return c
}

// runClusterInit creates an empty durable cluster: N shard directories
// (each with R replica subdirectories when -replicas > 1) plus the
// manifest pinning (kind, shards, placement, replicas).
func runClusterInit(args []string) {
	fs, dir, tree, sync := storeFlags("cluster-init")
	shards := fs.Int("shards", 2, "number of shards")
	replicas := fs.Int("replicas", 1, "replicas per shard")
	placement := fs.String("placement", "hash", "placement policy: hash or spatial")
	fs.Parse(args)
	requireDir(*dir)
	place, err := shard.PlacementByName(*placement)
	fail(err)
	c, err := shard.Open(*dir, parseKind(*tree), *shards, place, shard.Options{
		Replicas: *replicas,
		Durable:  mstsearch.DurableOptions{Sync: parseSync(*sync)},
	})
	fail(err)
	fail(c.Close())
	fmt.Printf("initialized cluster %s: %d shards x %d replica(s), %s placement, %s index\n",
		*dir, *shards, c.NumReplicas(), *placement, parseKind(*tree))
}

// runClusterIngest scatters a CSV dataset across the cluster's shards
// under its placement policy, journaling each trajectory on its shard.
func runClusterIngest(args []string) {
	fs, dir, _, sync := storeFlags("cluster-ingest")
	data := fs.String("data", "", "dataset CSV to ingest (required)")
	fs.Parse(args)
	requireDir(*dir)
	if *data == "" {
		fail(fmt.Errorf("-data is required"))
	}
	c := openCluster(*dir, *sync)
	trajs := readCSV(*data)
	for i := range trajs {
		if err := c.Add(trajs[i]); err != nil {
			fail(fmt.Errorf("trajectory %d: %w", trajs[i].ID, err))
		}
	}
	fail(c.Close())
	fmt.Printf("ingested %d trajectories into %d shards\n", len(trajs), c.NumShards())
}

// runClusterInfo prints the manifest plus each shard's share of the data,
// and — on a replicated cluster — every replica's health.
func runClusterInfo(args []string) {
	fs, dir, _, sync := storeFlags("cluster-info")
	fs.Parse(args)
	requireDir(*dir)
	kind, n, placeName, replicas, err := shard.ReadManifest(*dir)
	fail(err)
	c := openCluster(*dir, *sync)
	defer c.Close()
	fmt.Printf("cluster:      %s\n", *dir)
	fmt.Printf("index:        %s\n", kind)
	fmt.Printf("placement:    %s\n", placeName)
	fmt.Printf("shards:       %d\n", n)
	fmt.Printf("replicas:     %d\n", replicas)
	fmt.Printf("trajectories: %d (%d segments)\n", c.Len(), c.NumSegments())
	for i := 0; i < c.NumShards(); i++ {
		db := c.Shard(i)
		fmt.Printf("  shard %3d:  %d trajectories, %d segments\n", i, db.Len(), db.NumSegments())
	}
	if replicas > 1 {
		for _, st := range c.ReplicaStatuses() {
			line := fmt.Sprintf("  shard %3d replica %d: %-11s %d trajectories", st.Shard, st.Replica, st.State, st.Trajectories)
			if st.LastError != "" {
				line += " (last error: " + st.LastError + ")"
			}
			fmt.Println(line)
		}
	}
}

// runVerify scrubs a store — or every shard/replica store of a cluster —
// offline, re-checking every snapshot and live WAL frame CRC the next
// recovery would trust, and prints a machine-readable JSON report. Exits
// 1 when any store is damaged.
func runVerify(args []string) {
	fs := flag.NewFlagSet("mststore verify", flag.ExitOnError)
	dir := fs.String("dir", "", "store or cluster directory (required)")
	fs.Parse(args)
	requireDir(*dir)

	dirs, err := shard.StoreDirs(*dir)
	if err != nil {
		// No cluster manifest: treat dir as a single store.
		dirs = []string{*dir}
	}
	out := struct {
		Stores  []*mstsearch.ScrubReport `json:"stores"`
		Damaged bool                     `json:"damaged"`
	}{}
	for _, d := range dirs {
		rep, err := mstsearch.ScrubStore(d)
		if err != nil {
			rep = &mstsearch.ScrubReport{
				Dir:      d,
				Findings: []mstsearch.ScrubFinding{{File: d, Problem: err.Error()}},
			}
		}
		out.Damaged = out.Damaged || rep.Damaged()
		out.Stores = append(out.Stores, rep)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	fail(enc.Encode(out))
	if out.Damaged {
		os.Exit(1)
	}
}

// runClusterQuery answers a k-MST query by scatter-gather over the
// cluster, reporting how many shards the coordinator pruned.
func runClusterQuery(args []string) {
	fs, dir, _, sync := storeFlags("cluster-query")
	queryID := fs.Uint("queryid", 0, "stored trajectory to use as the query (required)")
	k := fs.Int("k", 1, "number of results")
	p := fs.Float64("p", 1, "fraction of the query's lifetime to search, from the start (0, 1]")
	fs.Parse(args)
	requireDir(*dir)
	if *queryID == 0 {
		fail(fmt.Errorf("-queryid is required"))
	}
	if *p <= 0 || *p > 1 {
		fail(fmt.Errorf("-p must be in (0, 1], got %g", *p))
	}
	c := openCluster(*dir, *sync)
	defer c.Close()
	q := c.Get(mstsearch.ID(*queryID))
	if q == nil {
		fail(fmt.Errorf("trajectory %d not in cluster", *queryID))
	}
	qc := q.Clone()
	if *p < 1 {
		t1 := qc.StartTime()
		t2 := t1 + (qc.EndTime()-t1)**p
		sl, ok := qc.Slice(t1, t2)
		if !ok {
			fail(fmt.Errorf("trajectory %d has no samples in [%g, %g]", *queryID, t1, t2))
		}
		qc = sl.Clone()
	}
	qc.ID = 0
	resp, qs, err := c.QueryShards(context.Background(), mstsearch.Request{
		Q:        &qc,
		Interval: mstsearch.Interval{T1: qc.StartTime(), T2: qc.EndTime()},
		K:        *k,
	})
	fail(err)
	fmt.Printf("k=%d MST over [%g, %g]: %d results (%d shards searched, %d pruned)\n",
		*k, qc.StartTime(), qc.EndTime(), len(resp.Results), qs.Fanout, qs.Pruned)
	for i, r := range resp.Results {
		fmt.Printf("%2d. trajectory %-6d DISSIM = %.6f\n", i+1, r.TrajID, r.Dissim)
	}
}

func requireDir(dir string) {
	if dir == "" {
		fail(fmt.Errorf("-dir is required"))
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
		fmt.Fprintln(os.Stderr, "mststore:", err)
		os.Exit(1)
	}
}
