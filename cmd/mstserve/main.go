// Command mstserve serves a trajectory store over HTTP: the canonical
// query surface (k-MST, range, nearest, topology, batch, explain), the
// durable write path (ingest, append, checkpoint), and operational
// endpoints (/healthz, /metrics) — behind the serving layer's admission
// control, per-request deadlines, and per-tenant budgets.
//
// Usage:
//
//	mstserve -dir store/ -addr :8080
//	mstserve -synthetic 200 -addr :8080          # in-memory demo fleet
//	mstserve -dir cluster/ -shards 4 -addr :8080 # sharded store (mststore cluster-init)
//
// With -shards > 0 the directory (or synthetic fleet) is served as a
// horizontally sharded cluster: queries scatter-gather across the shards
// behind the same admission ladder, and /v1/query answers are identical
// to a single-node store holding the same data.
//
// Flags tune the overload posture:
//
//	-max-concurrent N    global in-flight query cap (default 2×GOMAXPROCS)
//	-queue N             bounded wait queue depth
//	-queue-wait D        max time a request may queue before shedding
//	-tenant-rps R        per-tenant token-bucket rate (0 = off)
//	-deadline D          default per-request deadline
//	-max-nodes N         per-query node-access budget (0 = unlimited)
//	-max-ioreads N       per-query physical-read budget (0 = unlimited)
//
// A SIGINT/SIGTERM drains in-flight requests and closes the store.
package main

import (
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"mstsearch"
	"mstsearch/internal/gstd"
	"mstsearch/internal/server"
	"mstsearch/internal/shard"
)

// store is what mstserve serves: the server's Engine plus the lifecycle
// methods main drives directly. Satisfied by *mstsearch.DB and
// *shard.Cluster.
type store interface {
	server.Engine
	Close() error
}

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		dir        = flag.String("dir", "", "durable store directory (mststore format)")
		tree       = flag.String("tree", "rtree", "index structure for a new store: rtree, tb, str, or ntree")
		synthetic  = flag.Int("synthetic", 0, "serve an in-memory GSTD fleet of N objects instead of a store")
		seed       = flag.Int64("seed", 1, "synthetic fleet seed")
		maxConc    = flag.Int("max-concurrent", 0, "global in-flight cap (0 = 2×GOMAXPROCS)")
		queue      = flag.Int("queue", -1, "wait queue depth (-1 = same as max-concurrent)")
		queueWait  = flag.Duration("queue-wait", 500*time.Millisecond, "max queue wait before shedding")
		tenantRPS  = flag.Float64("tenant-rps", 0, "per-tenant request rate (0 = rate limiting off)")
		deadline   = flag.Duration("deadline", 2*time.Second, "default per-request deadline")
		maxDL      = flag.Duration("max-deadline", 30*time.Second, "ceiling for client-requested deadlines")
		maxNodes   = flag.Int("max-nodes", 0, "per-query node-access budget (0 = unlimited)")
		maxIOReads = flag.Uint64("max-ioreads", 0, "per-query physical-read budget (0 = unlimited)")
		coalesce   = flag.Duration("coalesce", time.Millisecond, "query coalescing window (0 = off)")
		shards     = flag.Int("shards", 0, "serve as a cluster of N shards (0 = single store)")
		placement  = flag.String("placement", "hash", "cluster placement policy: hash or spatial")
		replicas   = flag.Int("replicas", 1, "replicas per shard (cluster mode; manifest wins on reopen)")
		writeConc  = flag.String("write-concern", "all", "replicated write acknowledgement: all, quorum, or one")
		hedgeAfter = flag.Duration("hedge-after", 0, "hedge slow replica reads after this delay (0 = off)")
		repairIvl  = flag.Duration("repair-interval", 30*time.Second, "anti-entropy repair loop period (0 = off)")
	)
	flag.Parse()

	concern, err := shard.ParseWriteConcern(*writeConc)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mstserve:", err)
		os.Exit(2)
	}
	ropts := shard.Options{
		Replicas:       *replicas,
		WriteConcern:   concern,
		HedgeAfter:     *hedgeAfter,
		RepairInterval: *repairIvl,
	}
	db, err := openStore(*dir, *tree, *synthetic, *seed, *shards, *placement, ropts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mstserve:", err)
		os.Exit(1)
	}

	cfg := server.DefaultConfig()
	cfg.DefaultDeadline = *deadline
	cfg.MaxDeadline = *maxDL
	cfg.QueueWait = *queueWait
	cfg.TenantRPS = *tenantRPS
	cfg.CoalesceWindow = *coalesce
	cfg.Budgets = server.Budget{MaxNodeAccesses: *maxNodes, MaxIOReads: *maxIOReads}
	if *maxConc > 0 {
		cfg.MaxConcurrent = *maxConc
	}
	if *queue >= 0 {
		cfg.QueueDepth = *queue
	} else {
		cfg.QueueDepth = cfg.MaxConcurrent
	}

	srv := server.NewEngine(db, cfg)
	httpSrv := &http.Server{Addr: *addr, Handler: srv}

	// Drain on SIGINT/SIGTERM: stop accepting, cancel in-flight work
	// through the server's base context, then close the store.
	done := make(chan struct{})
	go func() {
		defer close(done)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		fmt.Fprintln(os.Stderr, "mstserve: draining")
		_ = httpSrv.Close()
		srv.Close()
		if err := db.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "mstserve: close store:", err)
		}
	}()

	fmt.Fprintf(os.Stderr, "mstserve: %d trajectories / %d segments on %s\n",
		db.Len(), db.NumSegments(), *addr)
	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "mstserve:", err)
		os.Exit(1)
	}
	<-done
}

// openStore opens the durable store (or builds an in-memory synthetic
// fleet when -synthetic is set), as a single DB or — with -shards > 0 —
// as a sharded cluster.
func openStore(dir, tree string, synthetic int, seed int64, shards int, placement string, ropts shard.Options) (store, error) {
	if shards > 0 {
		return openCluster(dir, tree, synthetic, seed, shards, placement, ropts)
	}
	if dir != "" && synthetic == 0 {
		if _, _, _, _, err := shard.ReadManifest(dir); err == nil {
			// The directory is a cluster: serve it as one even without
			// -shards, rather than opening an empty single store beside
			// the shard directories.
			return openCluster(dir, tree, 0, seed, 0, placement, ropts)
		}
	}
	return openDB(dir, tree, synthetic, seed)
}

// openCluster opens (or synthesizes) a sharded store. An existing cluster
// directory's manifest wins over the flags — including the replica count —
// so reopening never needs the init-time parameters repeated exactly.
func openCluster(dir, tree string, synthetic int, seed int64, shards int, placement string, ropts shard.Options) (*shard.Cluster, error) {
	place, err := shard.PlacementByName(placement)
	if err != nil {
		return nil, err
	}
	if synthetic > 0 {
		c, err := shard.New(parseKind(tree), shards, place, ropts)
		if err != nil {
			return nil, err
		}
		data := gstd.Generate(gstd.Config{
			NumObjects: synthetic, SamplesPerObject: 64, Seed: seed,
		})
		for i := range data.Trajs {
			if err := c.Add(data.Trajs[i]); err != nil {
				return nil, err
			}
		}
		return c, nil
	}
	if dir == "" {
		return nil, fmt.Errorf("need -dir or -synthetic")
	}
	if kind, n, placeName, reps, err := shard.ReadManifest(dir); err == nil {
		// Serve what the directory holds rather than demanding the
		// operator remember cluster-init's flags.
		if place, err = shard.PlacementByName(placeName); err != nil {
			return nil, err
		}
		ropts.Replicas = reps
		return shard.Open(dir, kind, n, place, ropts)
	}
	return shard.Open(dir, parseKind(tree), shards, place, ropts)
}

// openDB opens the durable store, or builds an in-memory synthetic fleet
// when -synthetic is set.
func openDB(dir, tree string, synthetic int, seed int64) (*mstsearch.DB, error) {
	if synthetic > 0 {
		data := gstd.Generate(gstd.Config{
			NumObjects: synthetic, SamplesPerObject: 64, Seed: seed,
		})
		return mstsearch.NewDB(parseKind(tree), data.Trajs)
	}
	if dir == "" {
		return nil, fmt.Errorf("need -dir or -synthetic")
	}
	kind := parseKind(tree)
	db, err := mstsearch.OpenDurable(dir, kind, mstsearch.DurableOptions{})
	if errors.Is(err, mstsearch.ErrSnapshotKind) {
		// The directory is pinned to another index kind; serve what it
		// holds rather than demanding the operator remember the flag.
		for _, k := range mstsearch.IndexKinds() {
			if k == kind {
				continue
			}
			if db, err = mstsearch.OpenDurable(dir, k, mstsearch.DurableOptions{}); err == nil {
				break
			}
		}
	}
	return db, err
}

func parseKind(tree string) mstsearch.IndexKind {
	kind, err := mstsearch.ParseIndexKind(tree)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mstserve: %v\n", err)
		os.Exit(2)
	}
	return kind
}
