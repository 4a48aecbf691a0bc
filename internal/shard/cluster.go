// Package shard partitions a trajectory store horizontally across N
// independent DB shards and answers k-MST queries by scatter-gather: every
// shard runs the paper's best-first search over its own index, and the
// coordinator merges the per-shard k-buffers into a global top-k — pruning
// whole shards with the same certified OPTDISSIM lower bounds the search
// uses inside one tree (Frentzos et al., §4.2, lifted to the root MBB).
//
// # Correctness model
//
// Each trajectory lives on exactly one shard (a pure placement function of
// the trajectory), so the global candidate set is the disjoint union of
// the shards'. A shard's root-MBB lower bound holds for every trajectory
// it stores; a shard is skipped only when that bound strictly exceeds the
// k-th smallest DISSIM over already-collected results (or is +Inf —
// provably no covering trajectory). Every shard answers with exact values,
// so merged results, order, and Certified flags are bit-identical to
// running the same query on one DB holding all trajectories — the property
// the differential suite enforces at every shard count and placement.
//
// # Replication
//
// With Options.Replicas = R > 1 every shard is a replica set of R
// independently durable DBs holding identical content (replica.go).
// Mutations apply to every rotation member and ack at Options.
// WriteConcern; reads serve from the preferred healthy replica and fail
// over to a sibling mid-scatter on replica-attributable errors, keeping
// merged responses bit-identical to the single-DB oracle while replicas
// die; a background anti-entropy loop (repair.go) re-seeds quarantined
// replicas from a healthy sibling. R = 1 (the default) is the PR 8
// single-DB-per-shard cluster, bit- and layout-compatible.
//
// # Durability
//
// A durable cluster (Open) gives each shard its own subdirectory with its
// own WAL and checkpoints — shards fail and recover as independent units —
// plus an atomically written cluster manifest pinning (kind, shard count,
// placement, replicas) so a directory cannot silently reopen under a
// different partitioning. With R > 1 each replica journals into its own
// dir/shard-<i>/replica-<r> subdirectory, so replicas fail and recover
// independently too; on reopen the fullest replica of each shard is
// authoritative and lagging siblings are quarantined for re-seeding.
package shard

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	mstsearch "mstsearch"
)

// Options tunes a cluster; the zero value is sensible.
type Options struct {
	// Workers bounds how many shards one Query searches concurrently
	// (<= 0: min(GOMAXPROCS, shard count)). The wave schedule — and with
	// it the exact pruned-shard count — is deterministic for a fixed
	// Workers value.
	Workers int

	// Replicas is the replica count per shard (<= 0 or 1: one DB per
	// shard, the unreplicated PR 8 layout).
	Replicas int
	// WriteConcern is the replica ack threshold for mutations (default
	// WriteAll). Ignored when Replicas <= 1 effectively (a single
	// replica always needs its own ack).
	WriteConcern WriteConcern
	// HedgeAfter, when > 0, launches a k-MST read on a sibling replica
	// once the preferred replica has been searching for this long, and
	// takes the first answer — tail-latency insurance that never changes
	// results (rotation members hold identical content). Off by default.
	HedgeAfter time.Duration
	// RepairInterval, when > 0, runs the background anti-entropy loop at
	// this period, re-seeding quarantined replicas from healthy siblings
	// (see Cluster.RepairNow). Off by default; Close stops it.
	RepairInterval time.Duration
	// OnRepairEvent, when non-nil, observes every EventReplicaRepair the
	// repair loop emits (repairs happen outside any query, so they have
	// no query trace to ride). Called with the cluster lock held; keep it
	// fast.
	OnRepairEvent func(mstsearch.TraceEvent)

	// Durable configures every replica's WAL/checkpoint behaviour on a
	// durable cluster (Open); ignored by New.
	Durable mstsearch.DurableOptions
	// ShardDurable, when non-nil, overrides Durable for every replica of
	// individual shards — the seam the crash tests use to aim a
	// PowercutBudget at one shard's log while its siblings stay healthy.
	ShardDurable func(shard int) mstsearch.DurableOptions
	// ReplicaDurable, when non-nil, overrides both for individual
	// replicas — the finer seam the replica crash tests aim at one
	// replica's log (including the fresh WAL a repair re-seed opens).
	ReplicaDurable func(shard, replica int) mstsearch.DurableOptions
}

// replicas resolves the effective replica count.
func (o Options) replicas() int {
	if o.Replicas < 1 {
		return 1
	}
	return o.Replicas
}

// Cluster is a horizontally sharded trajectory store. Create with New
// (in-memory) or Open (durable); a Cluster is safe for concurrent use with
// the same locking contract as a single DB — queries run in parallel and
// serialize against mutations.
type Cluster struct {
	// Immutable after New/Open: the replica-set slice, placement, and
	// options never change, so reads need no lock — each set carries its
	// own health lock and each replica DB its own DB.mu.
	sets  []*replicaSet
	place Placement
	kind  mstsearch.IndexKind
	opts  Options
	root  string // durable cluster directory ("" = in-memory)

	// Repair-loop plumbing, set once before the cluster is shared.
	repairCancel context.CancelFunc
	repairDone   chan struct{}
	stopRepair   sync.Once

	// mu guards the routing table and gives queries a cluster-wide
	// snapshot against mutations. It orders the cluster above its
	// shards: every path takes it before any replica-set or shard lock,
	// and no shard method ever calls back into the cluster.
	mu  sync.RWMutex         // lockrank: 5 — held before replicaSet.mu (8) and any shard DB.mu (10)
	dir map[mstsearch.ID]int // trajectory → owning shard
}

// New creates an in-memory cluster of n shards under the placement policy.
func New(kind mstsearch.IndexKind, n int, place Placement, opts Options) (*Cluster, error) {
	if n < 1 {
		return nil, fmt.Errorf("shard: cluster needs at least 1 shard, got %d", n)
	}
	if place == nil {
		place = HashPlacement{}
	}
	c := &Cluster{
		sets:  make([]*replicaSet, n),
		place: place,
		kind:  kind,
		opts:  opts,
		dir:   make(map[mstsearch.ID]int),
	}
	r := opts.replicas()
	for i := range c.sets {
		dbs := make([]*mstsearch.DB, r)
		for j := range dbs {
			dbs[j] = mstsearch.Open(kind)
		}
		c.sets[i] = newReplicaSet(i, dbs, nil)
	}
	if opts.RepairInterval > 0 {
		c.startRepairLoop(opts.RepairInterval)
	}
	return c, nil
}

// Open opens (or creates) a durable cluster in dir: shard i journals into
// dir/shard-<i> with its own WAL and checkpoints (see mstsearch.
// OpenDurable) — each replica into dir/shard-<i>/replica-<r> when
// Options.Replicas > 1 — and dir/cluster.json pins (kind, n, placement,
// replicas) so a later Open with different parameters fails with
// ErrManifestMismatch instead of scattering new writes under a different
// partitioning. Recovery is per-replica — each replays its own log — and
// the routing table is re-derived from each shard's authoritative (most
// complete) replica. A replica whose directory is damaged (torn
// mid-log, corrupt snapshot) opens quarantined instead of failing the
// cluster, as long as one replica of its shard survives; lagging
// replicas are quarantined the same way and both wait for repair.
func Open(dir string, kind mstsearch.IndexKind, n int, place Placement, opts Options) (*Cluster, error) {
	if n < 1 {
		return nil, fmt.Errorf("shard: cluster needs at least 1 shard, got %d", n)
	}
	if place == nil {
		place = HashPlacement{}
	}
	r := opts.replicas()
	if err := checkManifest(dir, kind, n, place.Name(), r); err != nil {
		return nil, err
	}
	c := &Cluster{
		sets:  make([]*replicaSet, n),
		place: place,
		kind:  kind,
		opts:  opts,
		root:  dir,
		dir:   make(map[mstsearch.ID]int),
	}
	fail := func(err error) (*Cluster, error) {
		for _, rs := range c.sets {
			if rs == nil {
				continue
			}
			for _, rep := range rs.reps {
				if rep.db != nil {
					rep.db.Close()
				}
			}
		}
		return nil, err
	}
	for i := range c.sets {
		dbs := make([]*mstsearch.DB, r)
		openErrs := make([]error, r)
		opened := 0
		for j := 0; j < r; j++ {
			db, err := mstsearch.OpenDurable(c.replicaPath(i, j), kind, c.replicaDurable(i, j))
			if err != nil {
				// Damage or a storage fault in one replica's directory
				// quarantines the replica (repair re-seeds it); anything
				// not replica-attributable (a config mismatch, a plain
				// I/O failure) fails the open — as does any error when
				// this is the only copy, checked below.
				if r > 1 && classify(err) >= obsStrike {
					openErrs[j] = err
					continue
				}
				return fail(fmt.Errorf("shard %d replica %d: %w", i, j, err))
			}
			dbs[j] = db
			opened++
		}
		if opened == 0 {
			return fail(fmt.Errorf("shard %d: every replica failed to open, first: %w", i, firstError(openErrs)))
		}
		c.sets[i] = newReplicaSet(i, dbs, openErrs)

		// Authoritative replica: under the prefix-loss crash model every
		// surviving replica holds a prefix of the acknowledged mutations,
		// so the fullest one is authoritative. Lagging siblings leave the
		// rotation until the repair loop re-seeds them.
		auth, authTrajs, authSegs := -1, -1, -1
		for j, db := range dbs {
			if db == nil {
				continue
			}
			trajs, segs := db.Len(), db.NumSegments()
			if trajs > authTrajs || (trajs == authTrajs && segs > authSegs) {
				auth, authTrajs, authSegs = j, trajs, segs
			}
		}
		for j, db := range dbs {
			if db == nil || j == auth {
				continue
			}
			if db.Len() != authTrajs || db.NumSegments() != authSegs {
				c.sets[i].markStale(j, fmt.Errorf("mstsearch: replica lags authoritative sibling %d (%d/%d trajectories, %d/%d segments)",
					auth, db.Len(), authTrajs, db.NumSegments(), authSegs))
			}
		}
		// Quarantine ordering matters for the rotation: auth must end up
		// preferred. markStale above removes every non-matching lower
		// index, so pick() now lands on auth (or an identical twin, which
		// is just as good).
		for _, id := range dbs[auth].IDs() {
			if prev, dup := c.dir[id]; dup {
				return fail(fmt.Errorf("%w: trajectory %d recovered on shards %d and %d", mstsearch.ErrDuplicateID, id, prev, i))
			}
			c.dir[id] = i
		}
	}
	if opts.RepairInterval > 0 {
		c.startRepairLoop(opts.RepairInterval)
	}
	return c, nil
}

// shardDirName is shard i's subdirectory under the cluster root.
func shardDirName(i int) string { return fmt.Sprintf("shard-%03d", i) }

// replicaDirName is replica r's subdirectory under its shard (replicated
// layouts only).
func replicaDirName(r int) string { return fmt.Sprintf("replica-%d", r) }

// replicaPath is the durable directory of (shard i, replica r). An
// unreplicated cluster keeps the flat PR 8 layout, so existing
// directories reopen unchanged.
func (c *Cluster) replicaPath(i, r int) string {
	if c.opts.replicas() == 1 {
		return filepath.Join(c.root, shardDirName(i))
	}
	return filepath.Join(c.root, shardDirName(i), replicaDirName(r))
}

// replicaDurable resolves the durable options for (shard i, replica r):
// ReplicaDurable wins over ShardDurable wins over Durable.
func (c *Cluster) replicaDurable(i, r int) mstsearch.DurableOptions {
	if c.opts.ReplicaDurable != nil {
		return c.opts.ReplicaDurable(i, r)
	}
	if c.opts.ShardDurable != nil {
		return c.opts.ShardDurable(i)
	}
	return c.opts.Durable
}

// NumShards returns the shard count.
func (c *Cluster) NumShards() int { return len(c.sets) }

// NumReplicas returns the configured replicas per shard.
func (c *Cluster) NumReplicas() int { return c.opts.replicas() }

// Shard exposes one shard's preferred (serving) replica DB — the seam
// tests use to aim fault injection (SetPagerWrapper) or direct inspection
// at a single shard. Routing through the returned DB directly bypasses
// the cluster's routing table; mutate through the Cluster instead. Nil
// only when the whole replica set is quarantined.
func (c *Cluster) Shard(i int) *mstsearch.DB {
	_, db := c.sets[i].preferred()
	return db
}

// Replica exposes one specific replica's DB (nil when the replica failed
// to open and awaits repair) — the finer seam replica tests aim faults
// with.
func (c *Cluster) Replica(i, r int) *mstsearch.DB { return c.sets[i].db(r) }

// ReplicaStatuses reports every replica's health, shard-major — the
// /healthz and `mststore cluster-info` surface.
func (c *Cluster) ReplicaStatuses() []mstsearch.ReplicaStatus {
	var out []mstsearch.ReplicaStatus
	for _, rs := range c.sets {
		out = append(out, rs.statuses()...)
	}
	return out
}

// Placement returns the cluster's placement policy.
func (c *Cluster) Placement() Placement { return c.place }

// Kind returns the index structure backing every shard.
func (c *Cluster) Kind() mstsearch.IndexKind { return c.kind }

// Add validates and stores one trajectory on its placement-assigned shard.
// On a durable cluster every rotation replica journals (and, under
// SyncAlways, fsyncs) the trajectory before applying it; the write acks at
// Options.WriteConcern. Duplicate IDs are refused cluster-wide, not just
// per shard.
func (c *Cluster) Add(tr mstsearch.Trajectory) error {
	if err := tr.Validate(); err != nil {
		return fmt.Errorf("mstsearch: %w", err)
	}
	target := c.place.Shard(&tr, len(c.sets))
	if target < 0 || target >= len(c.sets) {
		return fmt.Errorf("shard: placement %s routed trajectory %d to shard %d of %d", c.place.Name(), tr.ID, target, len(c.sets))
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if prev, dup := c.dir[tr.ID]; dup {
		return fmt.Errorf("%w: %d (on shard %d)", mstsearch.ErrDuplicateID, tr.ID, prev)
	}
	applied, err := c.sets[target].write(c.opts.WriteConcern, func(db *mstsearch.DB) error {
		return db.Add(tr)
	})
	if applied {
		// The rotation holds the trajectory even when the quorum was
		// missed (the failed replicas are quarantined, the acked ones
		// serve) — the routing table mirrors shard contents, always.
		c.dir[tr.ID] = target
		metMutations.Inc()
	}
	return err
}

// AppendSample extends a stored trajectory on its owning shard (the
// online maintenance path, journaled on a durable cluster), acking at
// Options.WriteConcern.
func (c *Cluster) AppendSample(id mstsearch.ID, s mstsearch.Sample) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	i, ok := c.dir[id]
	if !ok {
		return fmt.Errorf("mstsearch: unknown trajectory %d", id)
	}
	applied, err := c.sets[i].write(c.opts.WriteConcern, func(db *mstsearch.DB) error {
		return db.AppendSample(id, s)
	})
	if applied {
		metMutations.Inc()
	}
	return err
}

// Get returns a snapshot of a stored trajectory, or nil.
func (c *Cluster) Get(id mstsearch.ID) *mstsearch.Trajectory {
	c.mu.RLock()
	i, ok := c.dir[id]
	c.mu.RUnlock()
	if !ok {
		return nil
	}
	_, db := c.sets[i].preferred()
	if db == nil {
		return nil
	}
	return db.Get(id)
}

// Owner returns the shard holding id, or -1.
func (c *Cluster) Owner(id mstsearch.ID) int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	i, ok := c.dir[id]
	if !ok {
		return -1
	}
	return i
}

// Len returns the number of stored trajectories across all shards.
func (c *Cluster) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.dir)
}

// NumSegments returns the total indexed segment count across all shards
// (each shard counted once, via its preferred replica).
func (c *Cluster) NumSegments() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	n := 0
	for _, rs := range c.sets {
		if _, db := rs.preferred(); db != nil {
			n += db.NumSegments()
		}
	}
	return n
}

// EnableWarmBuffer does nothing: every replica's DB reads through its own
// shared buffer pool from the moment it is built, repaired replicas
// included.
//
// Deprecated: the pool is always on; remove the call.
func (c *Cluster) EnableWarmBuffer() {}

// Checkpoint folds every replica's WAL into a fresh snapshot (durable
// clusters only; see mstsearch.DB.Checkpoint).
func (c *Cluster) Checkpoint() error {
	return c.CheckpointContext(context.Background())
}

// CheckpointContext checkpoints every rotation replica under the context,
// stopping at the first failure. Replicas checkpoint independently: a
// failure leaves the earlier ones checkpointed and the later ones
// recoverable from their old snapshot + log, exactly as a single DB's
// aborted checkpoint does. Quarantined replicas are skipped — the repair
// re-seed rewrites their directory wholesale anyway.
func (c *Cluster) CheckpointContext(ctx context.Context) error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for i, rs := range c.sets {
		for _, r := range rs.live() {
			db := rs.db(r)
			if db == nil {
				continue
			}
			if err := db.CheckpointContext(ctx); err != nil {
				return fmt.Errorf("shard %d replica %d: %w", i, r, err)
			}
		}
	}
	return nil
}

// Close stops the repair loop, then flushes and releases every replica's
// log; the first error wins but every replica is closed. Safe on an
// in-memory cluster (no-op logs) and idempotent.
func (c *Cluster) Close() error {
	c.stopRepairLoop()
	c.mu.Lock()
	defer c.mu.Unlock()
	var first error
	for i, rs := range c.sets {
		for r := range rs.reps {
			db := rs.db(r)
			if db == nil {
				continue
			}
			if err := db.Close(); err != nil && first == nil {
				first = fmt.Errorf("shard %d replica %d: %w", i, r, err)
			}
		}
	}
	return first
}

// emitProfiles folds the failover/hedge profiles of one concurrent stage
// into the trace (in deterministic shard order) and returns the totals.
func (c *Cluster) emitProfiles(req mstsearch.Request, csum *mstsearch.TraceSummary, profs []readProfile) (failovers, hedges int) {
	for i := range profs {
		for _, ev := range profs[i].events {
			c.emit(req, csum, ev)
		}
		failovers += profs[i].failovers
		hedges += profs[i].hedges
	}
	return failovers, hedges
}
