package shard

import (
	"context"
	"fmt"
	"os"
	"time"

	mstsearch "mstsearch"
	"mstsearch/internal/mst"
)

// Anti-entropy repair: a quarantined replica re-enters the read rotation
// by being re-seeded wholesale from a healthy sibling. On a durable
// cluster the re-seed is the PR 5 checkpoint machinery pointed across
// replicas — the sibling writes an atomic snapshot (epoch 1) into the
// quarantined replica's wiped directory and a fresh WAL opens on top —
// so a crash mid-repair leaves a directory the ordinary recovery state
// machine handles: either nothing (still quarantined next open) or a
// complete snapshot plus a possibly-torn log (recovers to a prefix and
// is re-seeded again if stale). Each replica repairs under the cluster
// write lock, so reads never observe a half-seeded replica; the lock is
// released between replicas to let queries interleave.

// RepairNow re-seeds every quarantined replica that has a healthy
// sibling to copy from, returning how many replicas re-entered the
// rotation. Replicas whose whole set is quarantined are skipped (nothing
// authoritative to copy). The context is honored between replicas; the
// first re-seed failure is reported after the sweep finishes (the
// replica stays quarantined and a later sweep retries).
func (c *Cluster) RepairNow(ctx context.Context) (int, error) {
	repaired := 0
	var firstErr error
	for i, rs := range c.sets {
		for _, r := range rs.quarantined() {
			if err := ctx.Err(); err != nil {
				return repaired, err
			}
			src, err := c.repairReplica(i, r)
			if err != nil {
				if firstErr == nil {
					firstErr = fmt.Errorf("shard %d replica %d: %w", i, r, err)
				}
				continue
			}
			if src < 0 { // no healthy sibling: unrepairable for now
				continue
			}
			repaired++
			metRepairs.Inc()
			if c.opts.OnRepairEvent != nil {
				c.opts.OnRepairEvent(mst.TraceEvent{
					Kind: mstsearch.EventReplicaRepair, Shard: i,
					Replica: r, Count: src,
				})
			}
		}
	}
	return repaired, firstErr
}

// repairReplica re-seeds one quarantined replica of shard i under the
// cluster write lock. It returns the source replica index (-1 when no
// healthy sibling exists).
func (c *Cluster) repairReplica(i, r int) (src int, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	rs := c.sets[i]
	// Re-check under the lock: a concurrent RepairNow may have beaten us.
	stillQuarantined := false
	for _, q := range rs.quarantined() {
		if q == r {
			stillQuarantined = true
		}
	}
	if !stillQuarantined {
		return -1, nil
	}
	src, srcDB := rs.preferred()
	if src < 0 {
		return -1, nil
	}

	var fresh *mstsearch.DB
	if c.root == "" {
		// In-memory re-seed: clone the sibling's trajectories into a
		// fresh index of the same kind, in the sibling's storage order.
		fresh = mstsearch.Open(c.kind)
		for _, id := range srcDB.IDs() {
			tr := srcDB.Get(id)
			if tr == nil {
				continue
			}
			if err := fresh.Add(*tr); err != nil {
				return src, err
			}
		}
	} else {
		// Durable re-seed: wipe the replica's directory and let the
		// sibling seed it with an atomic snapshot + fresh WAL. Close the
		// old handle first; its error is irrelevant (the directory is
		// about to go).
		if old := rs.db(r); old != nil {
			_ = old.Close()
		}
		dir := c.replicaPath(i, r)
		if err := os.RemoveAll(dir); err != nil {
			return src, err
		}
		if fresh, err = srcDB.CloneDurable(dir, c.replicaDurable(i, r)); err != nil {
			// The replica stays quarantined with a dead handle; a later
			// sweep (or the next Open) retries from whatever the failed
			// clone left behind.
			rs.mu.Lock()
			rs.reps[r].db = nil
			rs.reps[r].lastErr = err
			rs.mu.Unlock()
			return src, err
		}
	}
	rs.admit(r, fresh)
	return src, nil
}

// startRepairLoop launches the background anti-entropy sweep. Close
// stops it.
func (c *Cluster) startRepairLoop(interval time.Duration) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	c.repairCancel = cancel
	c.repairDone = done
	go func() {
		defer close(done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				// Sweep errors stay in the replicas' status (lastErr);
				// the next tick retries.
				_, _ = c.RepairNow(ctx)
			}
		}
	}()
}

// stopRepairLoop stops the background sweep and waits for it to exit.
// Idempotent and safe without the cluster lock (the fields are set once
// before the cluster is shared).
func (c *Cluster) stopRepairLoop() {
	c.stopRepair.Do(func() {
		if c.repairCancel != nil {
			c.repairCancel()
			<-c.repairDone
		}
	})
}
