package shard

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	mstsearch "mstsearch"
)

// Unit coverage for the replica-set building blocks: write-concern
// arithmetic, the health state machine's transitions, and the write
// path's quorum/divergence semantics. The end-to-end failover and repair
// properties live in the root package's differential suites.

func TestWriteConcernParseAndRequired(t *testing.T) {
	cases := []struct {
		in   string
		want WriteConcern
	}{
		{"all", WriteAll}, {"", WriteAll}, {"ALL", WriteAll},
		{"quorum", WriteQuorum}, {"one", WriteOne},
	}
	for _, c := range cases {
		got, err := ParseWriteConcern(c.in)
		if err != nil || got != c.want {
			t.Fatalf("ParseWriteConcern(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
		if rt, err := ParseWriteConcern(got.String()); err != nil || rt != got {
			t.Fatalf("%v does not round-trip through String: %v, %v", got, rt, err)
		}
	}
	if _, err := ParseWriteConcern("two"); err == nil {
		t.Fatal("unknown concern did not error")
	}
	reqs := []struct {
		w       WriteConcern
		r, want int
	}{
		{WriteAll, 3, 3}, {WriteQuorum, 3, 2}, {WriteQuorum, 2, 2},
		{WriteQuorum, 5, 3}, {WriteOne, 3, 1},
	}
	for _, c := range reqs {
		if got := c.w.required(c.r); got != c.want {
			t.Fatalf("%v.required(%d) = %d, want %d", c.w, c.r, got, c.want)
		}
	}
}

// newTestSet builds an in-memory replica set of r empty DBs.
func newTestSet(t *testing.T, r int) *replicaSet {
	t.Helper()
	dbs := make([]*mstsearch.DB, r)
	for i := range dbs {
		dbs[i] = mstsearch.Open(mstsearch.RTree3D)
	}
	return newReplicaSet(0, dbs, nil)
}

func stateOf(rs *replicaSet, r int) ReplicaState {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.reps[r].state
}

func TestReplicaHealthStateMachine(t *testing.T) {
	rs := newTestSet(t, 2)
	corrupt := fmt.Errorf("read: %w", mstsearch.ErrPageCorrupt{Page: 3})
	transient := fmt.Errorf("read: %w", mstsearch.ErrInjected)
	timeout := fmt.Errorf("search: %w", mstsearch.ErrDeadlineExceeded)

	// A deadline marks suspect but never strikes toward quarantine, no
	// matter how many pile up — a tight caller deadline must not condemn
	// the whole fleet.
	for i := 0; i < 10; i++ {
		rs.observe(0, timeout)
	}
	if got := stateOf(rs, 0); got != ReplicaSuspect {
		t.Fatalf("after timeouts: state %v, want suspect", got)
	}
	// One success heals a suspect.
	rs.observe(0, nil)
	if got := stateOf(rs, 0); got != ReplicaHealthy {
		t.Fatalf("after success: state %v, want healthy", got)
	}
	// Transient faults strike; quarantineStrikes consecutive ones condemn.
	for i := 0; i < quarantineStrikes-1; i++ {
		rs.observe(0, transient)
		if got := stateOf(rs, 0); got != ReplicaSuspect {
			t.Fatalf("strike %d: state %v, want suspect", i+1, got)
		}
	}
	rs.observe(0, transient)
	if got := stateOf(rs, 0); got != ReplicaQuarantined {
		t.Fatalf("after %d strikes: state %v, want quarantined", quarantineStrikes, got)
	}
	// Quarantine is sticky: a straggling success does not re-admit.
	rs.observe(0, nil)
	if got := stateOf(rs, 0); got != ReplicaQuarantined {
		t.Fatalf("success on quarantined replica re-admitted it: %v", got)
	}
	// Corruption condemns in one observation.
	rs.observe(1, corrupt)
	if got := stateOf(rs, 1); got != ReplicaQuarantined {
		t.Fatalf("after corruption: state %v, want quarantined", got)
	}
	// Both replicas out: the rotation is empty and reads are unavailable.
	if err := rs.read(nil, func(*mstsearch.DB) error { return nil }); !errors.Is(err, mstsearch.ErrUnavailable) {
		t.Fatalf("empty rotation read = %v, want ErrUnavailable", err)
	}
	// admit returns a repaired replica to the rotation.
	rs.admit(0, mstsearch.Open(mstsearch.RTree3D))
	if got := stateOf(rs, 0); got != ReplicaHealthy {
		t.Fatalf("after admit: state %v, want healthy", got)
	}
	sts := rs.statuses()
	if sts[0].LastRepair.IsZero() {
		t.Fatal("admit did not stamp LastRepair")
	}
	if sts[1].State != "quarantined" || sts[1].LastError == "" {
		t.Fatalf("status[1] = %+v, want quarantined with LastError", sts[1])
	}
}

func TestReplicaReadFailover(t *testing.T) {
	rs := newTestSet(t, 3)
	db1, db2 := rs.db(1), rs.db(2)
	var prof readProfile
	served := -1
	err := rs.read(&prof, func(db *mstsearch.DB) error {
		switch db {
		case db1:
			served = 1
		case db2:
			served = 2
		default:
			// Preferred replica 0 reports a transient fault; the read
			// must hand off to replica 1.
			return fmt.Errorf("page: %w", mstsearch.ErrInjected)
		}
		return nil
	})
	if err != nil || served != 1 {
		t.Fatalf("failover read: err=%v served=%d, want nil / replica 1", err, served)
	}
	if prof.failovers != 1 || len(prof.events) != 1 {
		t.Fatalf("profile %+v, want exactly one failover event", prof)
	}
	ev := prof.events[0]
	if ev.Kind != mstsearch.EventReplicaFailover || ev.Replica != 1 || ev.Count != 0 {
		t.Fatalf("event %+v, want failover to replica 1 from replica 0", ev)
	}
	// A non-failoverable error (the caller's own deadline) surfaces
	// unchanged without touching a sibling.
	attempts := 0
	err = rs.read(nil, func(db *mstsearch.DB) error {
		attempts++
		return mstsearch.ErrDeadlineExceeded
	})
	if !errors.Is(err, mstsearch.ErrDeadlineExceeded) || attempts != 1 {
		t.Fatalf("deadline read: err=%v attempts=%d, want surfaced after 1 attempt", err, attempts)
	}
}

func TestReplicaWriteQuorumSemantics(t *testing.T) {
	transient := fmt.Errorf("wal: %w", mstsearch.ErrInjected)

	// Partial failure under WriteAll: the write is applied (a sibling
	// holds it), the failed replica is quarantined for divergence, and
	// the quorum miss surfaces as ErrUnavailable.
	rs := newTestSet(t, 2)
	bad := rs.db(1)
	applied, err := rs.write(WriteAll, func(db *mstsearch.DB) error {
		if db == bad {
			return transient
		}
		return nil
	})
	if !applied || !errors.Is(err, mstsearch.ErrUnavailable) {
		t.Fatalf("partial WriteAll: applied=%v err=%v, want applied + ErrUnavailable", applied, err)
	}
	if got := stateOf(rs, 1); got != ReplicaQuarantined {
		t.Fatalf("diverged replica state %v, want quarantined", got)
	}
	if got := stateOf(rs, 0); got != ReplicaHealthy {
		t.Fatalf("acked replica state %v, want healthy", got)
	}

	// Uniform failure: the set stayed consistent, nobody is condemned,
	// and the caller sees the underlying error, not a quorum miss.
	rs = newTestSet(t, 2)
	applied, err = rs.write(WriteAll, func(db *mstsearch.DB) error { return transient })
	if applied || !errors.Is(err, mstsearch.ErrInjected) || errors.Is(err, mstsearch.ErrUnavailable) {
		t.Fatalf("uniform failure: applied=%v err=%v, want not-applied + ErrInjected", applied, err)
	}
	for r := 0; r < 2; r++ {
		if got := stateOf(rs, r); got == ReplicaQuarantined {
			t.Fatalf("uniform failure quarantined replica %d", r)
		}
	}

	// WriteQuorum with the quorum unreachable refuses up front: nothing
	// is applied, so no divergence is ever created.
	rs = newTestSet(t, 3)
	rs.markStale(1, transient)
	rs.markStale(2, transient)
	calls := 0
	applied, err = rs.write(WriteQuorum, func(db *mstsearch.DB) error {
		calls++
		return nil
	})
	if applied || calls != 0 || !errors.Is(err, mstsearch.ErrUnavailable) {
		t.Fatalf("unreachable quorum: applied=%v calls=%d err=%v, want upfront refusal", applied, calls, err)
	}

	// WriteOne succeeds with a single live replica.
	applied, err = rs.write(WriteOne, func(db *mstsearch.DB) error { return nil })
	if !applied || err != nil {
		t.Fatalf("WriteOne on 1 live: applied=%v err=%v", applied, err)
	}

	// WriteAll resolves against the live rotation: with the two
	// quarantined replicas out, one ack is all it takes.
	applied, err = rs.write(WriteAll, func(db *mstsearch.DB) error { return nil })
	if !applied || err != nil {
		t.Fatalf("WriteAll on shrunken rotation: applied=%v err=%v", applied, err)
	}
}

// TestInMemoryRepairReseed pins the in-memory anti-entropy path: a
// quarantined replica of a New cluster is re-seeded by cloning its
// healthy sibling's contents, and re-enters the rotation.
func TestInMemoryRepairReseed(t *testing.T) {
	c, err := New(mstsearch.RTree3D, 2, HashPlacement{}, Options{Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for id := mstsearch.ID(1); id <= 300; id++ {
		tr := mstsearch.Trajectory{ID: id, Samples: []mstsearch.Sample{
			{X: float64(id), Y: 1, T: 0}, {X: float64(id) + 1, Y: 2, T: 1},
		}}
		if err := c.Add(tr); err != nil {
			t.Fatal(err)
		}
	}
	var events []mstsearch.TraceEvent
	c.opts.OnRepairEvent = func(ev mstsearch.TraceEvent) { events = append(events, ev) }

	c.sets[0].markStale(0, fmt.Errorf("test quarantine"))
	repaired, err := c.RepairNow(context.Background())
	if err != nil || repaired != 1 {
		t.Fatalf("RepairNow = %d, %v; want 1 repair", repaired, err)
	}
	if len(events) != 1 || events[0].Kind != mstsearch.EventReplicaRepair ||
		events[0].Shard != 0 || events[0].Replica != 0 {
		t.Fatalf("repair events %+v, want one EventReplicaRepair for shard 0 replica 0", events)
	}
	// The re-seeded replica holds exactly its sibling's trajectories.
	a, b := c.Replica(0, 0), c.Replica(0, 1)
	if a.Len() != b.Len() || a.NumSegments() != b.NumSegments() {
		t.Fatalf("re-seeded replica (%d trajs, %d segs) != sibling (%d, %d)",
			a.Len(), a.NumSegments(), b.Len(), b.NumSegments())
	}
	for _, st := range c.ReplicaStatuses() {
		if st.State != "healthy" {
			t.Fatalf("after repair, replica %+v not healthy", st)
		}
	}
	// Nothing left to repair: a second sweep is a no-op.
	if repaired, err := c.RepairNow(context.Background()); err != nil || repaired != 0 {
		t.Fatalf("idle RepairNow = %d, %v; want 0, nil", repaired, err)
	}
}

// TestReplicaRepairKeepsWarmBufferInMemory: a replica the in-memory
// repair path re-seeds reads through a warm pool, like every replica.
func TestReplicaRepairKeepsWarmBufferInMemory(t *testing.T) {
	c, err := New(mstsearch.RTree3D, 1, HashPlacement{}, Options{Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	checkRepairKeepsWarmBuffer(t, c)
}

// TestReplicaRepairKeepsWarmBufferDurable is the same property on the
// durable repair path, which re-seeds through CloneDurable.
func TestReplicaRepairKeepsWarmBufferDurable(t *testing.T) {
	c, err := Open(t.TempDir(), mstsearch.RTree3D, 1, HashPlacement{}, Options{Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	checkRepairKeepsWarmBuffer(t, c)
}

// checkRepairKeepsWarmBuffer loads a one-shard, two-replica cluster and
// runs one query twice on replica 0, before and after that replica is
// quarantined and repaired. A warm pool serves part of the repeat from
// the frames the first run cached; a cold pool would read exactly the
// same pages again.
func checkRepairKeepsWarmBuffer(t *testing.T, c *Cluster) {
	t.Helper()
	rng := rand.New(rand.NewSource(35))
	for id := mstsearch.ID(1); id <= 120; id++ {
		x, y := rng.Float64()*100, rng.Float64()*100
		samples := make([]mstsearch.Sample, 40)
		for s := range samples {
			x, y = x+rng.Float64()*2-1, y+rng.Float64()*2-1
			samples[s] = mstsearch.Sample{X: x, Y: y, T: float64(s)}
		}
		if err := c.Add(mstsearch.Trajectory{ID: id, Samples: samples}); err != nil {
			t.Fatal(err)
		}
	}
	q := c.Replica(0, 1).Get(7)
	check := func(when string) {
		var reads [2]uint64
		for i := range reads {
			resp, err := c.Replica(0, 0).Query(context.Background(), mstsearch.Request{Q: q, Interval: mstsearch.Interval{T1: 10, T2: 20}, K: 3})
			if err != nil {
				t.Fatal(err)
			}
			st := resp.Stats
			reads[i] = st.PageReads
		}
		if reads[1] >= reads[0] {
			t.Fatalf("%s: a repeated query read %d pages after %d; want fewer (warm pool)", when, reads[1], reads[0])
		}
	}
	check("before repair")
	c.sets[0].markStale(0, fmt.Errorf("test quarantine"))
	if repaired, err := c.RepairNow(context.Background()); err != nil || repaired != 1 {
		t.Fatalf("RepairNow = %d, %v; want 1 repair", repaired, err)
	}
	check("after repair")
}
