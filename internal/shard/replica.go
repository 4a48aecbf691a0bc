package shard

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	mstsearch "mstsearch"
	"mstsearch/internal/index"
	"mstsearch/internal/mst"
)

// Each shard of a replicated cluster is a replica set: R independently
// durable DBs holding identical content. Writes apply to every replica in
// the read rotation and ack at a configurable quorum; reads pick the
// preferred (lowest-index healthy) replica and fail over to a sibling on
// replica-attributable errors; a per-replica health state machine
// (healthy → suspect → quarantined) decides who is in the rotation, and
// the anti-entropy loop (repair.go) re-seeds quarantined replicas from a
// healthy sibling.
//
// # Consistency model
//
// The invariant the failover merge relies on is that every replica in the
// read rotation holds the same logical content. It is maintained by
// construction: a mutation is applied to every in-rotation replica, and a
// replica that fails a mutation its sibling applied has diverged and is
// quarantined on the spot — it re-enters the rotation only through a
// repair re-seed, which copies a sibling's snapshot wholesale. A mutation
// that fails on *every* replica left the set consistent (uniformly
// rejected), so nobody is quarantined and the error surfaces to the
// caller. Under that invariant a failover read returns bit-identical
// results from any rotation member, which is what keeps merged cluster
// responses equal to the single-DB oracle even while replicas die
// mid-scatter.

// WriteConcern selects how many replica acknowledgements a mutation needs
// before the cluster acknowledges it to the caller.
type WriteConcern int

const (
	// WriteAll (the default) requires every replica currently in the
	// read rotation to ack. Strongest: a quarantined replica is already
	// out of the rotation, so repair work never blocks writes.
	WriteAll WriteConcern = iota
	// WriteQuorum requires a majority of the configured replica count
	// (R/2 + 1).
	WriteQuorum
	// WriteOne requires a single ack.
	WriteOne
)

// String names the concern (round-trips through ParseWriteConcern).
func (w WriteConcern) String() string {
	switch w {
	case WriteQuorum:
		return "quorum"
	case WriteOne:
		return "one"
	default:
		return "all"
	}
}

// ParseWriteConcern parses a concern name: "all", "quorum", or "one".
func ParseWriteConcern(s string) (WriteConcern, error) {
	switch strings.ToLower(s) {
	case "all", "":
		return WriteAll, nil
	case "quorum":
		return WriteQuorum, nil
	case "one":
		return WriteOne, nil
	}
	return 0, fmt.Errorf("shard: unknown write concern %q (want all, quorum, or one)", s)
}

// required is the ack threshold for a set of r replicas. WriteAll is
// resolved against the live rotation at write time, so it reports r here.
func (w WriteConcern) required(r int) int {
	switch w {
	case WriteQuorum:
		return r/2 + 1
	case WriteOne:
		return 1
	default:
		return r
	}
}

// ReplicaState is one replica's position in the health state machine.
type ReplicaState int

const (
	// ReplicaHealthy: in the read rotation, preferred in index order.
	ReplicaHealthy ReplicaState = iota
	// ReplicaSuspect: still in the rotation, but its last observation was
	// a transient fault or a timeout; repeated transient faults escalate
	// to quarantine, one success returns it to healthy.
	ReplicaSuspect
	// ReplicaQuarantined: out of the rotation — durable-state damage, a
	// missed mutation, or repeated transient faults. Only a repair
	// re-seed re-admits it.
	ReplicaQuarantined
)

// String names the state.
func (s ReplicaState) String() string {
	switch s {
	case ReplicaSuspect:
		return "suspect"
	case ReplicaQuarantined:
		return "quarantined"
	default:
		return "healthy"
	}
}

// quarantineStrikes is how many consecutive transient-fault observations
// move a suspect replica into quarantine.
const quarantineStrikes = 3

// Observation classes of the health state machine, from harmless to
// fatal. classify maps a typed error onto one.
const (
	// obsNone: not attributable to the replica (nil, a validation error,
	// the caller's own cancellation). A nil observation heals a suspect.
	obsNone = iota
	// obsSuspect: a deadline expired while this replica served. A wedged
	// replica looks exactly like this, but so does an aggressive caller
	// deadline hitting every replica equally — so the observation marks
	// suspect without striking toward quarantine, avoiding a cluster-wide
	// death spiral under tight-deadline load.
	obsSuspect
	// obsStrike: a transient storage fault (ErrInjected). Marks suspect
	// and strikes; quarantineStrikes consecutive ones quarantine.
	obsStrike
	// obsFatal: durable-state damage (page/WAL/snapshot corruption).
	// Quarantines immediately — the bytes are wrong, retries cannot help.
	obsFatal
)

// classify maps an error from a replica operation onto its observation
// class.
func classify(err error) int {
	switch {
	case err == nil:
		return obsNone
	case errors.Is(err, mstsearch.ErrPageCorrupt{}) ||
		errors.Is(err, mstsearch.ErrWALCorrupt) ||
		errors.Is(err, mstsearch.ErrBadSnapshot) ||
		errors.Is(err, mstsearch.ErrSnapshotCRC) ||
		errors.Is(err, index.ErrCorruptNode):
		return obsFatal
	case errors.Is(err, mstsearch.ErrInjected):
		return obsStrike
	case errors.Is(err, mstsearch.ErrDeadlineExceeded):
		return obsSuspect
	}
	return obsNone
}

// failoverable reports whether a read error is worth retrying on a
// sibling replica: transient and fatal replica faults are; a deadline is
// not (the request's budget is spent — a sibling would time out too),
// and errors that are not the replica's fault surface unchanged.
func failoverable(err error) bool {
	c := classify(err)
	return c == obsStrike || c == obsFatal
}

// replica is one member of a set.
type replica struct {
	// db is nil when the replica failed to open (quarantined until the
	// repair loop re-seeds its directory).
	db         *mstsearch.DB
	state      ReplicaState
	strikes    int
	lastErr    error
	lastRepair time.Time
}

// replicaSet is one shard's replicas plus their health book-keeping. The
// DB pointers and health fields are guarded by mu; mu is a leaf taken
// after the cluster lock and never held across a DB call, so replica
// operations (searches, journaled writes) run outside it.
type replicaSet struct {
	shard int
	n     int // replica count; set once at construction

	mu   sync.Mutex // lockrank: 8 — after Cluster.mu (5), never held across DB.mu (10)
	reps []*replica
}

// newReplicaSet wraps freshly opened replica DBs; a nil DB enters
// quarantined (failed to open) with the given error.
func newReplicaSet(shard int, dbs []*mstsearch.DB, openErrs []error) *replicaSet {
	rs := &replicaSet{shard: shard, n: len(dbs), reps: make([]*replica, len(dbs))}
	for i, db := range dbs {
		rep := &replica{db: db}
		if db == nil {
			rep.state = ReplicaQuarantined
			if openErrs != nil {
				rep.lastErr = openErrs[i]
			}
			metQuarantines.Inc()
		}
		rs.reps[i] = rep
	}
	return rs
}

// quarantineLocked moves replica r out of the rotation. Callers must
// hold rs.mu.
func (rs *replicaSet) quarantineLocked(r int, err error) {
	rep := rs.reps[r]
	if rep.state != ReplicaQuarantined {
		rep.state = ReplicaQuarantined
		metQuarantines.Inc()
	}
	rep.lastErr = err
}

// markStale quarantines replica r as lagging its authoritative sibling —
// the reopen-after-crash path, where a replica that lost an unsynced
// suffix must not serve reads until re-seeded.
func (rs *replicaSet) markStale(r int, err error) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	rs.quarantineLocked(r, err)
}

// observe feeds one operation outcome on replica r into the state
// machine.
func (rs *replicaSet) observe(r int, err error) {
	class := classify(err)
	rs.mu.Lock()
	defer rs.mu.Unlock()
	rep := rs.reps[r]
	if rep.state == ReplicaQuarantined {
		// Re-admission goes through repair only; a straggling success
		// (or further failure) from an already-condemned replica is moot.
		return
	}
	switch class {
	case obsNone:
		if err == nil && rep.state == ReplicaSuspect {
			rep.state = ReplicaHealthy
			rep.strikes = 0
			rep.lastErr = nil
		}
	case obsSuspect:
		rep.state = ReplicaSuspect
		rep.lastErr = err
	case obsStrike:
		rep.state = ReplicaSuspect
		rep.lastErr = err
		rep.strikes++
		if rep.strikes >= quarantineStrikes {
			rs.quarantineLocked(r, err)
		}
	case obsFatal:
		rs.quarantineLocked(r, err)
	}
}

// pick returns the preferred readable replica — lowest index in the
// rotation, skipping skip — or -1.
func (rs *replicaSet) pick(skip []bool) (int, *mstsearch.DB) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	for i, rep := range rs.reps {
		if rep.state != ReplicaQuarantined && rep.db != nil && (skip == nil || !skip[i]) {
			return i, rep.db
		}
	}
	return -1, nil
}

// preferred is pick with no exclusions: the replica reads start on.
func (rs *replicaSet) preferred() (int, *mstsearch.DB) { return rs.pick(nil) }

// live returns the rotation members' indexes.
func (rs *replicaSet) live() []int {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	var out []int
	for i, rep := range rs.reps {
		if rep.state != ReplicaQuarantined && rep.db != nil {
			out = append(out, i)
		}
	}
	return out
}

// db returns replica r's DB (nil if it failed to open).
func (rs *replicaSet) db(r int) *mstsearch.DB {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.reps[r].db
}

// unavailable is the error for a shard whose whole rotation is empty.
func (rs *replicaSet) unavailable() error {
	return fmt.Errorf("shard %d: %w", rs.shard, mstsearch.ErrUnavailable)
}

// readProfile collects what one failover read did, so the coordinator
// can emit deterministic trace events and stats after a concurrent wave
// joins. It is owned by a single read call — no locking.
type readProfile struct {
	failovers int
	hedges    int
	events    []mst.TraceEvent
}

// read runs fn against the preferred replica, failing over to siblings on
// replica-attributable errors and recording hand-offs in prof (which may
// be nil). The returned error is the last attempt's; when the rotation is
// empty it is ErrUnavailable.
func (rs *replicaSet) read(prof *readProfile, fn func(db *mstsearch.DB) error) error {
	skip := make([]bool, rs.n)
	r, db := rs.pick(skip)
	if r < 0 {
		return rs.unavailable()
	}
	for {
		err := fn(db)
		rs.observe(r, err)
		if err == nil || !failoverable(err) {
			return err
		}
		skip[r] = true
		nr, ndb := rs.pick(skip)
		if nr < 0 {
			return err
		}
		metFailovers.Inc()
		if prof != nil {
			prof.failovers++
			prof.events = append(prof.events, mst.TraceEvent{
				Kind: mstsearch.EventReplicaFailover, Shard: rs.shard,
				Replica: nr, Count: r,
			})
		}
		r, db = nr, ndb
	}
}

// runQuery is read specialized to the k-MST scatter, with optional
// hedging: when hedge > 0 and a sibling is in the rotation, a second
// attempt launches on the sibling once the primary has been running for
// the threshold, and the first answer wins. Because rotation members hold
// identical content, either answer is the answer — hedging trades
// duplicate work for tail latency and never changes results.
func (rs *replicaSet) runQuery(ctx context.Context, req mstsearch.Request, hedge time.Duration, prof *readProfile) (mstsearch.Response, error) {
	p, pdb := rs.preferred()
	if p < 0 {
		return mstsearch.Response{}, rs.unavailable()
	}
	var s int
	var sdb *mstsearch.DB
	if hedge > 0 {
		skip := make([]bool, rs.n)
		skip[p] = true
		s, sdb = rs.pick(skip)
	}
	if hedge <= 0 || sdb == nil {
		var resp mstsearch.Response
		err := rs.read(prof, func(db *mstsearch.DB) error {
			var e error
			resp, e = db.Query(ctx, req)
			return e
		})
		return resp, err
	}

	hctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type attempt struct {
		r    int
		resp mstsearch.Response
		err  error
	}
	ch := make(chan attempt, 2)
	launch := func(r int, db *mstsearch.DB) {
		go func() {
			resp, err := db.Query(hctx, req)
			ch <- attempt{r: r, resp: resp, err: err}
		}()
	}
	launch(p, pdb)
	timer := time.NewTimer(hedge)
	defer timer.Stop()

	outstanding, hedged := 1, false
	var winner *mstsearch.Response
	var primaryErr, otherErr error
	for outstanding > 0 {
		select {
		case a := <-ch:
			outstanding--
			// A loser canceled by our own cancel() classifies as obsNone,
			// so draining it never dirties the health machine.
			rs.observe(a.r, a.err)
			switch {
			case a.err == nil:
				if winner == nil {
					v := a.resp
					winner = &v
					cancel()
				}
			case a.r == p:
				primaryErr = a.err
			default:
				otherErr = a.err
			}
			if winner == nil && outstanding == 0 && !hedged && failoverable(a.err) {
				// The primary failed before the hedge fired: promote the
				// sibling as an ordinary failover instead of waiting out
				// the timer.
				metFailovers.Inc()
				if prof != nil {
					prof.failovers++
					prof.events = append(prof.events, mst.TraceEvent{
						Kind: mstsearch.EventReplicaFailover, Shard: rs.shard,
						Replica: s, Count: p,
					})
				}
				launch(s, sdb)
				outstanding++
				hedged = true
			}
		case <-timer.C:
			if winner == nil && !hedged {
				metHedges.Inc()
				if prof != nil {
					prof.hedges++
				}
				launch(s, sdb)
				outstanding++
				hedged = true
			}
		}
	}
	if winner != nil {
		return *winner, nil
	}
	// Both attempts failed: surface the primary's error for deterministic
	// reporting (it is what an unreplicated shard would have returned).
	if primaryErr != nil {
		return mstsearch.Response{}, primaryErr
	}
	return mstsearch.Response{}, otherErr
}

// write applies one mutation to every rotation member, acking at the
// given concern. A replica that fails a mutation a sibling applied has
// diverged and is quarantined; a mutation failing uniformly leaves the
// set consistent and nobody condemned. applied reports whether at least
// one replica holds the mutation — the routing table must reflect shard
// contents, so the caller registers the id whenever applied is true, even
// when err reports a missed quorum. Callers hold the cluster write lock,
// which is what serializes writes against the repair loop.
func (rs *replicaSet) write(concern WriteConcern, fn func(db *mstsearch.DB) error) (applied bool, err error) {
	live := rs.live()
	if len(live) == 0 {
		return false, rs.unavailable()
	}
	need := concern.required(len(rs.reps))
	if concern == WriteAll {
		need = len(live)
	}
	if need > len(live) {
		// Refusing up front keeps the set consistent: applying to fewer
		// replicas than the quorum could ever ack would guarantee a
		// divergence error on every such write.
		return false, fmt.Errorf("shard %d: %w: %d replicas in rotation, write concern %s needs %d",
			rs.shard, mstsearch.ErrUnavailable, len(live), concern, need)
	}
	acks := 0
	var firstErr error
	failed := make(map[int]error)
	for _, r := range live {
		db := rs.db(r)
		if werr := fn(db); werr != nil {
			if firstErr == nil {
				firstErr = werr
			}
			failed[r] = werr
		} else {
			acks++
		}
	}
	if acks == 0 {
		return false, firstErr
	}
	if len(failed) > 0 {
		rs.mu.Lock()
		for r, werr := range failed {
			rs.quarantineLocked(r, fmt.Errorf("missed mutation: %w", werr))
		}
		rs.mu.Unlock()
	}
	if acks < need {
		return true, fmt.Errorf("shard %d: %w: %d/%d replicas acked, write concern %s needs %d (first error: %v)",
			rs.shard, mstsearch.ErrUnavailable, acks, len(live), concern, need, firstErr)
	}
	return true, nil
}

// statuses reports every replica's health view.
func (rs *replicaSet) statuses() []mstsearch.ReplicaStatus {
	rs.mu.Lock()
	type view struct {
		db         *mstsearch.DB
		state      ReplicaState
		lastErr    error
		lastRepair time.Time
	}
	views := make([]view, len(rs.reps))
	for i, rep := range rs.reps {
		views[i] = view{db: rep.db, state: rep.state, lastErr: rep.lastErr, lastRepair: rep.lastRepair}
	}
	rs.mu.Unlock()

	out := make([]mstsearch.ReplicaStatus, len(views))
	for i, v := range views {
		st := mstsearch.ReplicaStatus{
			Shard: rs.shard, Replica: i,
			State:      v.state.String(),
			LastRepair: v.lastRepair,
		}
		if v.db != nil {
			st.Trajectories = v.db.Len()
		}
		if v.lastErr != nil {
			st.LastError = v.lastErr.Error()
		}
		out[i] = st
	}
	return out
}

// quarantined returns the indexes awaiting repair.
func (rs *replicaSet) quarantined() []int {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	var out []int
	for i, rep := range rs.reps {
		if rep.state == ReplicaQuarantined {
			out = append(out, i)
		}
	}
	return out
}

// admit swaps in a freshly re-seeded DB for replica r and returns it to
// the rotation — the final step of a repair.
func (rs *replicaSet) admit(r int, db *mstsearch.DB) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	rep := rs.reps[r]
	rep.db = db
	rep.state = ReplicaHealthy
	rep.strikes = 0
	rep.lastErr = nil
	rep.lastRepair = time.Now()
}
