package mst

import (
	"mstsearch/internal/geom"
	"mstsearch/internal/storage"
	"mstsearch/internal/trajectory"
)

// EventKind discriminates the trace events a search emits through
// Options.Trace.
type EventKind int

// The event taxonomy of one k-MST search, in rough emission order. Every
// event is a flat TraceEvent value — the hook never receives pointers into
// search state, so it may retain events freely.
const (
	// EventNodeEnqueue: a node entered the best-first heap (Page, Level,
	// MBB, MinDist).
	EventNodeEnqueue EventKind = iota
	// EventNodeVisit: a node was popped and read (Page, Level, Leaf, MBB,
	// MinDist). The number of these events equals Stats.NodesAccessed.
	EventNodeVisit
	// EventCandidateAdmit: a trajectory was first seen in a leaf and
	// entered the candidate set (TrajID).
	EventCandidateAdmit
	// EventCandidateComplete: a candidate's interval list covers the whole
	// query period; Lo/Hi carry its certified DISSIM interval. A search
	// that decides candidates exactly (one with Options.Data, and every
	// metric search) sets Lo = Hi = Exact, the exact distance, and emits
	// one per exact decision: their number equals Stats.ExactRefined.
	EventCandidateComplete
	// EventCandidatePrune: Heuristic 1 evicted a candidate — its certified
	// lower bound Lo exceeded the k-th best upper bound Threshold
	// (Heuristic = 1). The number of these events equals Stats.Rejected.
	EventCandidatePrune
	// EventEarlyTerminate: Heuristic 2 discarded the node at MinDist and
	// every node after it — MINDISSIMINC (Lo) exceeded Threshold
	// (Heuristic = 2) — ending the search.
	EventEarlyTerminate
	// EventBudgetExhausted: a resource budget ran out (Budget names it);
	// the search degrades to best-effort results.
	EventBudgetExhausted
	// EventShardScatter: a scatter-gather coordinator (internal/shard)
	// dispatched the query to one shard (Shard, MinDist = the shard's
	// certified lower bound). Emitted by the cluster layer, never by a
	// single-tree search.
	EventShardScatter
	// EventShardPrune: the coordinator skipped a shard whose certified
	// lower bound (MinDist) cannot beat the global k-th pessimistic bound
	// (Threshold), or which provably holds no covering trajectory
	// (MinDist = +Inf). Emitted by the cluster layer.
	EventShardPrune
	// EventReplicaFailover: a replicated shard's read handed off to a
	// sibling replica after a replica-attributable error (Shard, Replica
	// = the replica now serving, Count = the replica that failed).
	// Emitted by the cluster layer.
	EventReplicaFailover
	// EventReplicaRepair: the anti-entropy loop re-seeded a quarantined
	// replica from a healthy sibling and re-admitted it to the read
	// rotation (Shard, Replica = the repaired replica, Count = the
	// source replica). Emitted by the cluster layer.
	EventReplicaRepair
	// EventLeafSkip: the search dropped a leaf without reading it, because
	// the one trajectory whose segments it holds (TrajID) was already
	// decided (Page). Emitted only when Options.Owners is set; the number
	// of these events equals Stats.LeavesSkipped.
	EventLeafSkip
)

// String names the event kind.
func (k EventKind) String() string {
	switch k {
	case EventNodeEnqueue:
		return "node-enqueue"
	case EventNodeVisit:
		return "node-visit"
	case EventCandidateAdmit:
		return "candidate-admit"
	case EventCandidateComplete:
		return "candidate-complete"
	case EventCandidatePrune:
		return "candidate-prune"
	case EventEarlyTerminate:
		return "early-terminate"
	case EventBudgetExhausted:
		return "budget-exhausted"
	case EventShardScatter:
		return "shard-scatter"
	case EventShardPrune:
		return "shard-prune"
	case EventReplicaFailover:
		return "replica-failover"
	case EventReplicaRepair:
		return "replica-repair"
	case EventLeafSkip:
		return "leaf-skip"
	default:
		return "unknown"
	}
}

// TraceEvent is one step of a search, delivered synchronously to the
// Options.Trace hook from the searching goroutine. It is a flat value:
// only the fields relevant to Kind are set. Hooks must be fast — the
// search blocks on them — and when one search object is shared across
// goroutines (a batch), the hook must be safe for concurrent calls.
type TraceEvent struct {
	Kind EventKind

	// Node fields (EventNodeEnqueue, EventNodeVisit, EventEarlyTerminate;
	// Page on EventLeafSkip).
	Page  storage.PageID
	Level int // root = 0
	Leaf  bool
	MBB   geom.MBB
	// MinDist is the node's MINDIST from the query over the period.
	MinDist float64

	// Candidate fields (EventCandidate*; TrajID on EventLeafSkip).
	TrajID trajectory.ID
	// Lo, Hi bound the candidate's certified DISSIM interval at the time
	// of the event; for EventEarlyTerminate Lo carries MINDISSIMINC.
	Lo, Hi float64
	// Exact is the exact distance of an exactly decided candidate
	// (EventCandidateComplete).
	Exact float64

	// Decision fields.
	// Heuristic is 1 (OPTDISSIM candidate rejection) or 2 (MINDISSIMINC
	// early termination) on prune events.
	Heuristic int
	// Threshold is τ — the k-th smallest certified upper bound — at the
	// moment of the decision.
	Threshold float64
	// Budget names the exhausted budget on EventBudgetExhausted: "nodes"
	// or "io".
	Budget string

	// Shard is the shard index on cluster-level events (EventShardScatter,
	// EventShardPrune, EventReplica*); MinDist then carries the shard's
	// certified lower bound and Threshold the global k-th pessimistic
	// bound at the decision.
	Shard int
	// Replica is the replica index on EventReplicaFailover (the replica
	// now serving) and EventReplicaRepair (the replica re-seeded); Count
	// then carries the other replica of the hand-off.
	Replica int
	Count   int
}

// emit delivers one event to the trace hook when tracing is on. The hook
// is nil for untraced searches, making the disabled path one predictable
// branch with no allocation.
func (s *searcher) emit(ev TraceEvent) {
	if s.opts.Trace != nil {
		s.opts.Trace(ev)
	}
}
