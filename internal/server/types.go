package server

// Wire types of the JSON API. Every request that runs a query carries an
// optional per-request deadline in milliseconds; the server clamps it to
// its configured maximum and falls back to its default when absent, so
// every piece of work the server admits has a bounded lifetime.

// TrajectoryJSON is a trajectory on the wire: an id plus [x, y, t]
// samples with strictly increasing t.
type TrajectoryJSON struct {
	ID      uint32       `json:"id"`
	Samples [][3]float64 `json:"samples"`
}

// QueryRequest asks for the K stored trajectories most similar to Query
// over [T1, T2].
type QueryRequest struct {
	Query TrajectoryJSON `json:"query"`
	T1    float64        `json:"t1"`
	T2    float64        `json:"t2"`
	K     int            `json:"k"`
	// Metric selects the distance function: "" or "dissim" (the default),
	// or "dtw"/"lcss"/"edr" on a metric index kind. MetricEps is the
	// match threshold the LCSS and EDR metrics need.
	Metric    string  `json:"metric,omitempty"`
	MetricEps float64 `json:"metric_eps,omitempty"`
	// DeadlineMS bounds the request's lifetime in milliseconds (0 = the
	// server default; clamped to the server maximum).
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// ResultJSON is one k-MST answer.
type ResultJSON struct {
	ID     uint32  `json:"id"`
	Dissim float64 `json:"dissim"`
	// Certified reports whether the answer is provably in the true top-k;
	// false marks the provisional tail of a degraded response.
	Certified bool `json:"certified"`
}

// QueryStatsJSON is the per-query work profile surfaced to clients.
type QueryStatsJSON struct {
	NodesAccessed int     `json:"nodes_accessed"`
	PageReads     uint64  `json:"page_reads"`
	BufferHits    uint64  `json:"buffer_hits"`
	PruningPower  float64 `json:"pruning_power"`
}

// QueryResponse carries one k-MST query's results. Degraded reports that
// a node/IO budget ran out mid-search: the results are the best effort
// found in budget, with per-result Certified flags separating proven
// answers from provisional ones.
type QueryResponse struct {
	Results  []ResultJSON   `json:"results"`
	Degraded bool           `json:"degraded"`
	Stats    QueryStatsJSON `json:"stats"`
}

// BatchRequest answers many k-MST queries as one admission unit.
type BatchRequest struct {
	Queries []QueryRequest `json:"queries"`
	// DeadlineMS bounds the whole batch (0 = server default). Individual
	// queries may carry tighter deadlines of their own.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// BatchResponse holds one slot per submitted query, in input order.
// Failures are isolated per slot: Error is set for that slot only.
type BatchResponse struct {
	Results []BatchSlotJSON `json:"results"`
}

// BatchSlotJSON is one batch slot: a response or a typed error.
type BatchSlotJSON struct {
	Response *QueryResponse `json:"response,omitempty"`
	Error    *ErrorBody     `json:"error,omitempty"`
}

// WindowJSON is a spatial extent [MinX, MaxX] × [MinY, MaxY].
type WindowJSON struct {
	MinX float64 `json:"min_x"`
	MinY float64 `json:"min_y"`
	MaxX float64 `json:"max_x"`
	MaxY float64 `json:"max_y"`
}

// RangeRequest asks for every stored segment intersecting the window
// during [T1, T2].
type RangeRequest struct {
	Window     WindowJSON `json:"window"`
	T1         float64    `json:"t1"`
	T2         float64    `json:"t2"`
	DeadlineMS int64      `json:"deadline_ms,omitempty"`
}

// SegmentJSON is one range answer: a trajectory's motion segment.
type SegmentJSON struct {
	ID    uint32     `json:"id"`
	SeqNo uint32     `json:"seq_no"`
	A     [3]float64 `json:"a"` // x, y, t
	B     [3]float64 `json:"b"`
}

// RangeResponse lists the matching segments.
type RangeResponse struct {
	Segments []SegmentJSON `json:"segments"`
}

// NearestRequest asks for the K moving objects closest to (X, Y) at
// instant T.
type NearestRequest struct {
	X          float64 `json:"x"`
	Y          float64 `json:"y"`
	T          float64 `json:"t"`
	K          int     `json:"k"`
	DeadlineMS int64   `json:"deadline_ms,omitempty"`
}

// NeighborJSON is one nearest-neighbour answer.
type NeighborJSON struct {
	ID   uint32  `json:"id"`
	Dist float64 `json:"dist"`
}

// NearestResponse lists the k nearest objects.
type NearestResponse struct {
	Neighbors []NeighborJSON `json:"neighbors"`
}

// TopologyRequest classifies every trajectory touching the window during
// [T1, T2] by its topological relation.
type TopologyRequest struct {
	Window     WindowJSON `json:"window"`
	T1         float64    `json:"t1"`
	T2         float64    `json:"t2"`
	DeadlineMS int64      `json:"deadline_ms,omitempty"`
}

// TopologyEntryJSON is one topology answer.
type TopologyEntryJSON struct {
	ID             uint32  `json:"id"`
	Relation       string  `json:"relation"`
	InsideDuration float64 `json:"inside_duration"`
}

// TopologyResponse lists the classified trajectories.
type TopologyResponse struct {
	Entries []TopologyEntryJSON `json:"entries"`
}

// IngestRequest stores one new trajectory. Ingest is not idempotent by
// itself — retrying a lost response would race a duplicate-id rejection —
// so retried ingests must carry an Idempotency-Key header, which the
// server uses to replay the original outcome instead of re-applying the
// mutation.
type IngestRequest struct {
	Trajectory TrajectoryJSON `json:"trajectory"`
	DeadlineMS int64          `json:"deadline_ms,omitempty"`
}

// IngestResponse acknowledges a stored trajectory.
type IngestResponse struct {
	ID       uint32 `json:"id"`
	Segments int    `json:"segments"`
	// Replayed reports that an Idempotency-Key matched an earlier ingest
	// and the stored outcome was returned without re-applying.
	Replayed bool `json:"replayed,omitempty"`
}

// AppendRequest extends a stored trajectory with one newer sample — the
// live-fleet location-update path.
type AppendRequest struct {
	ID         uint32     `json:"id"`
	Sample     [3]float64 `json:"sample"` // x, y, t
	DeadlineMS int64      `json:"deadline_ms,omitempty"`
}

// AppendResponse acknowledges an appended sample.
type AppendResponse struct {
	ID      uint32 `json:"id"`
	Samples int    `json:"samples"`
}

// ExplainResponse carries the EXPLAIN transcript plus the headline
// prediction-vs-actual numbers.
type ExplainResponse struct {
	Transcript        string  `json:"transcript"`
	PredictedLeafIO   float64 `json:"predicted_leaf_io"`
	ActualLeafIO      int     `json:"actual_leaf_io"`
	NodesAccessed     int     `json:"nodes_accessed"`
	PruningPower      float64 `json:"pruning_power"`
	DurationMicros    int64   `json:"duration_us"`
	Degraded          bool    `json:"degraded"`
	ResultCount       int     `json:"result_count"`
	TraceEventCount   int     `json:"trace_event_count"`
	EstimatedSegments float64 `json:"estimated_segments"`
}

// CheckpointResponse acknowledges a folded checkpoint.
type CheckpointResponse struct {
	Status string `json:"status"`
}

// HealthResponse is the /healthz body. On a replicated cluster Status
// reflects the worst replica ("ok" → every replica healthy, "degraded"
// → some replica suspect or quarantined but every shard still answers)
// and Replicas breaks the verdict down; on a single store both extras
// are absent. `?quick=1` suppresses the breakdown for probes that only
// want the bare liveness contract.
type HealthResponse struct {
	Status       string          `json:"status"`
	Trajectories int             `json:"trajectories"`
	Segments     int             `json:"segments"`
	Shards       int             `json:"shards,omitempty"`
	Replicas     []ReplicaHealth `json:"replicas,omitempty"`
}

// ReplicaHealth is one replica's row in the /healthz breakdown.
type ReplicaHealth struct {
	Shard        int    `json:"shard"`
	Replica      int    `json:"replica"`
	State        string `json:"state"`
	Trajectories int    `json:"trajectories"`
	LastError    string `json:"last_error,omitempty"`
	// LastRepair is the RFC 3339 time anti-entropy last re-seeded this
	// replica; empty if never repaired since open.
	LastRepair string `json:"last_repair,omitempty"`
}
