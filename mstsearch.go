// Package mstsearch is a library for spatiotemporal trajectory similarity
// search in moving-object databases, implementing "Index-based Most
// Similar Trajectory Search" (Frentzos, Gratsias, Theodoridis — ICDE
// 2007): the DISSIM dissimilarity metric (the time integral of the
// Euclidean distance between two trajectories), its cheap trapezoid
// approximation with a certified error bound, and a best-first k-Most-
// Similar-Trajectory (k-MST) search algorithm that runs on general-purpose
// R-tree-like structures — the same indexes a MOD already maintains for
// range and nearest-neighbour queries.
//
// # Quick start
//
//	db, err := mstsearch.NewDB(mstsearch.TBTree, trajectories)
//	resp, err := db.Query(ctx, mstsearch.Request{
//		Q: &query, Interval: mstsearch.Interval{T1: t1, T2: t2}, K: 5,
//	})
//
// The package also exposes the building blocks: exact and approximate
// DISSIM between two trajectories, the LCSS/EDR/DTW baseline measures, and
// TD-TR trajectory compression.
package mstsearch

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"

	"mstsearch/internal/baselines"
	"mstsearch/internal/dissim"
	"mstsearch/internal/geom"
	"mstsearch/internal/index"
	"mstsearch/internal/mst"
	"mstsearch/internal/selectivity"
	"mstsearch/internal/storage"
	"mstsearch/internal/tdtr"
	"mstsearch/internal/trajectory"
	"mstsearch/internal/wal"
)

// Core model types, re-exported from the internal trajectory package.
type (
	// Trajectory is a moving object's history: (x, y, t) samples with
	// strictly increasing timestamps and linear interpolation in between.
	Trajectory = trajectory.Trajectory
	// Sample is one recorded position.
	Sample = trajectory.Sample
	// ID identifies a trajectory.
	ID = trajectory.ID
)

// Result is one k-MST answer, most similar first.
type Result struct {
	TrajID ID
	// Dissim is the exact DISSIM value (or the metric's distance on a
	// metric index).
	Dissim float64
	// Certified reports whether the result is provably a member of the
	// true top-k. Complete searches certify every result; a
	// budget-degraded search (Stats.Degraded) certifies only the results
	// no unexplored trajectory can displace — the rest are provisional
	// best-effort answers.
	Certified bool
}

// SearchStats reports the work one query performed — the per-query access
// profile of the paper's §5 evaluation (node accesses, pruning power, page
// I/O) plus the bookkeeping the observability layer adds on top.
type SearchStats struct {
	NodesAccessed   int
	LeavesAccessed  int // of NodesAccessed, how many were leaves
	LeavesSkipped   int // leaves never read: the one trajectory they hold was already decided
	TotalNodes      int
	Enqueued        int     // best-first heap insertions
	PruningPower    float64 // fraction of tree nodes never touched
	PageReads       uint64  // physical page reads (buffer misses): a delta on the DB's shared pool, approximate under concurrent queries
	BufferHits      uint64
	Retries         uint64 // page reads retried after transient faults
	Evictions       uint64 // buffer frames evicted during the query
	ExactRefined    int    // candidates decided by exact DISSIM from the trajectory store
	TerminatedEarly bool
	// Degraded reports that a budget (MaxNodeAccesses / MaxIOReads) ran
	// out mid-search: the results are the best effort assembled within the
	// budget, with per-result Certified flags separating proven answers
	// from provisional ones.
	Degraded bool
	// CertFloor is a certified lower bound on the DISSIM of every stored
	// trajectory covering the query period that was NOT returned: +Inf
	// when the search proved nothing was left behind, finite when budget
	// degradation or pruning left trajectories only bounded from below.
	// A scatter-gather coordinator (internal/shard) compares one shard's
	// result distances against its siblings' floors to certify a merged
	// top-k.
	CertFloor float64
}

// Options tunes a search beyond the defaults; the zero value is the
// search every entry point runs: an MBB index decides each trajectory by
// its exact DISSIM, from the trajectory store, the first time a leaf names
// it, and a metric index evaluates its answers exactly. The paper's
// trapezoid search and its heuristics switches are not options here;
// internal/mst keeps them for the experiments that reproduce the paper.
type Options struct {
	// ExcludeIDs are trajectories never reported — typically the query's
	// own stored twin in "more like this one" searches.
	ExcludeIDs []ID
	// MaxNodeAccesses bounds how many index nodes the query may read
	// (0 = unlimited). On exhaustion the query degrades instead of
	// failing: it returns the best-effort top-k found so far with
	// SearchStats.Degraded set and never exceeds the budget.
	MaxNodeAccesses int
	// MaxIOReads bounds the physical page reads (buffer misses) the query
	// may cause (0 = unlimited); exhaustion degrades like MaxNodeAccesses.
	// The count is the delta on the DB's shared pool since the query
	// began, so misses of concurrent queries count against it too.
	MaxIOReads uint64
	// Parallelism caps the worker goroutines a KMostSimilarBatch call
	// executes queries on; <= 0 means GOMAXPROCS. A single query always
	// runs on the calling goroutine. Every slot's answer is bit-identical
	// to the same query run alone.
	Parallelism int
	// Trace, when non-nil, receives one typed TraceEvent per search step —
	// node visits with MBB and MINDIST, candidate admissions/completions,
	// prune decisions with the responsible heuristic and the threshold it
	// compared against, budget exhaustion — delivered
	// synchronously from the searching goroutine. It is the building block
	// for slow-query forensics and DB.Explain. A nil hook costs one
	// predictable branch per step and allocates nothing; tracing never
	// changes what the search computes. Hooks must be fast, and when one
	// Options value is shared by a KMostSimilarBatch call the hook must be
	// safe for concurrent use.
	Trace func(TraceEvent)
}

// Trace event model, re-exported from the search engine. See the EventKind
// constants for the taxonomy.
type (
	// TraceEvent is one step of a search, delivered to Options.Trace.
	TraceEvent = mst.TraceEvent
	// EventKind discriminates trace events.
	EventKind = mst.EventKind
)

// The trace event taxonomy (see the mst package for per-kind field
// documentation).
const (
	EventNodeEnqueue       = mst.EventNodeEnqueue
	EventNodeVisit         = mst.EventNodeVisit
	EventCandidateAdmit    = mst.EventCandidateAdmit
	EventCandidateComplete = mst.EventCandidateComplete
	EventCandidatePrune    = mst.EventCandidatePrune
	EventEarlyTerminate    = mst.EventEarlyTerminate
	EventBudgetExhausted   = mst.EventBudgetExhausted
	EventShardScatter      = mst.EventShardScatter
	EventShardPrune        = mst.EventShardPrune
	EventReplicaFailover   = mst.EventReplicaFailover
	EventReplicaRepair     = mst.EventReplicaRepair
	EventLeafSkip          = mst.EventLeafSkip
)

// Metric selects the distance function of a k-nearest query (the
// Request.Metric field). The zero value is the paper's DISSIM, so
// existing Request literals keep their meaning; the other metrics are the
// baseline distances of the experimental study, served exactly by the
// metric (N-tree) index kind and rejected as ErrBadQuery by the MBB
// kinds, whose geometry cannot bound them.
type Metric = mst.Metric

// The metric taxonomy. MetricLCSS and MetricEDR require a positive
// Request.MetricEps matching tolerance.
const (
	MetricDISSIM = mst.MetricDISSIM
	MetricDTW    = mst.MetricDTW
	MetricLCSS   = mst.MetricLCSS
	MetricEDR    = mst.MetricEDR
)

// ErrUnknownMetric reports a metric name ParseMetric does not recognize.
var ErrUnknownMetric = mst.ErrUnknownMetric

// ParseMetric resolves a metric name (case-insensitively) to its Metric —
// the inverse of Metric.String. The empty string is MetricDISSIM,
// mirroring the Request field's zero value.
func ParseMetric(s string) (Metric, error) { return mst.ParseMetric(s) }

// MetricDistance evaluates metric m between two trajectories over
// [t1, t2] — the reference every index-backed metric query is
// bit-identical to. ok is false when either trajectory does not cover the
// period. eps is the per-axis matching tolerance of MetricLCSS/MetricEDR
// (ignored by the others).
func MetricDistance(m Metric, eps float64, q, tr *Trajectory, t1, t2 float64) (float64, bool) {
	return mst.EvalMetric(m, eps, q, tr, t1, t2)
}

// DB is a trajectory database: an in-memory trajectory store plus a paged
// spatiotemporal index (4 KB pages). Every read — queries, explain, range,
// nearest, topology and batches — goes through one LRU buffer pool per DB,
// sized by the paper's policy (10 % of the index, ≤1000 pages) and shared
// by concurrent queries, so repeated queries stop paying physical reads.
// A mutation (Add, AppendSample, Recover) or SetPagerWrapper replaces the
// pool with an empty one sized to the current index.
//
// A DB is safe for concurrent use: queries may run in parallel with each
// other and are serialized against mutations (Add, AppendSample, Recover)
// by an internal reader/writer lock.
type DB struct {
	// slow is the bounded in-memory slow-query log. It synchronizes
	// itself (atomic threshold, internal mutex), so it sits above the
	// DB's locks rather than under either of them.
	slow slowLog

	mu    sync.RWMutex // lockrank: 10 — queries take read side; mutations take write side
	kind  IndexKind
	file  *storage.File
	eng   indexEngine
	trajs []Trajectory
	byID  map[ID]int
	vmax  float64

	pool *storage.StripedPool // the buffer pool every read goes through; rebuilt by invalidate

	// Durable mode (OpenDurable): the write-ahead log mutations journal
	// into, the directory holding it and the checkpoint snapshots, and
	// the options the DB was opened with. All nil/zero for an in-memory
	// DB — the mutation path then never touches the wal package.
	wal   *wal.Log
	dir   string
	epoch uint32
	dopt  DurableOptions

	// pagerWrap, when set, wraps the page file underneath the buffer
	// pool — the fault-injection / instrumentation seam.
	pagerWrap func(Pager) Pager

	dsMu sync.Mutex             // lockrank: 20 — taken under db.mu, never the reverse
	ds   *trajectory.Dataset    // cached view over trajs; nil after Add
	hist *selectivity.Histogram // cached selectivity histogram; nil after Add
}

// Pager is the page-access abstraction of the storage layer, re-exported
// so callers can interpose middleware (fault injection, metrics) via
// SetPagerWrapper.
type Pager = storage.Pager

// PageID addresses one page of the index file, re-exported so trace events
// and pager middleware can name pages.
type PageID = storage.PageID

// Geometry re-exports used by trace events and the typed query API.
type (
	// STPoint is a spatiotemporal point (x, y, t).
	STPoint = geom.STPoint
	// MBB is a 3D minimum bounding box over (x, y, t).
	MBB = geom.MBB
)

// Typed errors of the query path, re-exported from the internal layers so
// callers can build a complete failure taxonomy with errors.Is/As:
//
//   - ErrCanceled — the query's context was canceled or expired (the
//     error also wraps context.Canceled / context.DeadlineExceeded);
//   - ErrDeadlineExceeded — the deadline-expiry refinement of
//     ErrCanceled: a query abandoned because its context's deadline
//     passed, as opposed to an explicit cancel. Every error wrapping it
//     also wraps ErrCanceled (existing errors.Is call sites keep
//     working) and context.DeadlineExceeded;
//   - ErrPageCorrupt — an index page failed checksum verification (torn
//     write or bit rot); errors.As recovers the damaged page id, and
//     DB.Recover rebuilds the index from the trajectory store;
//   - ErrInjected — a deliberately injected fault reached the caller
//     (fault-injection testing only);
//   - ErrBadQuery — the query trajectory does not cover the requested
//     period, or the period itself is empty (t1 >= t2).
var (
	ErrCanceled         = mst.ErrCanceled
	ErrDeadlineExceeded = mst.ErrDeadlineExceeded
	ErrInjected         = storage.ErrInjected
	ErrBadQuery         = mst.ErrBadQuery
)

// ErrPageCorrupt is the typed page-corruption error; its Page field is the
// damaged page's id.
type ErrPageCorrupt = storage.ErrPageCorrupt

// SetPagerWrapper installs a wrapper applied to the page file underneath
// the DB's buffer pool (nil removes it) and rebuilds the pool empty at
// once. wrap is called once per pool build — here and on every later
// mutation — and the wrapped pager it returns is shared by all concurrent
// queries, so it must be safe for concurrent use (FaultyPager is). It is
// the seam for fault injection and I/O instrumentation.
func (db *DB) SetPagerWrapper(wrap func(Pager) Pager) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.pagerWrap = wrap
	db.invalidate()
}

// Open creates an empty database backed by the chosen index structure.
// Unregistered kinds fall back to the 3D R-tree, the historical default.
func Open(kind IndexKind) *DB {
	if !kind.Valid() {
		kind = RTree3D
	}
	db := &DB{kind: kind, file: storage.NewFile(storage.DefaultPageSize), byID: map[ID]int{}}
	db.eng = db.newEngine(kind, db.file, index.Meta{Root: storage.NilPage})
	db.invalidate()
	return db
}

// NewDB creates a database and bulk-adds the trajectories.
func NewDB(kind IndexKind, trajs []Trajectory) (*DB, error) {
	db := Open(kind)
	for i := range trajs {
		if err := db.Add(trajs[i]); err != nil {
			return nil, err
		}
	}
	return db, nil
}

// ErrDuplicateID reports an Add with an already-stored trajectory ID.
var ErrDuplicateID = errors.New("mstsearch: duplicate trajectory id")

// Add validates and indexes one trajectory. On a durable DB the
// trajectory is journaled to the write-ahead log — and, under the
// default SyncAlways policy, fsynced — before it is applied, so a nil
// return means the mutation survives a crash.
func (db *DB) Add(tr Trajectory) error {
	if err := tr.Validate(); err != nil {
		return fmt.Errorf("mstsearch: %w", err)
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, dup := db.byID[tr.ID]; dup {
		return fmt.Errorf("%w: %d", ErrDuplicateID, tr.ID)
	}
	if db.wal != nil {
		if err := db.wal.Append(recAdd, encodeAddRecord(&tr)); err != nil {
			return fmt.Errorf("mstsearch: journal add: %w", err)
		}
	}
	if err := db.applyAddLocked(tr); err != nil {
		return err
	}
	return db.maybeCheckpointLocked()
}

// applyAddLocked indexes a pre-validated, non-duplicate trajectory —
// the journal-free half of Add, shared with WAL replay. The trajectory
// enters the store before the engine indexes it (a metric engine resolves
// member geometry through the store during insertion) and is rolled back
// if indexing fails. Callers must hold db.mu (write side).
func (db *DB) applyAddLocked(tr Trajectory) error {
	db.byID[tr.ID] = len(db.trajs)
	db.trajs = append(db.trajs, tr)
	if err := db.eng.insertTrajectory(&db.trajs[len(db.trajs)-1]); err != nil {
		delete(db.byID, tr.ID)
		db.trajs = db.trajs[:len(db.trajs)-1]
		return err
	}
	db.vmax = math.Max(db.vmax, tr.MaxSpeed())
	db.invalidate()
	return nil
}

// invalidate drops caches made stale by a mutation — the dataset view and
// the selectivity histogram — and replaces the buffer pool with an empty
// one over the (possibly wrapped) page file, sized by the paper's policy
// for the index as it now stands: the engines write to db.file behind the
// pool, so its frames no longer reflect the rewritten pages. Open and
// Load call it to build the first pool. Callers must hold db.mu (write
// side) or own the DB exclusively.
func (db *DB) invalidate() {
	db.dsMu.Lock()
	db.ds = nil
	db.hist = nil
	db.dsMu.Unlock()
	pager := storage.Pager(db.file)
	if db.pagerWrap != nil {
		pager = db.pagerWrap(pager)
	}
	db.pool = storage.NewSharedPaperPool(pager)
}

// AppendSample extends a stored trajectory with one newer position — the
// online maintenance path of a live MOD, where location updates stream in.
// The new segment is indexed immediately and is visible to subsequent
// queries. The sample's timestamp must be strictly after the trajectory's
// current end.
// On a durable DB the sample is journaled (and, under SyncAlways,
// fsynced) before it is applied, so a nil return means the mutation
// survives a crash.
func (db *DB) AppendSample(id ID, s Sample) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	i, ok := db.byID[id]
	if !ok {
		return fmt.Errorf("mstsearch: unknown trajectory %d", id)
	}
	last := db.trajs[i].Samples[len(db.trajs[i].Samples)-1]
	if s.T <= last.T {
		return fmt.Errorf("mstsearch: sample at t=%g not after trajectory end t=%g", s.T, last.T)
	}
	if db.wal != nil {
		if err := db.wal.Append(recAppend, encodeAppendRecord(id, s)); err != nil {
			return fmt.Errorf("mstsearch: journal append: %w", err)
		}
	}
	if err := db.applyAppendLocked(i, s); err != nil {
		return err
	}
	return db.maybeCheckpointLocked()
}

// applyAppendLocked indexes one pre-validated sample onto the trajectory
// at store index i — the journal-free half of AppendSample, shared with
// WAL replay. The sample enters the store first so an engine that cannot
// append incrementally (errRebuildRequired) can rebuild from the updated
// store; any failure rolls the sample back. Callers must hold db.mu
// (write side).
func (db *DB) applyAppendLocked(i int, s Sample) error {
	tr := &db.trajs[i]
	last := tr.Samples[len(tr.Samples)-1]
	e := index.LeafEntry{
		TrajID: tr.ID,
		SeqNo:  uint32(tr.NumSegments()),
		Seg: geom.Segment{
			A: geom.STPoint{X: last.X, Y: last.Y, T: last.T},
			B: geom.STPoint{X: s.X, Y: s.Y, T: s.T},
		},
	}
	tr.Samples = append(tr.Samples, s)
	err := db.eng.appendSegment(e, tr)
	if errors.Is(err, errRebuildRequired) {
		err = db.recoverLocked()
	}
	if err != nil {
		tr.Samples = tr.Samples[:len(tr.Samples)-1]
		return err
	}
	db.vmax = math.Max(db.vmax, e.Seg.Speed())
	db.invalidate()
	return nil
}

// Recover rebuilds the paged index from scratch out of the in-memory
// trajectory store — the repair path after a query surfaces
// ErrPageCorrupt. The damaged page file is discarded and replaced by a
// freshly built one; the trajectory store is the source of truth, so no
// data is lost.
//
// Recover takes the write lock: in-flight queries finish against the old
// file first, and queries started after Recover returns see the rebuilt
// index.
func (db *DB) Recover() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.recoverLocked()
}

// recoverLocked rebuilds the paged index from the trajectory store — the
// body of Recover, shared with the N-tree append path
// (errRebuildRequired). Callers must hold db.mu (write side).
func (db *DB) recoverLocked() error {
	file := storage.NewFile(db.file.PageSize())
	eng := db.newEngine(db.kind, file, index.Meta{Root: storage.NilPage})
	for i := range db.trajs {
		if err := eng.insertTrajectory(&db.trajs[i]); err != nil {
			return fmt.Errorf("mstsearch: recover: %w", err)
		}
	}
	db.file = file
	db.eng = eng
	db.invalidate()
	return nil
}

// dataset returns the cached dataset view, rebuilding after inserts.
// Callers must hold db.mu (either side); queries may share the cache
// concurrently thanks to dsMu.
func (db *DB) dataset() (*trajectory.Dataset, error) {
	db.dsMu.Lock()
	defer db.dsMu.Unlock()
	if db.ds == nil {
		ds, err := trajectory.NewDataset(db.trajs)
		if err != nil {
			return nil, err
		}
		db.ds = ds
	}
	return db.ds, nil
}

// Get returns a snapshot of a stored trajectory, or nil. The returned
// copy is private to the caller, so it stays valid under concurrent
// AppendSample/Add.
func (db *DB) Get(id ID) *Trajectory {
	db.mu.RLock()
	defer db.mu.RUnlock()
	tr := db.get(id)
	if tr == nil {
		return nil
	}
	cl := tr.Clone()
	return &cl
}

// get returns the stored trajectory without locking or copying; callers
// must hold db.mu and not retain the pointer past the lock.
func (db *DB) get(id ID) *Trajectory {
	i, ok := db.byID[id]
	if !ok {
		return nil
	}
	return &db.trajs[i]
}

// Len returns the number of stored trajectories.
func (db *DB) Len() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return len(db.trajs)
}

// Kind reports the index structure backing the database.
func (db *DB) Kind() IndexKind {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.kind
}

// IDs returns the stored trajectory IDs in ascending order — the
// enumeration a cluster coordinator (internal/shard) uses to rebuild its
// routing table from recovered shards.
func (db *DB) IDs() []ID {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]ID, len(db.trajs))
	for i := range db.trajs {
		out[i] = db.trajs[i].ID
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// NumSegments returns the total indexed segment count.
func (db *DB) NumSegments() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.numSegments()
}

// numSegments counts indexed segments; callers must hold db.mu (either
// side).
func (db *DB) numSegments() int {
	n := 0
	for i := range db.trajs {
		n += db.trajs[i].NumSegments()
	}
	return n
}

// IndexSizeMB returns the index size in megabytes.
func (db *DB) IndexSizeMB() float64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return float64(db.file.SizeBytes()) / (1024 * 1024)
}

// EnableWarmBuffer does nothing: every DB reads through one shared buffer
// pool from the moment it is built.
//
// Deprecated: the pool is always on; remove the call.
func (db *DB) EnableWarmBuffer() {}

// view opens a read view of the index over the DB's buffer pool. Callers
// must hold db.mu and type-switch the view to the capability they need
// (index.Tree for segment-level queries, index.MetricTree for metric kNN).
func (db *DB) view() index.Index {
	return db.eng.view(db.pool)
}

// kMostSimilar runs one k-MST / metric-kNN query through the DB's buffer
// pool — the common core of the single-query entry points, explain and
// the batch executor. Callers must hold db.mu (read side). The I/O fields
// of SearchStats are deltas on the shared pool's counters: concurrent
// queries interleave on them, so per-query PageReads/BufferHits are
// approximate while the pool-level totals stay exact.
func (db *DB) kMostSimilar(ctx context.Context, q *Trajectory, t1, t2 float64, k int, m Metric, eps float64, o Options) ([]Result, SearchStats, error) {
	if q == nil {
		return nil, SearchStats{}, fmt.Errorf("%w: nil query trajectory", ErrBadQuery)
	}
	bp := db.pool
	view := db.view()
	before := bp.Stats()
	opts := mst.Options{
		K:               k,
		Vmax:            db.vmax + q.MaxSpeed(),
		ExcludeIDs:      o.ExcludeIDs,
		MaxNodeAccesses: o.MaxNodeAccesses,
		MaxIOReads:      o.MaxIOReads,
		Trace:           o.Trace,
	}
	if o.MaxIOReads > 0 {
		opts.IOReads = func() uint64 { return bp.Stats().Misses - before.Misses }
	}
	// Both index families search with the trajectory store: a metric tree
	// stores no geometry, so candidates and pivots resolve through it, and
	// an MBB tree decides each trajectory from it exactly.
	ds, err := db.dataset()
	if err != nil {
		return nil, SearchStats{}, err
	}
	opts.Data = ds
	var (
		res []mst.Result
		st  mst.Stats
	)
	switch tree := view.(type) {
	case index.MetricTree:
		res, st, err = mst.MetricSearchContext(ctx, tree, q, t1, t2, m, eps, opts)
	case index.Tree:
		if m != MetricDISSIM {
			return nil, SearchStats{}, fmt.Errorf("%w: metric %s is not supported by the %s index (use an %s database)",
				ErrBadQuery, m, db.kind, NTree)
		}
		// The engine tree's leaf-owner table lets the search skip a leaf
		// whose one trajectory is already decided, without reading it.
		if e, ok := db.eng.(*mbbEngine); ok {
			if owners := e.t.Owners(); owners != nil {
				opts.Owners = owners
			}
		}
		res, st, err = mst.SearchContext(ctx, tree, q, t1, t2, opts)
	default:
		return nil, SearchStats{}, fmt.Errorf("mstsearch: index kind %s exposes no searchable view", db.kind)
	}
	if err != nil {
		return nil, SearchStats{}, err
	}
	out := make([]Result, len(res))
	for i, r := range res {
		out[i] = Result{TrajID: r.TrajID, Dissim: r.Dissim, Certified: r.Certified}
	}
	bs := bp.Stats()
	return out, SearchStats{
		NodesAccessed:   st.NodesAccessed,
		LeavesAccessed:  st.LeavesAccessed,
		LeavesSkipped:   st.LeavesSkipped,
		TotalNodes:      st.TotalNodes,
		Enqueued:        st.Enqueued,
		PruningPower:    st.PruningPower,
		PageReads:       bs.Misses - before.Misses, // each miss is one physical read
		BufferHits:      bs.Hits - before.Hits,
		Retries:         bs.Retries - before.Retries,
		Evictions:       bs.Evictions - before.Evictions,
		ExactRefined:    st.ExactRefined,
		TerminatedEarly: st.TerminatedEarly,
		Degraded:        st.Degraded,
		CertFloor:       st.CertFloor,
	}, nil
}

// Dissimilarity returns the exact DISSIM between two trajectories over
// [t1, t2]; ok is false when either does not cover the period.
func Dissimilarity(q, t *Trajectory, t1, t2 float64) (float64, bool) {
	return dissim.Exact(q, t, t1, t2)
}

// DissimilarityApprox returns the trapezoid-rule DISSIM (Lemma 1) and its
// certified error bound: the exact value lies within ±errBound.
func DissimilarityApprox(q, t *Trajectory, t1, t2 float64) (value, errBound float64, ok bool) {
	v, ok := dissim.Approx(q, t, t1, t2, 1)
	return v.Approx, v.Err, ok
}

// LCSSSimilarity is the Longest Common SubSequence similarity in [0, 1]
// (1 = identical); eps is the per-axis matching threshold, delta the index
// band (< 0 disables).
func LCSSSimilarity(a, b *Trajectory, eps float64, delta int) float64 {
	return baselines.LCSS(a, b, eps, delta)
}

// EDRDistance is the Edit Distance on Real sequence (smaller = more
// similar).
func EDRDistance(a, b *Trajectory, eps float64) int { return baselines.EDR(a, b, eps) }

// DTWDistance is the Dynamic Time Warping distance (smaller = more
// similar).
func DTWDistance(a, b *Trajectory) float64 { return baselines.DTW(a, b) }

// CompressTDTR compresses a trajectory with the TD-TR algorithm; p is the
// tolerance as a fraction of the trajectory's length (e.g. 0.01 = 1 %).
func CompressTDTR(tr *Trajectory, p float64) Trajectory {
	return tdtr.CompressRatio(tr, p)
}

// SegmentHit is one range-query answer: a stored trajectory's motion
// segment intersecting the query window.
type SegmentHit struct {
	TrajID ID
	SeqNo  uint32
	// X1, Y1, T1 — X2, Y2, T2 are the segment's endpoints, kept flat for
	// compatibility; Start/End expose the same data as typed points.
	X1, Y1, T1 float64
	X2, Y2, T2 float64
}

// Start returns the segment's earlier endpoint as a typed point.
func (h SegmentHit) Start() STPoint { return STPoint{X: h.X1, Y: h.Y1, T: h.T1} }

// End returns the segment's later endpoint as a typed point.
func (h SegmentHit) End() STPoint { return STPoint{X: h.X2, Y: h.Y2, T: h.T2} }

// Neighbor is one historical point-NN answer.
type Neighbor struct {
	TrajID ID
	Dist   float64
}

// TopologyResult describes how one stored trajectory relates to a queried
// region during a time window.
type TopologyResult struct {
	TrajID ID
	// Relation is the topological predicate name: "inside", "enter",
	// "leave", "cross", "detour" or "weave" (objects never entering the
	// region are not reported).
	Relation string
	// InsideDuration is the total time spent inside the region.
	InsideDuration float64
}

// RelaxedResult is one time-relaxed k-MST answer: the best DISSIM over all
// feasible time shifts of the query, and the shift achieving it.
type RelaxedResult struct {
	TrajID ID
	Dissim float64
	Offset float64
}

// QueryCostEstimate prices a k-MST query before running it (see package
// selectivity; the paper's §6 query-optimization direction).
type QueryCostEstimate struct {
	// CorridorRadius is the predicted spatial radius within which the k
	// answers travel.
	CorridorRadius float64
	// ExpectedSegments is the predicted leaf-entry workload.
	ExpectedSegments float64
	// ExpectedLeafPages approximates the leaf I/O of the search.
	ExpectedLeafPages float64
	// RangeSelectivity of the query's bounding window, for comparison
	// with a plain range scan.
	RangeSelectivity float64
}

// EstimateQueryCost predicts the work a k-MST query would perform,
// using a 3D histogram over the stored segments (built lazily, cached
// until the next Add).
func (db *DB) EstimateQueryCost(q *Trajectory, t1, t2 float64, k int) (QueryCostEstimate, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.estimateQueryCostLocked(q, t1, t2, k)
}

// estimateQueryCostLocked is EstimateQueryCost under an already-held lock,
// so QueryAuto and Explain can price and execute a query against one
// consistent snapshot of the store. Callers must hold db.mu (either side).
func (db *DB) estimateQueryCostLocked(q *Trajectory, t1, t2 float64, k int) (QueryCostEstimate, error) {
	if q == nil {
		return QueryCostEstimate{}, fmt.Errorf("%w: nil query trajectory", ErrBadQuery)
	}
	h, err := db.histogram()
	if err != nil {
		return QueryCostEstimate{}, err
	}
	est := h.EstimateKMST(q, t1, t2, k, index.MaxLeafEntries(db.file.PageSize()))
	box := q.Bounds()
	box.MinX -= est.Radius
	box.MinY -= est.Radius
	box.MaxX += est.Radius
	box.MaxY += est.Radius
	box.MinT, box.MaxT = t1, t2
	return QueryCostEstimate{
		CorridorRadius:    est.Radius,
		ExpectedSegments:  est.Segments,
		ExpectedLeafPages: est.LeafPages,
		RangeSelectivity:  h.Selectivity(box),
	}, nil
}

// histogram lazily builds the selectivity histogram (resolution grows with
// the cube root of the segment count, capped for memory). Callers must
// hold db.mu (either side); queries share the cache via dsMu.
func (db *DB) histogram() (*selectivity.Histogram, error) {
	db.dsMu.Lock()
	defer db.dsMu.Unlock()
	if db.hist != nil {
		return db.hist, nil
	}
	if db.ds == nil {
		ds, err := trajectory.NewDataset(db.trajs)
		if err != nil {
			return nil, err
		}
		db.ds = ds
	}
	res := int(math.Cbrt(float64(db.numSegments()))) / 2
	if res < 4 {
		res = 4
	}
	if res > 32 {
		res = 32
	}
	h, err := selectivity.Build(db.ds, res, res, res)
	if err != nil {
		return nil, err
	}
	db.hist = h
	return h, nil
}

// Geographic import helpers, re-exported from the trajectory model: build
// metric trajectories from GPS fixes via a local projection.
type (
	// GeoSample is one GPS fix (degrees, seconds).
	GeoSample = trajectory.GeoSample
	// GeoProjection is a local equirectangular projection shared by a
	// dataset.
	GeoProjection = trajectory.GeoProjection
)

// NewGeoProjection creates a projection centred at (lat0, lon0) degrees.
func NewGeoProjection(lat0, lon0 float64) (*GeoProjection, error) {
	return trajectory.NewGeoProjection(lat0, lon0)
}

// FromLatLon converts GPS fixes to a metric trajectory under the
// projection (x east, y north, metres; time in seconds).
func FromLatLon(p *GeoProjection, id ID, samples []GeoSample) (Trajectory, error) {
	return trajectory.FromLatLon(p, id, samples)
}

// ReadTrajectoriesCSV parses trajectories from "id,x,y,t" rows (samples
// grouped by id in temporal order).
func ReadTrajectoriesCSV(r io.Reader) ([]Trajectory, error) { return trajectory.ReadCSV(r) }

// WriteTrajectoriesCSV writes trajectories as "id,x,y,t" rows.
func WriteTrajectoriesCSV(w io.Writer, trajs []Trajectory) error {
	return trajectory.WriteCSV(w, trajs)
}
