package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"mstsearch"
	"mstsearch/internal/baselines"
	"mstsearch/internal/dissim"
	"mstsearch/internal/geom"
	"mstsearch/internal/index"
	"mstsearch/internal/mst"
	"mstsearch/internal/ntree"
	"mstsearch/internal/rtree"
	"mstsearch/internal/storage"
	"mstsearch/internal/tbtree"
	"mstsearch/internal/trajectory"
	"mstsearch/internal/wal"
)

// rawStack is the query path rebuilt from the layers' public constructors:
// page file, index, buffer pool, search. A DB keeps these private, so the
// traced run builds its own copy over the same trajectories to put a
// decorator at every seam.
type rawStack struct {
	kind mstsearch.IndexKind
	file *storage.File
	ds   *trajectory.Dataset
	vmax float64
	open func(storage.Pager) index.Index // a read view of the index over a pager
}

func buildRawStack(kind mstsearch.IndexKind, trajs []mstsearch.Trajectory) (*rawStack, error) {
	ds, err := trajectory.NewDataset(trajs)
	if err != nil {
		return nil, err
	}
	r := &rawStack{kind: kind, file: storage.NewFile(storage.DefaultPageSize), ds: ds, vmax: ds.MaxSpeed()}
	each := func(insert func(*trajectory.Trajectory) error) error {
		for i := range ds.Trajs {
			if err := insert(&ds.Trajs[i]); err != nil {
				return err
			}
		}
		return nil
	}
	switch kind {
	case mstsearch.RTree3D:
		t := rtree.New(r.file)
		err = each(func(tr *trajectory.Trajectory) error {
			for s := 0; s < tr.NumSegments(); s++ {
				if err := t.Insert(index.LeafEntry{TrajID: tr.ID, SeqNo: uint32(s), Seg: tr.Segment(s)}); err != nil {
					return err
				}
			}
			return nil
		})
		r.open = func(p storage.Pager) index.Index { return rtree.Open(p, t.Meta()) }
	case mstsearch.TBTree:
		t := tbtree.New(r.file)
		err = each(t.InsertTrajectory)
		r.open = func(p storage.Pager) index.Index { return tbtree.Open(p, t.Meta()) }
	case mstsearch.NTree:
		t := ntree.New(r.file, ds.Get)
		err = each(t.InsertTrajectory)
		r.open = func(p storage.Pager) index.Index { return ntree.Open(p, t.Meta(), ds.Get) }
	default:
		err = fmt.Errorf("no raw stack for index kind %s", kind)
	}
	return r, err
}

// search runs one request the way DB.Query does below its lock: the same
// options, the dataset for exact refinement, Vmax from both sides.
func (r *rawStack) search(view index.Index, req *mstsearch.Request, refine bool, hook func(mst.TraceEvent)) ([]mst.Result, mst.Stats, error) {
	opts := mst.Options{K: req.K, Vmax: r.vmax + req.Q.MaxSpeed(), Refine: 1, Trace: hook}
	ctx := context.Background()
	if mt, ok := view.(index.MetricTree); ok {
		opts.Data = r.ds
		return mst.MetricSearchContext(ctx, mt, req.Q, req.Interval.T1, req.Interval.T2, req.Metric, req.MetricEps, opts)
	}
	if refine {
		opts.Data = r.ds
	}
	return mst.SearchContext(ctx, view.(index.Tree), req.Q, req.Interval.T1, req.Interval.T2, opts)
}

// alternate times a and b back to back, a first on even i and b first on odd
// i. Taking a difference per pair, with the order alternating, cancels the
// host's drift and the warmth the first call leaves for the second.
func alternate(i int, a, b func() (float64, error)) (ua, ub float64, err error) {
	if i%2 == 0 {
		if ua, err = a(); err == nil {
			ub, err = b()
		}
		return ua, ub, err
	}
	if ub, err = b(); err == nil {
		ua, err = a()
	}
	return ua, ub, err
}

// harvest collects, through Options.Trace, the inputs the kernels saw, so
// each kernel can be replayed alone on the workload's own data.
type harvest struct {
	req      *mstsearch.Request
	reqCands int // candidates kept from req so far

	admits int
	boxes  []boxInput
	pages  []storage.PageID
	cands  []candInput
}

type boxInput struct {
	req *mstsearch.Request
	box geom.MBB
}

type candInput struct {
	req *mstsearch.Request
	id  mstsearch.ID
}

// Caps keep the replays to a fraction of a second; the cap per request
// spreads the candidates over the queries instead of taking the first few
// queries' whole candidate sets.
const (
	maxBoxes        = 1 << 14
	maxPages        = 1 << 12
	maxCands        = 256
	maxCandsPerStep = 3
)

// next points the harvest at the request about to run.
func (h *harvest) next(req *mstsearch.Request) { h.req, h.reqCands = req, 0 }

func (h *harvest) event(ev mst.TraceEvent) {
	switch ev.Kind {
	case mst.EventNodeEnqueue:
		if len(h.boxes) < maxBoxes {
			h.boxes = append(h.boxes, boxInput{h.req, ev.MBB})
		}
	case mst.EventNodeVisit:
		if len(h.pages) < maxPages {
			h.pages = append(h.pages, ev.Page)
		}
	case mst.EventCandidateAdmit:
		h.admits++
	case mst.EventCandidateComplete:
		if len(h.cands) < maxCands && h.reqCands < maxCandsPerStep {
			h.cands = append(h.cands, candInput{h.req, ev.TrajID})
			h.reqCands++
		}
	}
}

// probeSearch measures the layers under DB.Query on the raw stack: one
// decorated pass for spans and kernel inputs, undecorated passes for time and
// allocations, then the kernels replayed one by one.
func probeSearch(rec *runRecord, tr *tracer, r *rawStack, reqs []*mstsearch.Request) error {
	n := len(reqs)
	metric := r.kind.Metric()

	// The decorated stack, outermost first: tree, pool, file.
	sc := newScope(tr)
	tracedPool := storage.NewSharedPaperPool(tracedPager{r.file, sc, spanFileRead})
	var traced index.Index
	switch v := r.open(tracedPager{tracedPool, sc, spanPoolRead}).(type) {
	case index.MetricTree:
		traced = tracedMetricTree{v, sc}
	case index.Tree:
		traced = tracedTree{v, sc}
	}

	// Two decorated passes. The first warms the pool and, through the trace
	// hook, harvests the kernels' inputs; the second runs without the hook,
	// so its spans time the search as an untraced query runs it.
	h := &harvest{}
	stats := make([]mst.Stats, n)
	first := 0
	for pass := 0; pass < 2; pass++ {
		first = len(tr.all())
		hook := h.event
		if pass == 1 {
			hook = nil
		}
		for i, req := range reqs {
			sc.op = int32(i)
			h.next(req)
			prev := sc.enter(spanSearch)
			_, st, err := r.search(traced, req, true, hook)
			sc.leave(prev)
			if err != nil {
				return err
			}
			stats[i] = st
		}
	}
	spans := tr.all()
	self := selfTimes(spans)
	searchUs, selfUs := make([]float64, n), make([]float64, n)
	readUs, poolUs := make([]float64, n), make([]float64, n)
	for i := first; i < len(spans); i++ {
		s := &spans[i]
		us := float64(s.End-s.Start) / 1e3
		switch s.Name {
		case spanSearch:
			searchUs[s.Op], selfUs[s.Op] = us, float64(self[i])/1e3
		case spanReadNode:
			readUs[s.Op] += us
		case spanPoolRead:
			poolUs[s.Op] += us
		}
	}
	prefix := "mst."
	if metric {
		prefix = "mst.metric_"
	}
	rec.put(prefix+"search_us", median(searchUs), n)
	rec.put(prefix+"self_us", median(selfUs), n)
	rec.put("index.read_node_us_per_query", median(readUs), n)
	rec.put("storage.pool_us_per_query", median(poolUs), n)

	var nodes, leaves, enq, prune, trap, refined, rejected, early float64
	for _, st := range stats {
		nodes += float64(st.NodesAccessed)
		leaves += float64(st.LeavesAccessed)
		enq += float64(st.Enqueued)
		prune += st.PruningPower
		trap += float64(st.TrapezoidEvals)
		refined += float64(st.ExactRefined)
		rejected += float64(st.Rejected)
		if st.TerminatedEarly {
			early++
		}
	}
	fn := float64(n)
	rec.put("index.nodes_per_query", nodes/fn, n)
	rec.put("index.leaves_per_query", leaves/fn, n)
	rec.put("index.enqueued_per_query", enq/fn, n)
	rec.put("index.pruning_power", prune/fn, n)
	rec.put("mst.candidates_per_query", float64(h.admits)/fn, n)
	rec.put("mst.rejected_per_query", rejected/fn, n)
	rec.put("mst.early_terminated_share", early/fn, n)
	if metric {
		rec.put("ntree.dist_evals_per_query", refined/fn, n)
		rec.put("ntree.nodes_per_query", nodes/fn, n)
		rec.put("ntree.height", float64(traced.Height()), 1)
	} else {
		rec.put("dissim.trapezoid_evals_per_query", trap/fn, n)
		rec.put("dissim.exact_refined_per_query", refined/fn, n)
	}

	// Undecorated searches over a pool of their own. Refinement is priced by
	// running each query with and without it; that pass also warms the pool
	// for the one that counts allocations and page reads.
	pool := storage.NewSharedPaperPool(r.file)
	view := r.open(pool)
	plain := func(req *mstsearch.Request, refine bool) (float64, error) {
		t0 := time.Now()
		_, _, err := r.search(view, req, refine, nil)
		return float64(time.Since(t0).Nanoseconds()) / 1e3, err
	}
	if metric { // a metric search always refines: only the warming is needed
		for _, req := range reqs {
			if _, err := plain(req, true); err != nil {
				return err
			}
		}
	} else {
		refineUs := make([]float64, n)
		for i, req := range reqs {
			with, without, err := alternate(i,
				func() (float64, error) { return plain(req, true) },
				func() (float64, error) { return plain(req, false) })
			if err != nil {
				return err
			}
			refineUs[i] = with - without
		}
		rec.put("mst.refine_us", median(refineUs), n)
	}
	ioBefore, memBefore := pool.Stats(), readMem()
	for _, req := range reqs {
		if _, err := plain(req, true); err != nil {
			return err
		}
	}
	memAfter, ioAfter := readMem(), pool.Stats()
	rec.put("mst.search_allocs", float64(memAfter.mallocs-memBefore.mallocs)/fn, n)
	rec.put("mst.search_alloc_kb", float64(memAfter.bytes-memBefore.bytes)/1024/fn, n)
	hits, misses := float64(ioAfter.Hits-ioBefore.Hits), float64(ioAfter.Misses-ioBefore.Misses)
	rec.put("storage.pool_hit_share", hits/(hits+misses), int(hits+misses))
	rec.put("storage.page_reads_per_query", misses/fn, n)
	rec.put("storage.evictions_per_query", float64(ioAfter.Evictions-ioBefore.Evictions)/fn, n)

	if err := replayKernels(rec, r, h); err != nil {
		return err
	}
	probePool(rec, r.file)

	// Kernel busy time per query: calls counted by the search, times the
	// kernel's replayed cost. Notes, not metrics: they say where the
	// workload puts its work.
	busy := func(name string, calls float64) float64 { return calls / fn * rec.Metrics[name].Value / 1e3 }
	rec.note("busy_us.index.mindist", busy("index.mindist_mbb_ns", enq))
	rec.note("busy_us.dissim", busy("dissim.interval_ns", trap)+busy("dissim.partial_step_ns", trap)+busy("dissim.exact_ns", refined))
	rec.note("busy_us.baselines.dtw", busy("baselines.dtw_ns", refined))
	return nil
}

// sink takes the kernels' results, so the compiler cannot drop a replayed call.
var sink float64

// replayKernels times each kernel alone on the inputs the search gave it.
func replayKernels(rec *runRecord, r *rawStack, h *harvest) error {
	// Node decode, on the pages the searches visited.
	bufs := make([][]byte, len(h.pages))
	for i, id := range h.pages {
		buf, err := r.file.Read(id)
		if err != nil {
			return err
		}
		bufs[i] = buf
	}
	decode := func(i int) {
		if n, err := index.DecodeNode(h.pages[i], bufs[i]); err == nil {
			sink += float64(n.Len())
		}
	}
	if r.kind.Metric() {
		decode = func(i int) {
			if n, err := index.DecodeMetricNode(h.pages[i], bufs[i]); err == nil {
				sink += float64(n.Len())
			}
		}
	}
	ns, allocs := perCall(len(bufs), 16, decode)
	rec.put("index.decode_node_ns", ns, len(bufs))
	rec.put("index.decode_node_allocs", allocs, len(bufs))

	if r.kind.Metric() {
		// The distance kernel, on the window slices the search evaluated.
		type pair struct{ q, t trajectory.Trajectory }
		var pairs []pair
		for _, c := range h.cands {
			q, ok1 := c.req.Q.Slice(c.req.Interval.T1, c.req.Interval.T2)
			t, ok2 := r.ds.Get(c.id).Slice(c.req.Interval.T1, c.req.Interval.T2)
			if ok1 && ok2 {
				pairs = append(pairs, pair{q, t})
			}
		}
		ns, allocs := perCall(len(pairs), 1, func(i int) { sink += baselines.DTW(&pairs[i].q, &pairs[i].t) })
		rec.put("baselines.dtw_ns", ns, len(pairs))
		rec.put("baselines.dtw_allocs", allocs, len(pairs))
		return nil
	}

	// MINDIST, on the boxes the searches enqueued.
	ns, _ = perCall(len(h.boxes), 64, func(i int) {
		b := &h.boxes[i]
		d, _ := index.MinDistTrajMBB(b.req.Q, b.box, b.req.Interval.T1, b.req.Interval.T2)
		sink += d
	})
	rec.put("index.mindist_mbb_ns", ns, len(h.boxes))

	// The DISSIM kernels, on the candidates the searches completed.
	type segPair struct{ qs, ts geom.Segment }
	var (
		pairs []segPair
		perC  [][]dissim.Interval
	)
	for _, c := range h.cands {
		var ivs []dissim.Interval
		trajectory.ForEachAligned(c.req.Q, r.ds.Get(c.id), c.req.Interval.T1, c.req.Interval.T2, func(qs, ts geom.Segment) bool {
			pairs = append(pairs, segPair{qs, ts})
			ivs = append(ivs, dissim.IntervalOf(qs, ts, 1))
			return true
		})
		perC = append(perC, ivs)
	}
	ns, _ = perCall(len(pairs), 64, func(i int) { sink += dissim.IntervalOf(pairs[i].qs, pairs[i].ts, 1).D1 })
	rec.put("dissim.interval_ns", ns, len(pairs))
	ns, _ = perCall(len(h.cands), 1, func(i int) {
		c := &h.cands[i]
		d, _ := dissim.Exact(c.req.Q, r.ds.Get(c.id), c.req.Interval.T1, c.req.Interval.T2)
		sink += d
	})
	rec.put("dissim.exact_ns", ns, len(h.cands))

	// A candidate's assembly: every arriving interval is added, then both
	// bounds are refreshed, as the search does per leaf entry. Intervals
	// arrive leaf by leaf: in runs that are in order inside, out of order
	// between.
	rng := rand.New(rand.NewSource(1))
	var stepNs []float64
	steps := 0
	before := readMem()
	for _, ivs := range perC {
		order := runOrder(rng, len(ivs), 16)
		t0 := time.Now()
		p := dissim.NewPartial(ivs[0].T1, ivs[len(ivs)-1].T2)
		for _, j := range order {
			p.Add(ivs[j])
			sink += p.OptDissim(r.vmax) + p.PesDissim(r.vmax)
		}
		stepNs = append(stepNs, float64(time.Since(t0).Nanoseconds())/float64(len(ivs)))
		steps += len(ivs)
	}
	after := readMem()
	if steps > 0 {
		rec.put("dissim.partial_step_ns", median(stepNs), steps)
		rec.put("dissim.partial_step_allocs", float64(after.mallocs-before.mallocs)/float64(steps), steps)
	}
	return nil
}

// runOrder returns 0..n-1 cut into runs of length run, the runs shuffled.
func runOrder(rng *rand.Rand, n, run int) []int {
	var starts []int
	for s := 0; s < n; s += run {
		starts = append(starts, s)
	}
	rng.Shuffle(len(starts), func(i, j int) { starts[i], starts[j] = starts[j], starts[i] })
	order := make([]int, 0, n)
	for _, s := range starts {
		for j := s; j < s+run && j < n; j++ {
			order = append(order, j)
		}
	}
	return order
}

// probePool times StripedPool.Read alone: hits on a resident set half the
// pool's size, misses by sweeping the whole file through a pool a tenth of it.
func probePool(rec *runRecord, file *storage.File) {
	const reads = 1 << 13
	pages := file.NumPages()
	pool := storage.NewSharedPaperPool(file)
	resident := pool.Capacity()/2 + 1
	for i := 0; i < resident; i++ {
		pool.Read(storage.PageID(i))
	}
	before := pool.Stats()
	ns, _ := perCall(reads, 64, func(i int) { pool.Read(storage.PageID(i % resident)) })
	if after := pool.Stats(); after.Misses == before.Misses {
		rec.put("storage.pool_hit_ns", ns, reads)
	}
	if pages < 2*pool.Capacity() {
		return // too small a file to force misses
	}
	pool = storage.NewSharedPaperPool(file)
	ns, _ = perCall(reads, 64, func(i int) { pool.Read(storage.PageID(i % pages)) })
	if st := pool.Stats(); st.Hits*100 < st.Misses {
		rec.put("storage.pool_miss_ns", ns, reads)
	}
}

// probeDB measures the facade on a live DB: Query, the batch executor, and
// the write calls with the query that follows a write. trajs is what the DB
// holds; the writes extend it, so this runs after every check of db.
func probeDB(rec *runRecord, db *mstsearch.DB, trajs []mstsearch.Trajectory, reqs []*mstsearch.Request, writes int) error {
	ctx := context.Background()
	n := len(reqs)
	query := func(req *mstsearch.Request) (float64, error) {
		t0 := time.Now()
		_, err := db.Query(ctx, *req)
		return float64(time.Since(t0).Nanoseconds()) / 1e3, err
	}
	for _, req := range reqs { // warm the DB's pool after whatever ran before
		if _, err := query(req); err != nil {
			return err
		}
	}
	queryUs := make([]float64, n)
	before := readMem()
	for i, req := range reqs {
		us, err := query(req)
		if err != nil {
			return err
		}
		queryUs[i] = us
	}
	after := readMem()
	rec.put("db.query_us", median(queryUs), n)
	rec.put("db.query_allocs", float64(after.mallocs-before.mallocs)/float64(n), n)
	rec.put("db.query_alloc_kb", float64(after.bytes-before.bytes)/1024/float64(n), n)

	// What the facade adds to a search: a query on a window the data never
	// reaches reads the root, finds no overlap and returns, so what is left
	// is the lock, the view, the dataset handle, the stats and the metrics.
	// (DB.Query minus the raw stack's search of the same query was tried
	// first: the two stacks' memory placement alone moved it by 80 us.)
	idle := *reqs[0]
	idle.Q = &mstsearch.Trajectory{Samples: []mstsearch.Sample{{X: 0.5, Y: 0.5, T: 10}, {X: 0.5, Y: 0.5, T: 11}}}
	idle.Interval = mstsearch.Interval{T1: 10, T2: 11}
	if resp, err := db.Query(ctx, idle); err != nil || len(resp.Results) != 0 {
		return fmt.Errorf("the idle query returned %d results, error %v", len(resp.Results), err)
	}
	const idleCalls = 4096
	ns, _ := perCall(idleCalls, 64, func(int) {
		resp, _ := db.Query(ctx, idle)
		sink += float64(resp.Stats.NodesAccessed)
	})
	rec.put("db.query_self_us", ns/1e3, idleCalls)

	batch := make([]mstsearch.BatchQuery, n)
	for i, req := range reqs {
		batch[i] = mstsearch.BatchQuery{Q: req.Q, T1: req.Interval.T1, T2: req.Interval.T2, K: req.K, Metric: req.Metric}
	}
	for _, p := range []struct {
		name    string
		workers int
	}{{"db.batch_us_per_query.p1", 1}, {"db.batch_us_per_query.pN", runtime.NumCPU()}} {
		opts := mstsearch.DefaultOptions()
		opts.Parallelism = p.workers
		t0 := time.Now()
		for _, br := range db.KMostSimilarBatch(ctx, batch, opts) {
			if br.Err != nil {
				return br.Err
			}
		}
		rec.put(p.name, float64(time.Since(t0).Nanoseconds())/1e3/float64(n), n)
	}

	var appendUs, afterUs, addUs []float64
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < writes; i++ {
		tr := &trajs[i%len(trajs)]
		last := tr.Samples[len(tr.Samples)-1]
		s := mstsearch.Sample{X: last.X, Y: last.Y, T: last.T + 0.0005*float64(1+i/len(trajs))}
		t0 := time.Now()
		if err := db.AppendSample(tr.ID, s); err != nil {
			return err
		}
		appendUs = append(appendUs, float64(time.Since(t0).Nanoseconds())/1e3)
		// The first query after a write pays for what the write invalidated.
		us, err := query(reqs[i%n])
		if err != nil {
			return err
		}
		afterUs = append(afterUs, us)

		add := mstsearch.Trajectory{ID: mstsearch.ID(900_000_000 + i), Samples: genShape(rng)}
		t0 = time.Now()
		if err := db.Add(add); err != nil {
			return err
		}
		addUs = append(addUs, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	rec.put("db.append_us", median(appendUs), writes)
	rec.put("db.query_after_write_us", median(afterUs), writes)
	rec.put("db.add_us", median(addUs), writes)
	return nil
}

// probeWAL times Log.Append under fsync-always with the workload's record
// sizes: four 28-byte appends to one 51-sample add.
func probeWAL(rec *runRecord) error {
	dir, err := os.MkdirTemp("", "mstbench-wal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	log, _, err := wal.Open(dir, 0, wal.Options{Policy: wal.PolicyAlways})
	if err != nil {
		return err
	}
	defer log.Close()
	small, large := make([]byte, 28), make([]byte, 8+24*ingestSamples)
	const appends = 200
	us := make([]float64, appends)
	for i := range us {
		payload := small
		if i%5 == 4 {
			payload = large
		}
		t0 := time.Now()
		if err := log.Append(2, payload); err != nil {
			return err
		}
		us[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
	}
	rec.put("wal.append_us", median(us), appends)
	return nil
}
