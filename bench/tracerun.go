package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"strings"
	"time"

	"mstsearch"
	"mstsearch/internal/obs"
)

// tracedInstance is an instance whose do can record spans.
type tracedInstance interface {
	instance
	startTrace(tr *tracer)
	stopTrace()
	// probe measures the layers one by one after the two timed windows, and
	// runs the same checks finish does. It leaves the instance closed.
	probe(rec *runRecord, tr *tracer, out *outcome) error
}

// runTraced is the -trace 1 run: one set-up, a window with tracing off and
// one with it on (their medians give the tracing overhead), then the layer
// probes. Every per-layer metric is reported; one that stays 0 belongs to a
// layer this workload does not cross.
func runTraced(w *workloadSpec, seed int64, tm timing, spansPath string) (*runRecord, error) {
	pool := genPool(w, seed)
	rec := newRecord(w, seed, 1, pool)
	for _, d := range perLayer {
		rec.put(d.Name, 0, 0)
	}
	in, err := setup(w, pool, seed)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	shed := obsSum("server.requests.", ".shed")
	total := obsSum("server.requests.", ".total")
	failovers := obsSum("shard.replica.failovers", "")
	inst := in.(tracedInstance)
	window := tm.timed / 4

	// Plain and traced windows alternate, so drift over the run falls on both
	// sides of the overhead ratio.
	tr := newTracer()
	var plain, traced loopResult
	for round := 0; round < 2; round++ {
		before := readMem()
		lr := runLoop(w.clients, len(pool), window/2, inst.do)
		if after := readMem(); w.serve && round == 0 {
			rec.put("server.allocs_per_request", float64(after.mallocs-before.mallocs)/float64(lr.ops()), lr.ops())
		}
		plain.merge(lr)
		inst.startTrace(tr)
		traced.merge(runLoop(w.clients, len(pool), window/2, inst.do))
		inst.stopTrace()
	}
	if len(plain.queryNs) == 0 || len(traced.queryNs) == 0 {
		inst.close()
		return nil, fmt.Errorf("no query completed in %s (first error: %v)", window, plain.firstErr)
	}
	rec.put("trace_overhead_share", median(nsToFloat(traced.queryNs, 1))/median(nsToFloat(plain.queryNs, 1))-1, len(traced.queryNs))
	if reqs := obsSum("server.requests.", ".total") - total; reqs > 0 {
		rec.put("server.shed_share", (obsSum("server.requests.", ".shed")-shed)/reqs, int(reqs))
	}

	var out outcome
	if err := inst.probe(rec, tr, &out); err != nil {
		return nil, fmt.Errorf("layer probes: %w", err)
	}
	if w.serve {
		rec.put("shard.failovers", obsSum("shard.replica.failovers", "")-failovers, 1)
	}
	spans := tr.all()
	if err := checkSpans(spans); err != nil {
		return nil, err
	}
	rec.note("spans", float64(len(spans)))
	if spansPath != "" {
		if err := writeSpans(spansPath, spans); err != nil {
			return nil, err
		}
	}
	rec.Attempted = plain.ops() + traced.ops() + out.checks
	rec.Failed = plain.failed + traced.failed + out.failed
	rec.Correct = rec.Failed == 0
	rec.FirstError = out.firstFailure
	for k, v := range out.notes {
		rec.note(k, v)
	}
	return rec, nil
}

func (r *runRecord) note(name string, v float64) {
	if r.Notes == nil {
		r.Notes = map[string]float64{}
	}
	r.Notes[name] = v
}

// obsSum adds up the process-wide counters named prefix...suffix.
func obsSum(prefix, suffix string) float64 {
	sum := 0.0
	for name, v := range obs.Default.Snapshot().Counters {
		if strings.HasPrefix(name, prefix) && strings.HasSuffix(name, suffix) {
			sum += float64(v)
		}
	}
	return sum
}

func poolRequests(pool []op, n int) []*mstsearch.Request {
	var reqs []*mstsearch.Request
	for _, i := range queryOps(pool, n) {
		reqs = append(reqs, &pool[i].req)
	}
	return reqs
}

// --- library workloads ---

// While a library instance is traced, DB.Query is a root span and the pager
// seam under the DB's pool reports the file reads inside it.
func (in *libInstance) startTrace(tr *tracer) {
	in.sc = newScope(tr)
	sc := in.sc
	in.db.SetPagerWrapper(func(p mstsearch.Pager) mstsearch.Pager {
		return tracedPager{Pager: p, s: sc, name: spanFileRead}
	})
}

func (in *libInstance) stopTrace() {
	in.db.SetPagerWrapper(nil)
	in.sc = nil
}

func (in *libInstance) probe(rec *runRecord, tr *tracer, out *outcome) error {
	defer in.db.Close()
	// A root span's self times sum to its duration, so this median set
	// against db.query_us says whether the traced tree accounts for a query.
	var rootUs []float64
	for _, s := range tr.all() {
		if s.Name == spanDBQuery {
			rootUs = append(rootUs, float64(s.End-s.Start)/1e3)
		}
	}
	rec.note("span_us.db.query", median(rootUs))
	reqs := poolRequests(in.pool, in.w.probeOps)
	stack, err := buildRawStack(in.w.kind, in.fleet)
	if err != nil {
		return err
	}
	if err := probeSearch(rec, tr, stack, reqs); err != nil {
		return err
	}
	// The check comes first: probeDB's writes change the answers.
	in.verify(out)
	writes := in.w.writes
	if writes > 32 {
		writes = 32
	}
	return probeDB(rec, in.db, in.fleet, reqs, writes)
}

// --- serve-rw ---

// Tracing serve-rw swaps the HTTP layer onto a decorated engine and a
// byte-counting transport; the untraced windows run without either.
func (in *serveInstance) startTrace(tr *tracer) {
	if in.engine == nil {
		in.engine = newTracedEngine(in.cluster, tr)
		in.bytes = &countingTransport{}
	}
	in.tr = tr
	in.serveOn(in.engine, func(rt http.RoundTripper) http.RoundTripper {
		in.bytes.RoundTripper = rt
		return in.bytes
	})
}

func (in *serveInstance) stopTrace() {
	in.tr = nil
	in.serveOn(in.cluster, nil)
}

func (in *serveInstance) probe(rec *runRecord, tr *tracer, out *outcome) error {
	defer in.close()
	in.probeServer(rec, tr)

	model, err := in.quiesce(out)
	if err != nil {
		return err
	}
	// Recover with the scatter serialised and the checkpoint trigger off, so
	// the probes below time one thing each.
	reopen, err := in.reopen(-1, 1)
	if err != nil {
		return err
	}
	rec.put("wal.reopen_s", reopen.Seconds(), 1)
	rec.put("wal.checkpoints", out.notes["checkpoints_in_run"], 1)
	in.cluster.EnableWarmBuffer()
	in.verifyState(out, model)
	in.verifyAnswers(out, model, in.askCluster)

	reqs := poolRequests(in.pool, in.w.probeOps)
	if err := in.probeCluster(rec, model, reqs); err != nil {
		return err
	}
	if err := probeWAL(rec); err != nil {
		return err
	}

	// The layers under one shard's DB, on what shard 0 holds: a standalone
	// durable DB for the facade and a raw stack for the seams below it.
	var part []mstsearch.Trajectory
	for i := range model {
		if in.cluster.Owner(model[i].ID) == 0 {
			part = append(part, model[i].Clone())
		}
	}
	stack, err := buildRawStack(in.w.kind, part)
	if err != nil {
		return err
	}
	if err := probeSearch(rec, tr, stack, reqs); err != nil {
		return err
	}
	dir, err := os.MkdirTemp("", "mstbench-db-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	db, err := mstsearch.OpenDurable(dir, in.w.kind, clusterOptions(-1, 0).Durable)
	if err != nil {
		return err
	}
	defer db.Close()
	for i := range part {
		if err := db.Add(part[i]); err != nil {
			return err
		}
	}
	db.EnableWarmBuffer()
	const writes = 32
	if err := probeDB(rec, db, part, reqs, writes); err != nil {
		return err
	}
	rec.put("shard.write_overhead_us", rec.Metrics["shard.write_us"].Value-rec.Metrics["db.append_us"].Value, writes)
	var ckptMs []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		if err := db.Checkpoint(); err != nil {
			return err
		}
		ckptMs = append(ckptMs, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	rec.put("db.checkpoint_ms", median(ckptMs), len(ckptMs))
	return nil
}

// probeServer reads the serving layer's numbers off the traced window: the
// client spans, the engine spans inside them, the batches the coalescer
// formed and the bytes on the wire.
func (in *serveInstance) probeServer(rec *runRecord, tr *tracer) {
	spans := tr.all()
	engineNs := map[int32]int64{} // client span -> time inside the engine
	for _, s := range spans {
		if s.Name == spanEngine {
			engineNs[s.Parent] += s.End - s.Start
		}
	}
	var requestUs, selfUs []float64
	for i, s := range spans {
		if s.Name != spanClient {
			continue
		}
		inside, ok := engineNs[int32(i)]
		if !ok || inside == 0 {
			continue
		}
		requestUs = append(requestUs, float64(s.End-s.Start)/1e3)
		selfUs = append(selfUs, float64(s.End-s.Start-inside)/1e3)
	}
	rec.put("server.request_us", median(requestUs), len(requestUs))
	rec.put("server.self_us", median(selfUs), len(selfUs))

	queries, coalesced := 0, 0
	for _, b := range in.engine.batches {
		queries += b
		if b > 1 {
			coalesced += b
		}
	}
	if queries > 0 {
		rec.put("server.coalesced_share", float64(coalesced)/float64(queries), queries)
		rec.put("server.batch_size_mean", float64(queries)/float64(len(in.engine.batches)), len(in.engine.batches))
		degraded := 0
		for _, c := range in.clients {
			degraded += c.degraded
		}
		rec.put("server.degraded_share", float64(degraded)/float64(queries), queries)
	}
	if n := in.bytes.queries.Load(); n > 0 {
		rec.put("server.request_bytes", float64(in.bytes.reqBytes.Load())/float64(n), int(n))
		rec.put("server.response_bytes", float64(in.bytes.respBytes.Load())/float64(n), int(n))
	}
}

// probeCluster measures scatter-gather and the replicated write path on the
// reopened cluster, one call at a time.
func (in *serveInstance) probeCluster(rec *runRecord, model []mstsearch.Trajectory, reqs []*mstsearch.Request) error {
	ctx := context.Background()
	n := len(reqs)
	var queryUs, overheadUs []float64
	fanout, pruned := 0, 0
	for pass := 0; pass < 2; pass++ { // the first pass warms the shards' pools
		queryUs, overheadUs, fanout, pruned = queryUs[:0], overheadUs[:0], 0, 0
		for _, req := range reqs {
			t0 := time.Now()
			_, qs, err := in.cluster.QueryShards(ctx, *req)
			whole := time.Since(t0)
			if err != nil {
				return err
			}
			// Overhead is what scatter, bounds, merge and replica choice
			// add to the searches themselves, repeated here shard by shard.
			var shards time.Duration
			for i, st := range qs.PerShard {
				if st == nil {
					continue
				}
				t0 := time.Now()
				if _, err := in.cluster.Shard(i).Query(ctx, *req); err != nil {
					return err
				}
				shards += time.Since(t0)
			}
			queryUs = append(queryUs, float64(whole.Nanoseconds())/1e3)
			overheadUs = append(overheadUs, float64((whole-shards).Nanoseconds())/1e3)
			fanout += qs.Fanout
			pruned += qs.Pruned
		}
	}
	rec.put("shard.query_us", median(queryUs), n)
	rec.put("shard.overhead_us", median(overheadUs), n)
	rec.put("shard.fanout_per_query", float64(fanout)/float64(n), n)
	rec.put("shard.pruned_per_query", float64(pruned)/float64(n), n)

	const writes = 128
	walBefore, err := dirBytes(in.dir, "wal-")
	if err != nil {
		return err
	}
	fsyncs := obsSum("wal.fsyncs", "")
	us := make([]float64, writes)
	for i := range us {
		tr := &model[i%len(model)]
		last := tr.Samples[len(tr.Samples)-1]
		s := mstsearch.Sample{X: last.X, Y: last.Y, T: last.T + 0.0005*float64(1+i/len(model))}
		t0 := time.Now()
		if err := in.cluster.AppendSample(tr.ID, s); err != nil {
			return err
		}
		us[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
	}
	walAfter, err := dirBytes(in.dir, "wal-")
	if err != nil {
		return err
	}
	sorted := sortedCopy(us)
	rec.put("shard.write_us", quantile(sorted, 0.5), writes)
	rec.put("shard.write_p99_us", quantile(sorted, tailQuantile(writes)), writes)
	rec.put("wal.fsyncs_per_write", (obsSum("wal.fsyncs", "")-fsyncs)/writes, writes)
	rec.put("wal.bytes_per_user_byte", float64(walAfter-walBefore)/(24*writes), writes)
	return nil
}
