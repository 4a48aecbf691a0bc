package main

import (
	"context"
	"fmt"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"mstsearch"
	"mstsearch/internal/server"
	"mstsearch/internal/shard"
)

const (
	serveShards   = 2
	serveReplicas = 2
	queryTagBase  = mstsearch.ID(1) << 30 // tags of traced queries sit above every trajectory ID
)

// clusterOptions are the serve-rw settings: quorum-acked writes, fsync on
// every mutation. ckpt < 0 switches the auto-checkpoint off (bulk load and
// the write-path probes); workers 0 keeps the cluster's default.
func clusterOptions(ckpt int64, workers int) shard.Options {
	return shard.Options{
		Workers: workers, Replicas: serveReplicas, WriteConcern: shard.WriteQuorum,
		Durable: mstsearch.DurableOptions{Sync: mstsearch.SyncAlways, CheckpointBytes: ckpt},
	}
}

func openCluster(dir string, w *workloadSpec, ckpt int64, workers int) (*shard.Cluster, error) {
	return shard.Open(dir, w.kind, serveShards, shard.HashPlacement{}, clusterOptions(ckpt, workers))
}

// serveClient is one closed-loop caller. It owns a share of the fleet and
// every trajectory it ingests, and keeps what the store must hold for them
// after every acknowledged write.
type serveClient struct {
	api    *server.Client
	owned  []mstsearch.ID
	model  map[mstsearch.ID]*mstsearch.Trajectory
	nextID mstsearch.ID

	degraded int
}

// serveInstance is the serve-rw stack: a durable replicated cluster behind
// the HTTP server, reached over loopback TCP inside this process.
type serveInstance struct {
	w    *workloadSpec
	pool []op
	wire []server.QueryRequest // the pool's queries, ready for the wire
	seed int64

	dir        string
	loadEpochs []int // every replica's checkpoint epoch when set-up ended
	cluster    *shard.Cluster
	srv        *server.Server
	ts         *httptest.Server
	clients    []*serveClient

	// Set by the traced run only.
	tr     *tracer
	engine *tracedEngine
	bytes  *countingTransport
}

func setupServe(w *workloadSpec, pool []op, seed int64) (*serveInstance, error) {
	fleet := genFleet(w.objects, w.samples, seedStoredFleet)
	dir, err := os.MkdirTemp("", "mstbench-serve-rw-")
	if err != nil {
		return nil, err
	}
	in := &serveInstance{w: w, pool: pool, seed: seed, dir: dir}
	ok := false
	defer func() {
		if !ok {
			in.close()
		}
	}()

	// Bulk load with the checkpoint trigger off, fold the log into snapshots,
	// then reopen under the serving settings: set-up pays recovery once, the
	// way a restarted server does.
	if in.cluster, err = openCluster(dir, w, -1, 0); err != nil {
		return nil, err
	}
	for i := range fleet {
		if err := in.cluster.Add(fleet[i]); err != nil {
			return nil, err
		}
	}
	if err := in.cluster.Checkpoint(); err != nil {
		return nil, err
	}
	if err := in.cluster.Close(); err != nil {
		return nil, err
	}
	if in.cluster, err = openCluster(dir, w, checkpointBytes, 0); err != nil {
		return nil, err
	}
	in.cluster.EnableWarmBuffer()

	in.wire = make([]server.QueryRequest, len(pool))
	for i := range pool {
		if pool[i].kind == opQuery {
			in.wire[i] = wireQuery(&pool[i].req)
		}
	}
	for c := 0; c < w.clients; c++ {
		cl := &serveClient{
			model:  map[mstsearch.ID]*mstsearch.Trajectory{},
			nextID: mstsearch.ID(1_000_000 * (c + 1)),
		}
		for i := range fleet {
			if i%w.clients == c {
				tr := fleet[i].Clone()
				cl.model[tr.ID] = &tr
				cl.owned = append(cl.owned, tr.ID)
			}
		}
		in.clients = append(in.clients, cl)
	}
	in.serveOn(in.cluster, nil)

	for i := 0; i < warmOps; i++ {
		if _, err := in.do(i%w.clients, i%len(pool)); err != nil {
			return nil, fmt.Errorf("warm-up operation %d: %w", i, err)
		}
	}
	if in.loadEpochs, err = checkpointEpochs(dir); err != nil {
		return nil, err
	}
	ok = true
	return in, nil
}

// serveOn (re)starts the HTTP layer over engine and points the clients at it.
func (in *serveInstance) serveOn(engine server.Engine, rt func(http.RoundTripper) http.RoundTripper) {
	in.stopServer()
	in.srv = server.NewEngine(engine, server.DefaultConfig())
	in.ts = httptest.NewServer(in.srv)
	hc := in.ts.Client()
	if rt != nil {
		hc.Transport = rt(hc.Transport)
	}
	for _, c := range in.clients {
		c.api = &server.Client{BaseURL: in.ts.URL, HTTP: hc, MaxAttempts: 1}
	}
}

func (in *serveInstance) stopServer() {
	if in.ts != nil {
		in.ts.Close()
		in.srv.Close()
		in.ts, in.srv = nil, nil
	}
}

func (in *serveInstance) close() error {
	in.stopServer()
	var err error
	if in.cluster != nil {
		err = in.cluster.Close()
		in.cluster = nil
	}
	if rmErr := os.RemoveAll(in.dir); err == nil {
		err = rmErr
	}
	return err
}

func wireQuery(req *mstsearch.Request) server.QueryRequest {
	q := server.TrajectoryJSON{ID: uint32(req.Q.ID), Samples: wireSamples(req.Q.Samples)}
	return server.QueryRequest{Query: q, T1: req.Interval.T1, T2: req.Interval.T2, K: req.K}
}

func wireSamples(ss []mstsearch.Sample) [][3]float64 {
	out := make([][3]float64, len(ss))
	for i, s := range ss {
		out[i] = [3]float64{s.X, s.Y, s.T}
	}
	return out
}

// do issues pool operation i as client c. Writes are resolved against the
// client's own trajectories, and the model only advances on an acknowledgement.
func (in *serveInstance) do(c, i int) (bool, error) {
	cl := in.clients[c]
	o := &in.pool[i]
	ctx := context.Background()

	// Traced runs open the client span and tell the engine decorator which
	// call belongs to it: by the written trajectory's ID, or for a query by a
	// tag that travels as the query's own (otherwise unused) ID.
	span := int32(-1)
	begin := func(tag mstsearch.ID) mstsearch.ID {
		if in.tr == nil {
			return tag
		}
		name := spanClient
		if tag != 0 {
			name = spanClientWrite
		}
		span = in.tr.begin(name, -1, -1)
		if tag == 0 {
			tag = queryTagBase + mstsearch.ID(span)
		}
		in.engine.expect(tag, span)
		return tag
	}
	end := func() {
		if span >= 0 {
			in.tr.end(span)
		}
	}

	switch o.kind {
	case opAppend:
		tr := cl.model[cl.owned[o.slot%len(cl.owned)]]
		last := tr.Samples[len(tr.Samples)-1]
		s := mstsearch.Sample{X: clamp01(last.X + o.dx), Y: clamp01(last.Y + o.dy), T: last.T + 0.0005}
		begin(tr.ID)
		_, err := cl.api.Append(ctx, server.AppendRequest{ID: uint32(tr.ID), Sample: [3]float64{s.X, s.Y, s.T}})
		end()
		if err == nil {
			tr.Samples = append(tr.Samples, s)
		}
		return true, err

	case opIngest:
		id := cl.nextID
		cl.nextID++
		// The pool is cycled, so the same shape comes round again: a shift
		// per ingest keeps two stored trajectories from ever tying exactly.
		shift := float64(id%1_000_000) * 1e-6
		tr := mstsearch.Trajectory{ID: id, Samples: make([]mstsearch.Sample, len(o.shape))}
		for j, s := range o.shape {
			tr.Samples[j] = mstsearch.Sample{X: clamp01(s.X + shift), Y: s.Y, T: s.T}
		}
		req := server.IngestRequest{Trajectory: server.TrajectoryJSON{ID: uint32(id), Samples: wireSamples(tr.Samples)}}
		begin(id)
		_, err := cl.api.Ingest(ctx, req, fmt.Sprintf("%d-%d", in.seed, id))
		end()
		if err == nil {
			cl.model[id] = &tr
			cl.owned = append(cl.owned, id)
		}
		return true, err

	default:
		req := in.wire[i]
		req.Query.ID = uint32(begin(0))
		resp, err := cl.api.Query(ctx, req)
		end()
		if err == nil && resp.Degraded {
			cl.degraded++
		}
		if err == nil && len(resp.Results) == 0 {
			err = fmt.Errorf("query %d returned no result", i)
		}
		return false, err
	}
}

// modelTrajs is the state the store must hold: the fleet plus every
// acknowledged write.
func (in *serveInstance) modelTrajs() []mstsearch.Trajectory {
	var out []mstsearch.Trajectory
	for _, c := range in.clients {
		for _, id := range c.owned {
			out = append(out, *c.model[id])
		}
	}
	return out
}

// verifyAnswers checks the oracle subset through ask, against a linear scan
// of the model.
func (in *serveInstance) verifyAnswers(out *outcome, model []mstsearch.Trajectory, ask func(i int) ([]mstsearch.Result, error)) {
	for _, i := range verifySubset(in.pool) {
		got, err := ask(i)
		want := oracle(model, &in.pool[i].req)
		out.check(err == nil && sameAnswer(got, want), "query %d: got %v (error %v), the scan of the model says %v", i, got, err, want)
	}
}

func (in *serveInstance) askHTTP(i int) ([]mstsearch.Result, error) {
	resp, err := in.clients[0].api.Query(context.Background(), in.wire[i])
	if err != nil {
		return nil, err
	}
	got := make([]mstsearch.Result, len(resp.Results))
	for j, r := range resp.Results {
		got[j] = mstsearch.Result{TrajID: mstsearch.ID(r.ID), Dissim: r.Dissim}
	}
	return got, nil
}

func (in *serveInstance) askCluster(i int) ([]mstsearch.Result, error) {
	resp, err := in.cluster.Query(context.Background(), in.pool[i].req)
	return resp.Results, err
}

// verifyState checks that the store holds exactly the model: the counts, and
// every sample of every trajectory a client wrote to.
func (in *serveInstance) verifyState(out *outcome, model []mstsearch.Trajectory) {
	segments := 0
	for i := range model {
		want := &model[i]
		segments += want.NumSegments()
		got := in.cluster.Get(want.ID)
		out.check(got != nil && sameSamples(got.Samples, want.Samples), "trajectory %d differs from its acknowledged writes", want.ID)
	}
	out.check(in.cluster.Len() == len(model) && in.cluster.NumSegments() == segments,
		"store holds %d trajectories and %d segments, the model %d and %d", in.cluster.Len(), in.cluster.NumSegments(), len(model), segments)
}

func sameSamples(a, b []mstsearch.Sample) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// quiesce ends serving: the oracle check through HTTP on the final state, the
// durability check, the last checkpoint and the on-disk size.
func (in *serveInstance) quiesce(out *outcome) ([]mstsearch.Trajectory, error) {
	model := in.modelTrajs()
	in.verifyAnswers(out, model, in.askHTTP)
	in.stopServer()
	in.verifyState(out, model)
	epochs, err := checkpointEpochs(in.dir)
	if err != nil {
		return nil, err
	}
	total, fewest := 0, -1
	for i, e := range epochs {
		gained := e - in.loadEpochs[i]
		total += gained
		if fewest < 0 || gained < fewest {
			fewest = gained
		}
	}
	out.notes = map[string]float64{"checkpoints_in_run": float64(total), "checkpoints_fewest_replica": float64(fewest)}
	if err := in.cluster.Checkpoint(); err != nil {
		return nil, err
	}
	size, err := dirBytes(in.dir, "")
	if err != nil {
		return nil, err
	}
	out.storeRatio = float64(size) / float64(userBytes(model))
	return model, nil
}

// reopen closes the cluster and recovers it from disk, returning how long
// that took.
func (in *serveInstance) reopen(ckpt int64, workers int) (time.Duration, error) {
	t0 := time.Now()
	err := in.cluster.Close()
	in.cluster = nil
	if err != nil {
		return 0, err
	}
	if in.cluster, err = openCluster(in.dir, in.w, ckpt, workers); err != nil {
		return 0, err
	}
	return time.Since(t0), nil
}

func (in *serveInstance) finish(out *outcome) error {
	defer in.close()
	model, err := in.quiesce(out)
	if err != nil {
		return err
	}
	if n := int(out.notes["checkpoints_fewest_replica"]); n < in.w.minCheckpoints {
		return fmt.Errorf("a replica checkpointed %d times in the timed window, the workload needs %d: lengthen -seconds", n, in.w.minCheckpoints)
	}
	if _, err := in.reopen(checkpointBytes, 0); err != nil {
		return err
	}
	in.verifyState(out, model)
	in.verifyAnswers(out, model, in.askCluster)
	return nil
}

// dirBytes sums the sizes of the files under dir whose name starts with
// prefix: "" for everything on disk, "wal-" for the write-ahead-log segments.
func dirBytes(dir, prefix string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasPrefix(d.Name(), prefix) {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}

// checkpointEpochs returns, for every replica directory, the epoch of its
// newest snapshot: each checkpoint a replica completes raises its epoch by one.
func checkpointEpochs(dir string) ([]int, error) {
	stores, err := shard.StoreDirs(dir)
	if err != nil {
		return nil, err
	}
	var epochs []int
	for _, s := range stores {
		ents, err := os.ReadDir(s)
		if err != nil {
			return nil, err
		}
		newest := 0
		for _, e := range ents {
			var epoch int
			if _, err := fmt.Sscanf(e.Name(), "snapshot-%d.mstdb", &epoch); err == nil && epoch > newest {
				newest = epoch
			}
		}
		epochs = append(epochs, newest)
	}
	return epochs, nil
}

// countingTransport sizes the query requests and responses on the wire.
type countingTransport struct {
	http.RoundTripper
	queries, reqBytes, respBytes atomic.Int64
}

func (t *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := t.RoundTripper.RoundTrip(r)
	if err == nil && strings.HasSuffix(r.URL.Path, "/v1/query") && resp.ContentLength >= 0 {
		t.queries.Add(1)
		t.reqBytes.Add(r.ContentLength)
		t.respBytes.Add(resp.ContentLength)
	}
	return resp, err
}
