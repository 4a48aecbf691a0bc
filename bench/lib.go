package main

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"mstsearch"
	"mstsearch/internal/baselines"
	"mstsearch/internal/trajectory"
)

// libInstance is a library workload: one in-memory DB with a warm shared
// pool, queried in process by one client.
type libInstance struct {
	w     *workloadSpec
	pool  []op
	fleet []mstsearch.Trajectory
	db    *mstsearch.DB
	sc    *scope // set while a traced window runs
}

func setupLib(w *workloadSpec, pool []op) (*libInstance, error) {
	fleet := genFleet(w.objects, w.samples, seedStoredFleet)
	db, err := mstsearch.NewDB(w.kind, fleet)
	if err != nil {
		return nil, err
	}
	db.EnableWarmBuffer()
	in := &libInstance{w: w, pool: pool, fleet: fleet, db: db}

	nodes, total := 0, 0
	for i := 0; i < warmOps; i++ {
		resp, err := db.Query(context.Background(), pool[i%len(pool)].req)
		if err != nil {
			return nil, fmt.Errorf("warm-up query %d: %w", i, err)
		}
		nodes += resp.Stats.NodesAccessed
		total = resp.Stats.TotalNodes
	}
	// A metric index that fits one leaf never prunes: every query reads the
	// one node and evaluates every member, which measures a linear scan.
	if w.kind.Metric() && (total < 2 || nodes <= warmOps) {
		return nil, fmt.Errorf("%s fixture is not multi-level: %d tree nodes, %.2f nodes per query", w.name, total, float64(nodes)/warmOps)
	}
	return in, nil
}

func (in *libInstance) do(_, i int) (bool, error) {
	if in.sc != nil {
		in.sc.op = int32(i)
		defer in.sc.leave(in.sc.enter(spanDBQuery))
	}
	resp, err := in.db.Query(context.Background(), in.pool[i].req)
	if err == nil && len(resp.Results) == 0 {
		err = fmt.Errorf("query %d returned no result", i)
	}
	return false, err
}

func (in *libInstance) close() error { return in.db.Close() }

// verify checks the oracle subset of the pool.
func (in *libInstance) verify(out *outcome) {
	for _, i := range verifySubset(in.pool) {
		req := in.pool[i].req
		resp, err := in.db.Query(context.Background(), req)
		want := oracle(in.fleet, &req)
		out.check(err == nil && sameAnswer(resp.Results, want), "query %d: got %v (error %v), the scan says %v", i, resp.Results, err, want)
	}
}

func (in *libInstance) finish(out *outcome) error {
	defer in.db.Close()
	segments := in.db.NumSegments()
	out.storeRatio = in.db.IndexSizeMB() * (1 << 20) / float64(userBytes(in.fleet))
	in.verify(out)

	// The write probe: a library caller's write is one AppendSample call, as
	// its query is one Query call. The workload's window is read-only, so the
	// appends are timed here, after the check, each behind one pool query: an
	// append to a DB that serves queries has their dataset view and warm pool
	// to drop, and an append that follows another append has not. Round-robin
	// over the fleet keeps every timestamp past its trajectory's end.
	n := len(in.fleet)
	for i := 0; i < in.w.writes; i++ {
		_, err := in.do(0, i%len(in.pool))
		out.check(err == nil, "query before append %d: %v", i, err)
		tr := &in.fleet[i%n]
		last := tr.Samples[len(tr.Samples)-1]
		s := mstsearch.Sample{X: last.X, Y: last.Y, T: last.T + 0.0005*float64(1+i/n)}
		t0 := time.Now()
		err = in.db.AppendSample(tr.ID, s)
		out.writeNs = append(out.writeNs, time.Since(t0).Nanoseconds())
		if err != nil {
			out.failed++
		}
	}
	got := in.db.NumSegments()
	out.check(got == segments+in.w.writes, "%d segments after %d appends to %d", got, in.w.writes, segments)
	return nil
}

// userBytes is what the stored samples would take as bare (x, y, t) triples.
func userBytes(trajs []mstsearch.Trajectory) int {
	n := 0
	for i := range trajs {
		n += 24 * len(trajs[i].Samples)
	}
	return n
}

// hit is one oracle answer.
type hit struct {
	id mstsearch.ID
	d  float64
}

// oracle answers a request by scanning every trajectory, with no index: the
// repository's linear-scan baseline for DISSIM, the public MetricDistance for
// the other metrics. Ties break on ID, as the search does.
func oracle(trajs []mstsearch.Trajectory, req *mstsearch.Request) []hit {
	var hits []hit
	if req.Metric == mstsearch.MetricDISSIM {
		ds, err := trajectory.NewDataset(trajs)
		if err != nil {
			return nil
		}
		for _, r := range baselines.LinearScanMST(ds, req.Q, req.Interval.T1, req.Interval.T2, req.K) {
			hits = append(hits, hit{r.TrajID, r.Dissim})
		}
		return hits
	}
	for i := range trajs {
		if d, ok := mstsearch.MetricDistance(req.Metric, req.MetricEps, req.Q, &trajs[i], req.Interval.T1, req.Interval.T2); ok {
			hits = append(hits, hit{trajs[i].ID, d})
		}
	}
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].d != hits[j].d {
			return hits[i].d < hits[j].d
		}
		return hits[i].id < hits[j].id
	})
	if len(hits) > req.K {
		hits = hits[:req.K]
	}
	return hits
}

// sameAnswer demands the oracle's members, order and bit-identical distances.
func sameAnswer(got []mstsearch.Result, want []hit) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range want {
		if got[i].TrajID != want[i].id || math.Float64bits(got[i].Dissim) != math.Float64bits(want[i].d) {
			return false
		}
	}
	return true
}
