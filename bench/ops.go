package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"

	"mstsearch"
	"mstsearch/internal/gstd"
)

type opKind uint8

const (
	opQuery opKind = iota
	opAppend
	opIngest
)

// op is one pre-generated operation. Writes are templates: the issuing client
// resolves them against the trajectories it owns, so the pool can be cycled
// without ever repeating a timestamp or an ID.
type op struct {
	kind opKind

	req mstsearch.Request // opQuery

	slot   int                // opAppend: which owned trajectory, modulo how many there are
	dx, dy float64            // opAppend: displacement from that trajectory's last position
	shape  []mstsearch.Sample // opIngest: the new trajectory's samples
}

func genFleet(objects, samples int, seed int64) []mstsearch.Trajectory {
	return gstd.Generate(gstd.Config{NumObjects: objects, SamplesPerObject: samples, Seed: seed}).Trajs
}

// genPool draws the run's operations from seed. Query windows are anchored on
// sample times of the source trajectory, so the sliced query covers its
// interval exactly.
func genPool(w *workloadSpec, seed int64) []op {
	rng := rand.New(rand.NewSource(seed))
	src := genFleet(w.objects, w.samples, seedStoredFleet)
	if w.foreignQueries {
		src = genFleet(64, w.samples, seedQueryFleet)
	}
	segs := w.samples - 1
	span := int(w.window * float64(segs))
	if span < 1 {
		span = 1
	}
	// The mix is exact, not drawn: 8 % appends and 2 % ingests on serve-rw,
	// shuffled by the seed. A drawn mix moves the write volume, and with it
	// checkpoints and allocations, by a fifth from seed to seed.
	kinds := make([]opKind, poolOps)
	if w.serve {
		for i := range kinds {
			switch {
			case i < poolOps*2/100:
				kinds[i] = opIngest
			case i < poolOps*10/100:
				kinds[i] = opAppend
			}
		}
		rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	}
	pool := make([]op, poolOps)
	for i := range pool {
		switch kinds[i] {
		case opIngest:
			pool[i] = op{kind: opIngest, shape: genShape(rng)}
		case opAppend:
			pool[i] = op{kind: opAppend, slot: rng.Intn(1 << 20),
				dx: (rng.Float64() - 0.5) * 0.002, dy: (rng.Float64() - 0.5) * 0.002}
		default:
			tr := &src[rng.Intn(len(src))]
			lo := rng.Intn(segs - span + 1)
			if rng.Float64() < w.recentShare {
				lo = segs - segs/10 + rng.Intn(segs/10-span+1)
			}
			t1, t2 := tr.Samples[lo].T, tr.Samples[lo+span].T
			q, ok := tr.Slice(t1, t2)
			if !ok {
				panic(fmt.Sprintf("bench: trajectory %d does not cover its own window [%g, %g]", tr.ID, t1, t2))
			}
			q.ID = 0
			pool[i] = op{kind: opQuery, req: mstsearch.Request{
				Q: &q, Interval: mstsearch.Interval{T1: t1, T2: t2}, K: w.k,
				Metric: w.metric, Options: mstsearch.DefaultOptions(),
			}}
		}
	}
	return pool
}

// genShape draws a new object's history: a coarse random walk over the whole
// time axis. It spans the axis because the search under test is only exact
// when every stored trajectory covers the query window or misses it entirely
// (a trajectory that covers part of a window enters the pruning threshold but
// can never complete, and answers go missing), and the benchmark must not
// run operations that fail.
func genShape(rng *rand.Rand) []mstsearch.Sample {
	x, y := rng.Float64(), rng.Float64()
	dt := 1 / float64(ingestSamples-1)
	shape := make([]mstsearch.Sample, ingestSamples)
	for j := range shape {
		shape[j] = mstsearch.Sample{X: x, Y: y, T: float64(j) * dt}
		x = clamp01(x + (rng.Float64()-0.5)*0.04)
		y = clamp01(y + (rng.Float64()-0.5)*0.04)
	}
	return shape
}

func clamp01(v float64) float64 { return math.Min(1, math.Max(0, v)) }

// poolHash fingerprints the pool, so two runs can show they measured the same
// inputs.
func poolHash(pool []op) string {
	h := fnv.New64a()
	var b [8]byte
	num := func(v float64) {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	samples := func(ss []mstsearch.Sample) {
		for _, s := range ss {
			num(s.X)
			num(s.Y)
			num(s.T)
		}
	}
	for i := range pool {
		o := &pool[i]
		h.Write([]byte{byte(o.kind)})
		switch o.kind {
		case opQuery:
			num(o.req.Interval.T1)
			num(o.req.Interval.T2)
			samples(o.req.Q.Samples)
		case opAppend:
			num(float64(o.slot))
			num(o.dx)
			num(o.dy)
		case opIngest:
			samples(o.shape)
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// queryOps returns the indices of the pool's first n query operations.
func queryOps(pool []op, n int) []int {
	var out []int
	for i := range pool {
		if pool[i].kind == opQuery {
			out = append(out, i)
			if len(out) == n {
				break
			}
		}
	}
	return out
}

// verifySubset spreads the oracle checks evenly over the pool's queries.
func verifySubset(pool []op) []int {
	all := queryOps(pool, len(pool))
	if len(all) <= verifyOps {
		return all
	}
	out := make([]int, verifyOps)
	for i := range out {
		out[i] = all[i*len(all)/verifyOps]
	}
	return out
}
