package index_test

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"mstsearch/internal/geom"
	"mstsearch/internal/gstd"
	"mstsearch/internal/index"
	"mstsearch/internal/mst"
	"mstsearch/internal/rtree"
	"mstsearch/internal/storage"
	"mstsearch/internal/tbtree"
	"mstsearch/internal/trajectory"
)

// minDistTrajMBBRef is index.MinDistTrajMBB as it stood before the run
// search and the box filter: every query segment, clipped and measured. It
// is the definition the kernel must reproduce bit for bit, because the value
// orders the search's queue.
func minDistTrajMBBRef(q *trajectory.Trajectory, b geom.MBB, t1, t2 float64) (float64, bool) {
	lo := math.Max(t1, math.Max(q.StartTime(), b.MinT))
	hi := math.Min(t2, math.Min(q.EndTime(), b.MaxT))
	if lo > hi {
		return math.Inf(1), false
	}
	best := math.Inf(1)
	rect := b.Rect()
	for i := 0; i < q.NumSegments(); i++ {
		s := q.Segment(i)
		if s.B.T < lo || s.A.T > hi {
			continue
		}
		c, ok := s.ClipTime(lo, hi)
		if !ok {
			continue
		}
		d := geom.DistSegmentRect(c.A.Spatial(), c.B.Spatial(), rect)
		if d < best {
			best = d
			if best == 0 {
				break
			}
		}
	}
	if math.IsInf(best, 1) {
		p := q.At(lo)
		best = rect.DistPoint(p.Spatial())
	}
	return best, true
}

// checkSameBits fails unless the kernel and the reference agree on ok and on
// every bit of the distance. It returns ok.
func checkSameBits(t testing.TB, q *trajectory.Trajectory, b geom.MBB, t1, t2 float64) bool {
	t.Helper()
	got, gotOK := index.MinDistTrajMBB(q, b, t1, t2)
	want, wantOK := minDistTrajMBBRef(q, b, t1, t2)
	if gotOK != wantOK || math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("MinDistTrajMBB = (%v, %v), reference (%v, %v)\nbox %+v window [%v, %v]\nquery %+v",
			got, gotOK, want, wantOK, b, t1, t2, q.Samples)
	}
	return gotOK
}

// randomWalk draws a query of n samples. Some walks are snapped to a coarse
// grid so that collinear moves, repeated positions and boxes touching the
// path occur; some steps move along one axis only; and some queries jump
// between unrelated positions around the origin, where b − a rounds and the
// end of an unclipped segment is a + (b − a), not b.
func randomWalk(rng *rand.Rand, n int) trajectory.Trajectory {
	snap := func(v float64) float64 { return v }
	if rng.Intn(4) == 0 {
		snap = func(v float64) float64 { return math.Round(v*8) / 8 }
	}
	q := trajectory.Trajectory{Samples: make([]trajectory.Sample, n)}
	x, y, tt := rng.NormFloat64()*3, rng.NormFloat64()*3, rng.NormFloat64()
	step := math.Pow(10, -3*rng.Float64())
	jumps := rng.Intn(4) == 0
	for i := range q.Samples {
		q.Samples[i] = trajectory.Sample{X: snap(x), Y: snap(y), T: tt}
		tt += 0.01 + rng.Float64()
		if jumps {
			x, y = rng.NormFloat64(), rng.NormFloat64()*math.Pow(10, -3*rng.Float64())
			continue
		}
		switch rng.Intn(6) {
		case 0:
			x += rng.NormFloat64() * step
		case 1:
			y += rng.NormFloat64() * step
		default:
			x += rng.NormFloat64() * step
			y += rng.NormFloat64() * step
		}
	}
	return q
}

// randomBoxWindow draws a box and a window for q, cycling through the shapes
// the kernel's edges depend on: boxes near the path, flat boxes, time bounds
// on sample times, windows inside one segment, boxes that outlast the query.
func randomBoxWindow(rng *rand.Rand, q *trajectory.Trajectory) (b geom.MBB, t1, t2 float64) {
	t0, tn := q.StartTime(), q.EndTime()
	span := tn - t0
	sampleT := func() float64 { return q.Samples[rng.Intn(len(q.Samples))].T }
	between := func(lo, hi float64) (float64, float64) {
		u, v := lo+rng.Float64()*(hi-lo), lo+rng.Float64()*(hi-lo)
		return math.Min(u, v), math.Max(u, v)
	}

	// Space: around a point of the path, at a distance and a size drawn
	// over six orders of magnitude, or anywhere.
	c := q.At(t0 + rng.Float64()*span)
	off := math.Pow(10, 1-6*rng.Float64())
	size := math.Pow(10, 1-6*rng.Float64())
	if rng.Intn(5) == 0 {
		c, off = geom.STPoint{X: rng.NormFloat64() * 5, Y: rng.NormFloat64() * 5}, 0
	}
	b.MinX = c.X + rng.NormFloat64()*off
	b.MinY = c.Y + rng.NormFloat64()*off
	b.MaxX = b.MinX + rng.Float64()*size
	b.MaxY = b.MinY + rng.Float64()*size
	switch rng.Intn(8) {
	case 0:
		b.MaxX = b.MinX
	case 1:
		b.MaxY = b.MinY
	case 2:
		b.MaxX, b.MaxY = b.MinX, b.MinY
	case 3: // a corner or an edge exactly on a sample
		s := q.Samples[rng.Intn(len(q.Samples))]
		b.MinX, b.MaxX = s.X, s.X+rng.Float64()*size
		if rng.Intn(2) == 0 {
			b.MinY, b.MaxY = s.Y, s.Y+rng.Float64()*size
		}
	}

	// Time extent of the box.
	switch rng.Intn(6) {
	case 0: // starts before and ends after the query
		b.MinT, b.MaxT = t0-rng.Float64()*span-0.1, tn+rng.Float64()*span+0.1
	case 1: // both bounds on sample times
		b.MinT, b.MaxT = sampleT(), sampleT()
		if b.MinT > b.MaxT {
			b.MinT, b.MaxT = b.MaxT, b.MinT
		}
	case 2: // one bound on a sample time
		b.MinT = sampleT()
		b.MaxT = b.MinT + rng.Float64()*span
	case 3: // strictly inside one segment
		i := rng.Intn(q.NumSegments())
		b.MinT, b.MaxT = between(q.Samples[i].T, q.Samples[i+1].T)
	case 4: // a single instant
		b.MinT = t0 + rng.Float64()*span
		b.MaxT = b.MinT
	default: // anywhere, overlapping the query or not
		b.MinT, b.MaxT = between(t0-0.3*span, tn+0.3*span)
	}

	// Query window.
	switch rng.Intn(6) {
	case 0: // the query's lifespan, as the search passes it
		t1, t2 = t0, tn
	case 1: // on sample times
		t1, t2 = sampleT(), sampleT()
		if t1 > t2 {
			t1, t2 = t2, t1
		}
	case 2: // strictly inside one segment
		i := rng.Intn(q.NumSegments())
		t1, t2 = between(q.Samples[i].T, q.Samples[i+1].T)
	case 3: // wider than everything
		t1, t2 = math.Min(t0, b.MinT)-1, math.Max(tn, b.MaxT)+1
	default:
		t1, t2 = between(t0-0.2*span, tn+0.2*span)
	}
	return b, t1, t2
}

func TestMinDistTrajMBBMatchesReferenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	triples, overlapping := 0, 0
	for triples < 200_000 {
		q := randomWalk(rng, 2+rng.Intn(40))
		for j := 0; j < 50; j++ {
			b, t1, t2 := randomBoxWindow(rng, &q)
			if checkSameBits(t, &q, b, t1, t2) {
				overlapping++
			}
			triples++
		}
	}
	if overlapping < triples/2 {
		t.Fatalf("only %d of %d triples overlap in time: the generator no longer exercises the kernel", overlapping, triples)
	}
}

// fleetTrees builds an R-tree and a TB-tree over one small GSTD fleet, the
// lib-* workloads' shape at a fifth of their object count.
func fleetTrees(t testing.TB) (*trajectory.Dataset, map[string]index.Tree) {
	t.Helper()
	ds := gstd.Generate(gstd.Config{NumObjects: 20, SamplesPerObject: 1001, Seed: 7})
	rt := rtree.New(storage.NewFile(storage.DefaultPageSize))
	tb := tbtree.New(storage.NewFile(storage.DefaultPageSize))
	for i := range ds.Trajs {
		tr := &ds.Trajs[i]
		for s := 0; s < tr.NumSegments(); s++ {
			if err := rt.Insert(index.LeafEntry{TrajID: tr.ID, SeqNo: uint32(s), Seg: tr.Segment(s)}); err != nil {
				t.Fatal(err)
			}
		}
		if err := tb.InsertTrajectory(tr); err != nil {
			t.Fatal(err)
		}
	}
	return ds, map[string]index.Tree{"rtree": rt, "tbtree": tb}
}

// nodeMBBs returns the MBB of every node of the tree: the root's, and every
// child entry's, which is what the search measures before it enqueues.
func nodeMBBs(t testing.TB, tree index.Tree) []geom.MBB {
	t.Helper()
	root, err := tree.ReadNode(tree.Root())
	if err != nil {
		t.Fatal(err)
	}
	boxes := []geom.MBB{root.MBB()}
	for stack := []*index.Node{root}; len(stack) > 0; {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, c := range n.Children {
			boxes = append(boxes, c.MBB)
			child, err := tree.ReadNode(c.Page)
			if err != nil {
				t.Fatal(err)
			}
			stack = append(stack, child)
		}
	}
	return boxes
}

// windowQuery slices span segments of tr starting at segment lo, as the
// benchmark's query pool does: the window is the slice's own lifespan.
func windowQuery(t testing.TB, tr *trajectory.Trajectory, lo, span int) (q trajectory.Trajectory, t1, t2 float64) {
	t.Helper()
	t1, t2 = tr.Samples[lo].T, tr.Samples[lo+span].T
	q, ok := tr.Slice(t1, t2)
	if !ok {
		t.Fatalf("trajectory %d does not cover [%v, %v]", tr.ID, t1, t2)
	}
	q.ID = 0
	return q, t1, t2
}

// The two library workloads' shapes on real node boxes: 5 % windows cut from
// a stored trajectory (lib-short) and 25 % windows cut from a fleet the tree
// has never seen (lib-long), against every node of both MBB trees.
func TestMinDistTrajMBBMatchesReferenceOnTrees(t *testing.T) {
	ds, trees := fleetTrees(t)
	foreign := gstd.Generate(gstd.Config{NumObjects: 4, SamplesPerObject: 1001, Seed: 8})
	rng := rand.New(rand.NewSource(3))
	type query struct {
		q      trajectory.Trajectory
		t1, t2 float64
	}
	var queries []query
	for i := 0; i < 6; i++ {
		q, t1, t2 := windowQuery(t, &ds.Trajs[rng.Intn(ds.Len())], rng.Intn(1000-50+1), 50)
		queries = append(queries, query{q, t1, t2})
		q, t1, t2 = windowQuery(t, &foreign.Trajs[rng.Intn(foreign.Len())], rng.Intn(1000-250+1), 250)
		queries = append(queries, query{q, t1, t2})
	}
	for name, tree := range trees {
		boxes := nodeMBBs(t, tree)
		if len(boxes) < 100 {
			t.Fatalf("%s: only %d nodes", name, len(boxes))
		}
		for i := range queries {
			for _, b := range boxes {
				checkSameBits(t, &queries[i].q, b, queries[i].t1, queries[i].t2)
			}
		}
	}
}

// tripleFromBytes decodes a fuzz input: a box and a window as int16
// sevenths, then one or more samples as (dx, dy, dt) steps of int8 sevenths
// with dt > 0. Sevenths are not exact in binary, so interpolation and
// distances round, while the small integer range keeps touching and
// collinear cases common.
func tripleFromBytes(data []byte) (q trajectory.Trajectory, b geom.MBB, t1, t2 float64, ok bool) {
	const header = 16
	if len(data) < header+3 {
		return q, b, 0, 0, false
	}
	v := func(i int) float64 { return float64(int16(binary.LittleEndian.Uint16(data[2*i:]))) / 7 }
	b = geom.MBB{
		MinX: math.Min(v(0), v(1)), MaxX: math.Max(v(0), v(1)),
		MinY: math.Min(v(2), v(3)), MaxY: math.Max(v(2), v(3)),
		MinT: math.Min(v(4), v(5)), MaxT: math.Max(v(4), v(5)),
	}
	t1, t2 = math.Min(v(6), v(7)), math.Max(v(6), v(7))
	var x, y, tt float64
	for rest := data[header:]; len(rest) >= 3 && len(q.Samples) < 300; rest = rest[3:] {
		x += float64(int8(rest[0])) / 7
		y += float64(int8(rest[1])) / 7
		tt += (float64(rest[2]) + 1) / 7
		q.Samples = append(q.Samples, trajectory.Sample{X: x, Y: y, T: tt})
	}
	return q, b, t1, t2, true
}

func FuzzMinDistTrajMBB(f *testing.F) {
	le := func(vs ...int16) []byte {
		var out []byte
		for _, v := range vs {
			out = binary.LittleEndian.AppendUint16(out, uint16(v))
		}
		return out
	}
	// Box beside a straight path; the window is the path's lifespan.
	f.Add(append(le(20, 40, 30, 60, 0, 100, 0, 100), 7, 0, 6, 7, 0, 6, 7, 0, 6, 7, 0, 6))
	// Flat box on the path, time bounds on sample times (t = 1, 2, ...).
	f.Add(append(le(14, 14, 0, 21, 7, 21, 7, 28), 7, 7, 6, 7, 249, 6, 0, 7, 6, 249, 0, 6))
	// Window strictly inside the second segment, box outlasting the query.
	f.Add(append(le(-50, 50, -3, 3, -1000, 1000, 9, 12), 3, 1, 6, 5, 2, 6, 1, 250, 6))
	// A single sample: the point fallback.
	f.Add(append(le(1, 5, 1, 5, 0, 50, 0, 50), 0, 0, 6))
	f.Fuzz(func(t *testing.T, data []byte) {
		q, b, t1, t2, ok := tripleFromBytes(data)
		if !ok {
			return
		}
		checkSameBits(t, &q, b, t1, t2)
	})
}

func TestMinDistTrajMBBDoesNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	q := randomWalk(rng, 251)
	far := geom.MBB{MinX: 50, MinY: 50, MinT: q.StartTime(), MaxX: 51, MaxY: 51, MaxT: q.EndTime()}
	near, t1, t2 := randomBoxWindow(rng, &q)
	var sink float64
	allocs := testing.AllocsPerRun(100, func() {
		d, _ := index.MinDistTrajMBB(&q, far, q.StartTime(), q.EndTime())
		sink += d
		d, _ = index.MinDistTrajMBB(&q, near, t1, t2)
		sink += d
	})
	if allocs != 0 {
		t.Fatalf("MinDistTrajMBB allocates %v times per two calls on a 250-segment query, want 0", allocs)
	}
}

// BenchmarkMinDistTrajMBB replays the kernel on the boxes a k-MST search of
// a GSTD R-tree enqueued, for a lib-short-shaped query (a 50-segment twin
// window) and a lib-long-shaped one (a 250-segment foreign window). ns/op is
// per box.
func BenchmarkMinDistTrajMBB(b *testing.B) {
	ds, trees := fleetTrees(b)
	foreign := gstd.Generate(gstd.Config{NumObjects: 1, SamplesPerObject: 1001, Seed: 8})
	for _, bc := range []struct {
		name string
		src  *trajectory.Trajectory
		lo   int
		span int
	}{
		{"segments=50", &ds.Trajs[3], 900, 50},
		{"segments=250", &foreign.Trajs[0], 400, 250},
	} {
		q, t1, t2 := windowQuery(b, bc.src, bc.lo, bc.span)
		var boxes []geom.MBB
		opts := mst.Options{K: 5, Vmax: ds.MaxSpeed() + q.MaxSpeed(), Trace: func(e mst.TraceEvent) {
			if e.Kind == mst.EventNodeEnqueue {
				boxes = append(boxes, e.MBB)
			}
		}}
		if _, _, err := mst.Search(trees["rtree"], &q, t1, t2, opts); err != nil {
			b.Fatal(err)
		}
		b.Run(bc.name, func(b *testing.B) {
			var sink float64
			for i := 0; i < b.N; i++ {
				d, _ := index.MinDistTrajMBB(&q, boxes[i%len(boxes)], t1, t2)
				sink += d
			}
			if math.IsNaN(sink) {
				b.Fatal("NaN distance")
			}
		})
	}
}
