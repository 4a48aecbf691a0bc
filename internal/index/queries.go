package index

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"mstsearch/internal/geom"
	"mstsearch/internal/storage"
	"mstsearch/internal/trajectory"
)

// This file provides the "traditional" spatiotemporal queries the paper's
// introduction says the same index must keep supporting alongside k-MST
// (§1: "a spatiotemporal index to support both classical range,
// topological and similarity based queries"). They are written against the
// Tree interface, so they run on every MBB tree kind alike.
//
// Every traversal takes a context and checks it between node reads, so a
// canceled or expired query returns promptly with ErrCanceled instead of
// finishing (or worse, spinning) on a doomed request.

// ErrCanceled reports a query abandoned because its context was canceled
// or its deadline expired. Errors wrapping it also wrap the context's own
// error, so errors.Is works against context.Canceled /
// context.DeadlineExceeded too.
var ErrCanceled = errors.New("query canceled")

// ErrDeadlineExceeded refines ErrCanceled for the deadline case: a query
// abandoned because its context's deadline expired (as opposed to an
// explicit cancel). Every error wrapping it also wraps ErrCanceled — the
// historical catch-all — and context.DeadlineExceeded, so existing
// errors.Is call sites keep matching while deadline-aware callers (a
// serving layer deciding between "client went away" and "request timed
// out") can tell the two apart.
var ErrDeadlineExceeded = fmt.Errorf("%w: deadline exceeded", ErrCanceled)

// Canceled returns the typed cancellation error for ctx, or nil when the
// context is still live: ErrDeadlineExceeded for an expired deadline,
// plain ErrCanceled for an explicit cancel — both wrapping the context's
// own error.
func Canceled(ctx context.Context) error {
	err := ctx.Err()
	switch {
	case err == nil:
		return nil
	case errors.Is(err, context.DeadlineExceeded):
		return fmt.Errorf("%w: %w", ErrDeadlineExceeded, err)
	default:
		return fmt.Errorf("%w: %w", ErrCanceled, err)
	}
}

// RangeSearchContext returns every leaf entry whose bound intersects box —
// the classical spatiotemporal window query. Cancellation is checked
// before every node read.
func RangeSearchContext(ctx context.Context, t Tree, box geom.MBB) ([]LeafEntry, error) {
	root := t.Root()
	if root == storage.NilPage {
		return nil, nil
	}
	var out []LeafEntry
	stack := []storage.PageID{root}
	for len(stack) > 0 {
		if err := Canceled(ctx); err != nil {
			return nil, err
		}
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n, err := t.ReadNode(id)
		if err != nil {
			return nil, err
		}
		if n.Leaf {
			for _, e := range n.Leaves {
				if e.MBB().Intersects(box) {
					out = append(out, e)
				}
			}
			continue
		}
		for _, c := range n.Children {
			if c.MBB.Intersects(box) {
				stack = append(stack, c.Page)
			}
		}
	}
	return out, nil
}

// NNResult is one nearest-neighbour answer: a moving object and its
// distance from the query point at the query instant.
type NNResult struct {
	TrajID trajectory.ID
	Dist   float64
}

// nnItem is a heap element of the best-first point-NN search.
type nnItem struct {
	page storage.PageID
	dist float64
}

type nnQueue []nnItem

func (q nnQueue) Len() int           { return len(q) }
func (q nnQueue) Less(i, j int) bool { return q[i].dist < q[j].dist }
func (q nnQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *nnQueue) Push(x any)        { *q = append(*q, x.(nnItem)) }
func (q *nnQueue) Pop() any {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

// NearestAtContext answers the historical point-NN query: the k moving
// objects closest to point p at time instant t (after the NN algorithms of
// [6]). It traverses nodes best-first by spatial MINDIST, skipping subtrees
// whose time span does not contain t, and terminates once the next node
// cannot beat the current k-th distance. Each object is reported once, at
// its interpolated position's distance. Cancellation is checked before
// every node read.
func NearestAtContext(ctx context.Context, tr Tree, p geom.Point, t float64, k int) ([]NNResult, error) {
	if k < 1 {
		k = 1
	}
	root := tr.Root()
	if root == storage.NilPage {
		return nil, nil
	}
	best := map[trajectory.ID]float64{}
	kth := func() float64 {
		if len(best) < k {
			return math.Inf(1)
		}
		ds := make([]float64, 0, len(best))
		for _, d := range best {
			ds = append(ds, d)
		}
		sort.Float64s(ds)
		return ds[k-1]
	}
	var queue nnQueue
	heap.Push(&queue, nnItem{page: root, dist: 0})
	for queue.Len() > 0 {
		if err := Canceled(ctx); err != nil {
			return nil, err
		}
		it := heap.Pop(&queue).(nnItem)
		if it.dist > kth() {
			break
		}
		n, err := tr.ReadNode(it.page)
		if err != nil {
			return nil, err
		}
		if n.Leaf {
			for _, e := range n.Leaves {
				if t < e.Seg.A.T || t > e.Seg.B.T {
					continue
				}
				d := e.Seg.At(t).Spatial().Dist(p)
				if cur, ok := best[e.TrajID]; !ok || d < cur {
					best[e.TrajID] = d
				}
			}
			continue
		}
		for _, c := range n.Children {
			if t < c.MBB.MinT || t > c.MBB.MaxT {
				continue
			}
			d := c.MBB.Rect().DistPoint(p)
			if d <= kth() {
				heap.Push(&queue, nnItem{page: c.Page, dist: math.Max(d, it.dist)})
			}
		}
	}
	out := make([]NNResult, 0, len(best))
	for id, d := range best {
		out = append(out, NNResult{TrajID: id, Dist: d})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Dist != out[j].Dist {
			return out[i].Dist < out[j].Dist
		}
		return out[i].TrajID < out[j].TrajID
	})
	if len(out) > k {
		out = out[:k]
	}
	return out, nil
}
