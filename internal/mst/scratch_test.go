package mst

import (
	"container/heap"
	"math/rand"
	"testing"

	"mstsearch/internal/debugassert"
	"mstsearch/internal/storage"
)

// refQueue is a container/heap queue: the reference for the order in which
// nodes of equal MINDIST leave.
type refQueue []queueItem

func (q refQueue) Len() int           { return len(q) }
func (q refQueue) Less(i, j int) bool { return q[i].dist < q[j].dist }
func (q refQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)        { *q = append(*q, x.(queueItem)) }
func (q *refQueue) Pop() any {
	old := *q
	it := old[len(old)-1]
	*q = old[:len(old)-1]
	return it
}

// TestNodeQueueMatchesContainerHeap interleaves pushes and pops with many
// tied distances: nodeQueue must pop exactly what container/heap pops, so
// the search visits nodes in the same order.
func TestNodeQueueMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for iter := 0; iter < 200; iter++ {
		var got nodeQueue
		var want refQueue
		for op := 0; op < 300; op++ {
			if len(got) == 0 || rng.Intn(3) > 0 {
				it := queueItem{page: storage.PageID(op), dist: float64(rng.Intn(8)), level: rng.Intn(4)}
				got.push(it)
				heap.Push(&want, it)
				continue
			}
			if g, w := got.pop(), heap.Pop(&want).(queueItem); g != w {
				t.Fatalf("iter %d op %d: popped %+v, container/heap pops %+v", iter, op, g, w)
			}
		}
		for len(got) > 0 {
			if g, w := got.pop(), heap.Pop(&want).(queueItem); g != w {
				t.Fatalf("iter %d drain: popped %+v, container/heap pops %+v", iter, g, w)
			}
		}
	}
}

// TestSearchAllocationsTrackNodes: a search's allocations grow with the
// nodes it reads and the candidates it admits, not with the segments it
// folds in: no bound evaluation, queue push or pop, or τ refresh may
// allocate.
func TestSearchAllocationsTrackNodes(t *testing.T) {
	if debugassert.Enabled {
		t.Skip("sanitizer assertions allocate; the ceiling holds for release builds only")
	}
	rng := rand.New(rand.NewSource(61))
	data := makeDataset(rng, 60, 100)
	rt := buildRTree(t, data, 4096)
	q := queryFrom(rng, &data.Trajs[5], 20, 80)
	opts := Options{K: 5, Vmax: 10, Data: data}

	admitted := 0
	traced := opts
	traced.Trace = func(ev TraceEvent) {
		if ev.Kind == EventCandidateAdmit {
			admitted++
		}
	}
	_, st, err := Search(rt, &q, 20, 80, traced)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, _, err := Search(rt, &q, 20, 80, opts); err != nil {
			t.Fatal(err)
		}
	})
	// Per node: the decoded node and its entry slice. Per candidate: its
	// state, its interval list's growth and its table slot.
	ceiling := 2*st.NodesAccessed + 12*admitted + 40
	if int(allocs) > ceiling {
		t.Errorf("search allocates %.0f times for %d nodes, %d candidates, %d segment intervals; ceiling %d",
			allocs, st.NodesAccessed, admitted, st.TrapezoidEvals, ceiling)
	}
}
