package mstsearch_test

import (
	"context"
	"fmt"

	"mstsearch"
)

// square builds a deterministic little fleet: three objects moving along
// parallel lines during [0, 10].
func square() []mstsearch.Trajectory {
	mk := func(id mstsearch.ID, y float64) mstsearch.Trajectory {
		tr := mstsearch.Trajectory{ID: id}
		for i := 0; i <= 10; i++ {
			tr.Samples = append(tr.Samples, mstsearch.Sample{
				X: float64(i), Y: y, T: float64(i),
			})
		}
		return tr
	}
	return []mstsearch.Trajectory{mk(1, 0), mk(2, 2), mk(3, 50)}
}

func ExampleDB_Query() {
	db, _ := mstsearch.NewDB(mstsearch.TBTree, square())
	// Query: the course of object 1, shifted up by 0.5.
	q := mstsearch.Trajectory{ID: 0}
	for i := 0; i <= 10; i++ {
		q.Samples = append(q.Samples, mstsearch.Sample{
			X: float64(i), Y: 0.5, T: float64(i),
		})
	}
	resp, _ := db.Query(context.Background(), mstsearch.Request{
		Q:        &q,
		Interval: mstsearch.Interval{T1: 0, T2: 10},
		K:        2,
	})
	for i, r := range resp.Results {
		fmt.Printf("%d. trajectory %d DISSIM %.1f\n", i+1, r.TrajID, r.Dissim)
	}
	fmt.Printf("certified: %t\n", resp.Results[0].Certified)
	// Output:
	// 1. trajectory 1 DISSIM 5.0
	// 2. trajectory 2 DISSIM 15.0
	// certified: true
}

func ExampleDB_Explain() {
	db, _ := mstsearch.NewDB(mstsearch.RTree3D, square())
	q := square()[0]
	q.ID = 0
	rep, _ := db.Explain(context.Background(), mstsearch.Request{
		Q:        &q,
		Interval: mstsearch.Interval{T1: 0, T2: 10},
		K:        2,
	})
	// rep.String() renders the full EXPLAIN transcript; individual fields
	// support programmatic checks like these.
	fmt.Printf("store: %d trajectories, %d segments\n", rep.Trajectories, rep.Segments)
	fmt.Printf("nodes accessed: %d of %d\n", rep.Stats.NodesAccessed, rep.Stats.TotalNodes)
	fmt.Printf("trace reconciles with stats: %t\n",
		rep.Trace.ByKind[mstsearch.EventNodeVisit] == rep.Stats.NodesAccessed)
	fmt.Printf("results: %d\n", len(rep.Results))
	// Output:
	// store: 3 trajectories, 30 segments
	// nodes accessed: 1 of 1
	// trace reconciles with stats: true
	// results: 2
}

func ExampleDissimilarity() {
	a := mstsearch.Trajectory{ID: 1, Samples: []mstsearch.Sample{
		{X: 0, Y: 0, T: 0}, {X: 10, Y: 0, T: 10},
	}}
	// Same course sampled differently, at constant distance 3.
	b := mstsearch.Trajectory{ID: 2, Samples: []mstsearch.Sample{
		{X: 0, Y: 3, T: 0}, {X: 5, Y: 3, T: 5}, {X: 10, Y: 3, T: 10},
	}}
	d, _ := mstsearch.Dissimilarity(&a, &b, 0, 10)
	fmt.Printf("DISSIM = %.0f\n", d) // 3 units of distance × 10 time units
	// Output:
	// DISSIM = 30
}

func ExampleDB_Topology() {
	db, _ := mstsearch.NewDB(mstsearch.RTree3D, square())
	// Region containing the first two courses, queried over the full span.
	rels, _ := db.Topology(context.Background(),
		mstsearch.Window{MinX: -1, MinY: -1, MaxX: 11, MaxY: 3},
		mstsearch.Interval{T1: 0, T2: 10})
	for _, r := range rels {
		fmt.Printf("trajectory %d: %s\n", r.TrajID, r.Relation)
	}
	// Output:
	// trajectory 1: inside
	// trajectory 2: inside
}

func ExampleCompressTDTR() {
	tr := mstsearch.Trajectory{ID: 1}
	for i := 0; i <= 100; i++ {
		tr.Samples = append(tr.Samples, mstsearch.Sample{
			X: float64(i), Y: 0, T: float64(i), // a straight line
		})
	}
	c := mstsearch.CompressTDTR(&tr, 0.01)
	fmt.Printf("%d -> %d samples\n", len(tr.Samples), len(c.Samples))
	// Output:
	// 101 -> 2 samples
}
