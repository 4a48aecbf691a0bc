// Quickstart: build a trajectory database, run a k-Most-Similar-Trajectory
// query, and inspect the pruning statistics.
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"math/rand"

	"mstsearch"
)

func main() {
	rng := rand.New(rand.NewSource(42))

	// Forty moving objects wandering a 100×100 area for 10 time units,
	// each sampled at its own rate — DISSIM does not care.
	var fleet []mstsearch.Trajectory
	for id := 1; id <= 40; id++ {
		n := 20 + rng.Intn(80)
		tr := mstsearch.Trajectory{ID: mstsearch.ID(id)}
		x, y := rng.Float64()*100, rng.Float64()*100
		for j := 0; j <= n; j++ {
			tr.Samples = append(tr.Samples, mstsearch.Sample{
				X: x, Y: y, T: 10 * float64(j) / float64(n),
			})
			x += rng.NormFloat64()
			y += rng.NormFloat64()
		}
		fleet = append(fleet, tr)
	}

	// Index the fleet in a TB-tree (use mstsearch.RTree3D for a 3D R-tree).
	db, err := mstsearch.NewDB(mstsearch.TBTree, fleet)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("indexed %d trajectories (%d segments) in a %.2f MB TB-tree\n",
		db.Len(), db.NumSegments(), db.IndexSizeMB())

	// Query: a noisy copy of object 7 — it should come back first.
	q := db.Get(7).Clone()
	q.ID = 0
	for i := range q.Samples {
		q.Samples[i].X += rng.NormFloat64() * 0.2
		q.Samples[i].Y += rng.NormFloat64() * 0.2
	}

	resp, err := db.Query(context.Background(), mstsearch.Request{Q: &q, Interval: mstsearch.Interval{T1: 0, T2: 10}, K: 3})
	if err != nil {
		log.Fatal(err)
	}
	results, stats := resp.Results, resp.Stats
	fmt.Printf("\n3 most similar trajectories during [0, 10]:\n")
	for i, r := range results {
		fmt.Printf("%d. trajectory %-3d DISSIM = %.3f\n", i+1, r.TrajID, r.Dissim)
	}
	fmt.Printf("\nsearch touched %d of %d index nodes (pruning power %.1f%%)\n",
		stats.NodesAccessed, stats.TotalNodes, stats.PruningPower*100)

	// Pairwise metric access: exact and approximate DISSIM.
	exact, _ := mstsearch.Dissimilarity(&q, db.Get(results[0].TrajID), 0, 10)
	approx, bound, _ := mstsearch.DissimilarityApprox(&q, db.Get(results[0].TrajID), 0, 10)
	fmt.Printf("exact DISSIM %.4f; trapezoid approximation %.4f ± %.4f (|diff| = %.2g)\n",
		exact, approx, bound, math.Abs(exact-approx))
}
