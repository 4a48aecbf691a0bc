// Geofence exercises the full query family the paper argues one
// general-purpose spatiotemporal index should serve (§1): range,
// topological, nearest-neighbour and similarity queries — all against the
// same TB-tree, with no dedicated structures.
//
// Scenario: a port authority monitors a restricted harbour zone. From one
// day of vessel traces it asks: which ships' position reports fall inside
// the zone tonight (range)? which ships entered, crossed or only skirted
// it (topological)? which ship was closest to the incident site at 02:30
// (nearest neighbour)? and which ships moved most like the suspicious one
// (k-MST similarity)?
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"mstsearch"
)

func main() {
	rng := rand.New(rand.NewSource(12))

	// 30 vessels over one day (t in [0, 24]), in a 100×100 sea.
	var ships []mstsearch.Trajectory
	for id := 1; id <= 30; id++ {
		tr := mstsearch.Trajectory{ID: mstsearch.ID(id)}
		x, y := rng.Float64()*100, rng.Float64()*100
		hx, hy := rng.NormFloat64(), rng.NormFloat64()
		for t := 0.0; t <= 24; t += 0.25 {
			tr.Samples = append(tr.Samples, mstsearch.Sample{X: x, Y: y, T: t})
			hx += rng.NormFloat64() * 0.3
			hy += rng.NormFloat64() * 0.3
			x += hx * 0.25
			y += hy * 0.25
		}
		ships = append(ships, tr)
	}
	// Ship 31 deliberately crosses the restricted zone overnight.
	intruder := mstsearch.Trajectory{ID: 31}
	for t := 0.0; t <= 24; t += 0.25 {
		intruder.Samples = append(intruder.Samples, mstsearch.Sample{
			X: 10 + t*3, Y: 40 + t*0.5, T: t,
		})
	}
	ships = append(ships, intruder)

	db, err := mstsearch.NewDB(mstsearch.TBTree, ships)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("harbour traffic: %d vessels, %d track segments, one %s index\n\n",
		db.Len(), db.NumSegments(), mstsearch.TBTree)

	// Restricted zone and night window, as typed query values.
	ctx := context.Background()
	zone := mstsearch.Window{MinX: 40, MinY: 40, MaxX: 60, MaxY: 60}
	night := mstsearch.Interval{T1: 0, T2: 8}

	// 1. Range query: raw position reports inside the zone tonight.
	hits, err := db.Range(ctx, zone, night)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("range query: %d track segments inside the zone during the night\n", len(hits))

	// Cost estimate before the fact, as an optimizer would.
	est, err := db.EstimateRange(zone, night)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  (histogram estimated %.0f segments before running it)\n\n", est)

	// 2. Topological query: how each vessel relates to the zone.
	rels, err := db.Topology(ctx, zone, night)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("topological query (night window):")
	for _, r := range rels {
		fmt.Printf("  vessel %-3d %-8s inside for %.1f h\n", r.TrajID, r.Relation, r.InsideDuration)
	}

	// 3. Historical NN: who was closest to the incident site at 02:30?
	nn, err := db.Nearest(ctx, 50, 50, 2.5, 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nclosest vessels to the incident site (50, 50) at t = 2.5:")
	for i, r := range nn {
		fmt.Printf("  %d. vessel %-3d at distance %.1f\n", i+1, r.TrajID, r.Dist)
	}

	// 4. Similarity: which vessels moved most like the intruder overnight?
	q := intruder.Clone()
	q.ID = 0
	resp, err := db.Query(ctx, mstsearch.Request{Q: &q, Interval: night, K: 4})
	if err != nil {
		log.Fatal(err)
	}
	sim, stats := resp.Results, resp.Stats
	fmt.Println("\nvessels moving most like the intruder (k-MST, DISSIM):")
	for i, r := range sim {
		note := ""
		if r.TrajID == 31 {
			note = "   <- the intruder itself"
		}
		fmt.Printf("  %d. vessel %-3d DISSIM = %8.1f%s\n", i+1, r.TrajID, r.Dissim, note)
	}
	fmt.Printf("\nall four query types ran on the same index; the k-MST search pruned %.0f%% of it\n",
		stats.PruningPower*100)
}
