// Fleet demonstrates k-MST search over a realistic delivery-truck fleet
// (the Trucks-like dataset of the paper's quality study): given one
// truck's route sketch — a heavily TD-TR-compressed version of its GPS
// trace — find the trucks that actually drove like it, and compare what
// the sample-matching baselines (LCSS, EDR) conclude from the same sketch.
package main

import (
	"context"
	"fmt"
	"log"

	"mstsearch"
	"mstsearch/internal/baselines"
	"mstsearch/internal/experiments"
	"mstsearch/internal/trajectory"
)

func main() {
	// ~68 trucks with heterogeneous sampling rates (scale 0.25).
	data := experiments.TrucksDataset(0.25, 11)
	fmt.Printf("fleet: %d trucks, %d GPS segments\n", data.Len(), data.NumSegments())

	db, err := mstsearch.NewDB(mstsearch.TBTree, data.Trajs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("TB-tree index: %.2f MB\n\n", db.IndexSizeMB())

	// The dispatcher sketches truck 17's route: its trace compressed to a
	// handful of waypoints (TD-TR at p = 2 %).
	subject := db.Get(17)
	sketch := mstsearch.CompressTDTR(subject, 0.02)
	sketch.ID = 0
	fmt.Printf("query: truck 17's route sketched with %d of %d waypoints\n\n",
		len(sketch.Samples), len(subject.Samples))

	resp, err := db.Query(context.Background(), mstsearch.Request{Q: &sketch, Interval: mstsearch.Interval{T1: subject.StartTime(), T2: subject.EndTime()}, K: 4})
	if err != nil {
		log.Fatal(err)
	}
	results, stats := resp.Results, resp.Stats
	fmt.Println("trucks that drove most like the sketch (DISSIM, space-time):")
	for i, r := range results {
		marker := ""
		if r.TrajID == 17 {
			marker = "   <- the sketched truck itself"
		}
		fmt.Printf("%d. truck %-4d DISSIM = %.4f%s\n", i+1, r.TrajID, r.Dissim, marker)
	}
	fmt.Printf("\nindex pruning: %d of %d nodes read (%.1f%% pruned), %d page reads\n\n",
		stats.NodesAccessed, stats.TotalNodes, stats.PruningPower*100, stats.PageReads)

	// The baselines see the same sketch: EDR, which matches samples one by
	// one, is misled by the sketch's low sampling rate (paper §5.2).
	norm := make([]trajectory.Trajectory, data.Len())
	for i := range data.Trajs {
		norm[i] = trajectory.Normalize(&data.Trajs[i])
	}
	eps := baselines.EpsilonForDataset(norm)
	sketchN := trajectory.Normalize(&sketch)

	bestEDR, bestEDRID := 1<<30, mstsearch.ID(0)
	for i := range norm {
		if d := baselines.EDR(&sketchN, &norm[i], eps); d < bestEDR {
			bestEDR, bestEDRID = d, norm[i].ID
		}
	}
	fmt.Printf("EDR's most similar truck for the same sketch: %d", bestEDRID)
	if bestEDRID != 17 {
		fmt.Printf(" (wrong — sample-count mismatch dominates the edit distance)\n")
	} else {
		fmt.Printf("\n")
	}
	bestI, bestIID := 1<<30, mstsearch.ID(0)
	for i := range norm {
		if d := baselines.EDRI(&sketchN, &norm[i], eps); d < bestI {
			bestI, bestIID = d, norm[i].ID
		}
	}
	fmt.Printf("EDR-I (interpolation-improved) answers: %d\n", bestIID)
}
