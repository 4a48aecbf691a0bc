// Metroline reproduces the paper's motivating scenario (§1): a city
// extends its metro network with a new line, and transport planners ask
// which existing bus lines run most similarly to it — in space AND time —
// so their timetables can be revised (or the routes retired).
//
// The example builds a synthetic city: a new metro line running diagonally
// across town on a fixed schedule, and 30 bus lines on assorted routes.
// Three of the buses deliberately shadow the metro corridor: one matching
// its schedule, one on the same route but offset in time, and one on the
// same route at rush-hour crawl speed. A k-MST query with the DISSIM
// metric tells the planner which buses genuinely duplicate the new
// service, and the time-offset bus shows why spatial-only similarity would
// mislead.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"mstsearch"
)

const (
	dayStart = 0.0  // 06:00 in abstract units
	dayEnd   = 18.0 // 24:00
)

// route samples a line between two corners with n stops, jittered.
func route(rng *rand.Rand, id int, x0, y0, x1, y1, t0, t1 float64, n int, noise float64) mstsearch.Trajectory {
	tr := mstsearch.Trajectory{ID: mstsearch.ID(id)}
	for j := 0; j <= n; j++ {
		f := float64(j) / float64(n)
		tr.Samples = append(tr.Samples, mstsearch.Sample{
			X: x0 + f*(x1-x0) + rng.NormFloat64()*noise,
			Y: y0 + f*(y1-y0) + rng.NormFloat64()*noise,
			T: t0 + f*(t1-t0),
		})
	}
	return tr
}

func main() {
	rng := rand.New(rand.NewSource(7))

	// The new metro line: SW depot to NE terminus, a full service day.
	metro := route(rng, 999, 10, 10, 90, 90, dayStart, dayEnd, 60, 0)
	metro.ID = 0 // query trajectory

	var buses []mstsearch.Trajectory
	// Bus 1 shadows the metro corridor on the metro's schedule.
	buses = append(buses, route(rng, 1, 11, 9, 91, 89, dayStart, dayEnd, 45, 0.8))
	// Bus 2 drives the same corridor but in the opposite direction.
	buses = append(buses, route(rng, 2, 90, 90, 10, 10, dayStart, dayEnd, 45, 0.8))
	// Bus 3 rides the corridor but spends the morning circling downtown
	// first — same shape later, different timing.
	late := route(rng, 3, 10, 10, 90, 90, dayStart+9, dayEnd, 30, 0.8)
	loop := route(rng, 3, 30, 30, 32, 30, dayStart, dayStart+8.9, 20, 2.5)
	loop.Samples = append(loop.Samples, late.Samples...)
	buses = append(buses, loop)
	// 27 unrelated lines criss-crossing town.
	for id := 4; id <= 30; id++ {
		buses = append(buses, route(rng, id,
			rng.Float64()*100, rng.Float64()*100,
			rng.Float64()*100, rng.Float64()*100,
			dayStart, dayEnd, 30+rng.Intn(30), 1.5))
	}

	db, err := mstsearch.NewDB(mstsearch.RTree3D, buses)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("city bus network: %d lines, %d segments, %.2f MB 3D R-tree\n\n",
		db.Len(), db.NumSegments(), db.IndexSizeMB())

	resp, err := db.Query(context.Background(), mstsearch.Request{Q: &metro, Interval: mstsearch.Interval{T1: dayStart, T2: dayEnd}, K: 5})
	if err != nil {
		log.Fatal(err)
	}
	results, stats := resp.Results, resp.Stats
	fmt.Println("bus lines most similar to the new metro line (full service day):")
	for i, r := range results {
		fmt.Printf("%d. bus line %-3d DISSIM = %8.1f%s\n",
			i+1, r.TrajID, r.Dissim, annotation(r.TrajID))
	}
	fmt.Printf("\npruning power: %.1f%% of %d index nodes never read\n",
		stats.PruningPower*100, stats.TotalNodes)

	// The planner's takeaway, computed rather than asserted: bus 1 is
	// redundant with the metro; bus 3 only looks redundant on a map.
	d1, _ := mstsearch.Dissimilarity(&metro, db.Get(1), dayStart, dayEnd)
	d3, _ := mstsearch.Dissimilarity(&metro, db.Get(3), dayStart, dayEnd)
	fmt.Printf("\nspatially, lines 1 and 3 both follow the corridor, but\n")
	fmt.Printf("DISSIM(metro, bus 1) = %.1f while DISSIM(metro, bus 3) = %.1f:\n", d1, d3)
	fmt.Println("only bus 1 duplicates the metro in space-time and is a candidate for rescheduling.")
}

func annotation(id mstsearch.ID) string {
	switch id {
	case 1:
		return "   <- same corridor, same schedule"
	case 2:
		return "   <- same corridor, opposite direction"
	case 3:
		return "   <- same corridor, morning spent downtown"
	}
	return ""
}
