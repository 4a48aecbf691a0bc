// Timerelaxed demonstrates the Time-Relaxed MST query, the extension the
// paper's conclusions name as future work (§6): find the trajectories that
// moved most like the query *regardless of when each object set out*.
//
// Scenario: a security analyst has the movement pattern of a suspicious
// vehicle recorded on Monday and wants to know which vehicles in the
// archive repeated that pattern at any time during the week. The standard
// (time-anchored) k-MST query only matches Monday drivers; the relaxed
// query also surfaces a vehicle that drove the identical route on
// Thursday.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"mstsearch"
)

const day = 24.0

// drive produces a trajectory following the base course starting at t0,
// with positional noise.
func drive(rng *rand.Rand, id int, t0, speed float64, noise float64) mstsearch.Trajectory {
	tr := mstsearch.Trajectory{ID: mstsearch.ID(id)}
	// A distinctive 8-leg course through the city.
	course := [][2]float64{{5, 5}, {20, 8}, {25, 25}, {40, 28}, {42, 45}, {60, 50}, {64, 70}, {80, 75}, {95, 90}}
	tt := t0
	for leg := 0; leg+1 < len(course); leg++ {
		a, b := course[leg], course[leg+1]
		for s := 0; s < 6; s++ {
			f := float64(s) / 6
			tr.Samples = append(tr.Samples, mstsearch.Sample{
				X: a[0] + f*(b[0]-a[0]) + rng.NormFloat64()*noise,
				Y: a[1] + f*(b[1]-a[1]) + rng.NormFloat64()*noise,
				T: tt,
			})
			tt += 0.2 / speed
		}
	}
	tr.Samples = append(tr.Samples, mstsearch.Sample{X: 95, Y: 90, T: tt})
	return tr
}

// wander produces an unrelated vehicle active all week.
func wander(rng *rand.Rand, id int) mstsearch.Trajectory {
	tr := mstsearch.Trajectory{ID: mstsearch.ID(id)}
	x, y := rng.Float64()*100, rng.Float64()*100
	for t := 0.0; t <= 7*day; t += 0.5 {
		tr.Samples = append(tr.Samples, mstsearch.Sample{X: x, Y: y, T: t})
		x += rng.NormFloat64() * 2
		y += rng.NormFloat64() * 2
	}
	return tr
}

func main() {
	rng := rand.New(rand.NewSource(3))

	var archive []mstsearch.Trajectory
	// Vehicle 1: drives the course on Monday morning (like the query).
	archive = append(archive, pad(drive(rng, 1, 8, 1, 0.4), 7*day))
	// Vehicle 2: drives the same course on THURSDAY morning.
	archive = append(archive, pad(drive(rng, 2, 3*day+8, 1, 0.4), 7*day))
	// Vehicles 3..25: unrelated traffic.
	for id := 3; id <= 25; id++ {
		archive = append(archive, wander(rng, id))
	}

	db, err := mstsearch.NewDB(mstsearch.RTree3D, archive)
	if err != nil {
		log.Fatal(err)
	}

	// The observed pattern: the course driven Monday at 08:00.
	q := drive(rng, 0, 8, 1, 0)
	q.ID = 0

	fmt.Println("time-anchored k-MST (Monday 08:00 window):")
	aresp, err := db.Query(context.Background(), mstsearch.Request{Q: &q, Interval: mstsearch.Interval{T1: q.StartTime(), T2: q.EndTime()}, K: 3})
	if err != nil {
		log.Fatal(err)
	}
	anchored := aresp.Results
	for i, r := range anchored {
		fmt.Printf("%d. vehicle %-3d DISSIM = %9.2f%s\n", i+1, r.TrajID, r.Dissim, note(r.TrajID))
	}

	fmt.Println("\ntime-relaxed k-MST (best alignment at any start time):")
	relaxed, err := db.Relaxed(context.Background(), &q, 3)
	if err != nil {
		log.Fatal(err)
	}
	for i, r := range relaxed {
		fmt.Printf("%d. vehicle %-3d DISSIM = %9.2f at offset %+6.1f h%s\n",
			i+1, r.TrajID, r.Dissim, r.Offset, note(r.TrajID))
	}
	fmt.Println("\nthe Thursday copycat (vehicle 2) is invisible to the anchored query")
	fmt.Println("but surfaces under the relaxed one, with the ~72 h offset recovered.")
}

// pad extends a trajectory to span [0, end] by parking the vehicle at its
// endpoints, so every archive entry covers the whole week.
func pad(tr mstsearch.Trajectory, end float64) mstsearch.Trajectory {
	first, last := tr.Samples[0], tr.Samples[len(tr.Samples)-1]
	var out mstsearch.Trajectory
	out.ID = tr.ID
	if first.T > 0 {
		out.Samples = append(out.Samples, mstsearch.Sample{X: first.X, Y: first.Y, T: 0})
	}
	out.Samples = append(out.Samples, tr.Samples...)
	if last.T < end {
		out.Samples = append(out.Samples, mstsearch.Sample{X: last.X, Y: last.Y, T: end})
	}
	return out
}

func note(id mstsearch.ID) string {
	switch id {
	case 1:
		return "   <- drove the course on Monday"
	case 2:
		return "   <- drove the course on Thursday"
	}
	return ""
}
