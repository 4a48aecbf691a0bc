package mstsearch

import (
	"context"
	"math"
	"math/rand"
	"testing"
)

// TestSoakRandomOperations drives a DB through a long random mix of
// operations — adds, live appends, every query type — cross-checking each
// k-MST answer against exact pairwise DISSIM. It is the end-to-end
// integration hammer for the whole stack (facade → search → trees → pager).
func TestSoakRandomOperations(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	for _, kind := range IndexKinds() {
		t.Run(kind.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(2007))
			db := Open(kind)
			nextID := ID(1)
			alive := []ID{}

			newTraj := func() Trajectory {
				n := 10 + rng.Intn(40)
				tr := Trajectory{ID: nextID}
				x, y := rng.Float64()*100, rng.Float64()*100
				for j := 0; j <= n; j++ {
					tr.Samples = append(tr.Samples, Sample{
						X: x, Y: y, T: 10 * float64(j) / float64(n),
					})
					x += rng.NormFloat64() * 1.5
					y += rng.NormFloat64() * 1.5
				}
				nextID++
				return tr
			}
			// Seed with a few objects so queries have answers.
			for i := 0; i < 8; i++ {
				tr := newTraj()
				if err := db.Add(tr); err != nil {
					t.Fatal(err)
				}
				alive = append(alive, tr.ID)
			}

			verifyKMST := func() {
				src := db.Get(alive[rng.Intn(len(alive))])
				q := src.Clone()
				q.ID = 0
				for i := range q.Samples {
					q.Samples[i].X += rng.NormFloat64() * 0.1
					q.Samples[i].Y += rng.NormFloat64() * 0.1
				}
				t1 := rng.Float64() * 4
				t2 := t1 + 2 + rng.Float64()*4
				k := 1 + rng.Intn(3)
				resp, err := db.Query(context.Background(), Request{Q: &q, Interval: Interval{t1, t2}, K: k})
				if err != nil {
					t.Fatal(err)
				}
				res := resp.Results
				// Oracle: exact pairwise DISSIM over the whole store.
				type pair struct {
					id ID
					d  float64
				}
				var want []pair
				for _, id := range alive {
					if d, ok := Dissimilarity(&q, db.Get(id), t1, t2); ok {
						want = append(want, pair{id, d})
					}
				}
				for i := 1; i < len(want); i++ { // insertion sort, small n
					for j := i; j > 0 && (want[j].d < want[j-1].d ||
						(want[j].d == want[j-1].d && want[j].id < want[j-1].id)); j-- {
						want[j], want[j-1] = want[j-1], want[j]
					}
				}
				if len(want) > k {
					want = want[:k]
				}
				if len(res) != len(want) {
					t.Fatalf("k-MST returned %d results, oracle %d", len(res), len(want))
				}
				for i := range want {
					if res[i].TrajID != want[i].id {
						t.Fatalf("rank %d: got %d (%.6f), oracle %d (%.6f)",
							i, res[i].TrajID, res[i].Dissim, want[i].id, want[i].d)
					}
					if math.Abs(res[i].Dissim-want[i].d) > 1e-6*math.Max(1, want[i].d) {
						t.Fatalf("rank %d dissim %v vs oracle %v",
							i, res[i].Dissim, want[i].d)
					}
				}
			}

			for op := 0; op < 120; op++ {
				switch rng.Intn(6) {
				case 0: // add a new trajectory
					tr := newTraj()
					if err := db.Add(tr); err != nil {
						t.Fatal(err)
					}
					alive = append(alive, tr.ID)
				case 1: // live-append a sample to a random trajectory
					id := alive[rng.Intn(len(alive))]
					tr := db.Get(id)
					last := tr.Samples[len(tr.Samples)-1]
					err := db.AppendSample(id, Sample{
						X: last.X + rng.NormFloat64(),
						Y: last.Y + rng.NormFloat64(),
						T: last.T + 0.1 + rng.Float64(),
					})
					if err != nil {
						t.Fatal(err)
					}
				case 2: // range query must match a brute-force count
					minX, minY := rng.Float64()*80, rng.Float64()*80
					t1 := rng.Float64() * 8
					hits, err := db.Range(context.Background(), Window{minX, minY, minX + 20, minY + 20}, Interval{t1, t1 + 2})
					if err != nil {
						t.Fatal(err)
					}
					count := 0
					for _, id := range alive {
						tr := db.Get(id)
						for s := 0; s < tr.NumSegments(); s++ {
							seg := tr.Segment(s)
							if seg.B.T < t1 || seg.A.T > t1+2 {
								continue
							}
							sMinX := math.Min(seg.A.X, seg.B.X)
							sMaxX := math.Max(seg.A.X, seg.B.X)
							sMinY := math.Min(seg.A.Y, seg.B.Y)
							sMaxY := math.Max(seg.A.Y, seg.B.Y)
							if sMaxX >= minX && sMinX <= minX+20 && sMaxY >= minY && sMinY <= minY+20 {
								count++
							}
						}
					}
					if len(hits) != count {
						t.Fatalf("range query %d hits, oracle %d", len(hits), count)
					}
				case 3: // point NN sanity: reported distance is achievable
					px, py := rng.Float64()*100, rng.Float64()*100
					tt := rng.Float64() * 10
					res, err := db.Nearest(context.Background(), px, py, tt, 1)
					if err != nil {
						t.Fatal(err)
					}
					if len(res) == 1 {
						p := db.Get(res[0].TrajID).At(tt)
						d := math.Hypot(p.X-px, p.Y-py)
						if math.Abs(d-res[0].Dist) > 1e-9 {
							t.Fatalf("NN distance %v, recomputed %v", res[0].Dist, d)
						}
					}
				default: // k-MST vs oracle
					verifyKMST()
				}
			}
		})
	}
}
