package mstsearch

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"

	"mstsearch/internal/testutil"
)

// TestConcurrentQueriesAndMutations drives parallel k-MST, range, and NN
// queries against a DB while another goroutine keeps mutating it with Add
// and AppendSample. Run under -race this validates the DB's reader/writer
// locking: no data race, no panic, and every query either succeeds or
// returns a typed error — never a torn read.
func TestConcurrentQueriesAndMutations(t *testing.T) {
	testutil.CheckGoroutines(t)
	for _, kind := range IndexKinds() {
		t.Run(kind.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(71))
			trajs := fleet(rng, 40, 30)
			db, err := NewDB(kind, trajs)
			if err != nil {
				t.Fatal(err)
			}
			q := trajs[0].Clone()
			q.ID = 0

			const queriers = 4
			const rounds = 30
			var wg sync.WaitGroup
			errc := make(chan error, queriers*rounds+rounds)

			for g := 0; g < queriers; g++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(seed))
					for i := 0; i < rounds; i++ {
						switch rng.Intn(3) {
						case 0:
							if _, err := db.Query(context.Background(), Request{Q: &q, Interval: Interval{2, 8}, K: 3}); err != nil {
								errc <- err
							}
						case 1:
							if _, err := db.Range(context.Background(), Window{0, 0, 100, 100}, Interval{2, 8}); err != nil {
								errc <- err
							}
						default:
							if _, err := db.Nearest(context.Background(), 50, 50, 5, 3); err != nil {
								errc <- err
							}
						}
					}
				}(int64(100 + g))
			}

			// Mutator: interleave appends to existing trajectories with brand
			// new inserts while the queriers hammer the read side.
			wg.Add(1)
			go func() {
				defer wg.Done()
				rng := rand.New(rand.NewSource(999))
				nextID := ID(1000)
				for i := 0; i < rounds; i++ {
					if i%2 == 0 {
						id := trajs[rng.Intn(len(trajs))].ID
						cur := db.Get(id)
						last := cur.Samples[len(cur.Samples)-1]
						s := Sample{X: last.X + rng.NormFloat64(), Y: last.Y + rng.NormFloat64(), T: last.T + 0.5}
						if err := db.AppendSample(id, s); err != nil {
							errc <- err
						}
					} else {
						tr := fleet(rng, 1, 20)[0]
						tr.ID = nextID
						nextID++
						if err := db.Add(tr); err != nil {
							errc <- err
						}
					}
				}
			}()

			wg.Wait()
			close(errc)
			for err := range errc {
				t.Errorf("%s: %v", kind, err)
			}
		})
	}
}

// TestConcurrentCancellation cancels contexts while other queries proceed:
// the canceled queries must come back with the typed error and the others
// must be unaffected.
func TestConcurrentCancellation(t *testing.T) {
	testutil.CheckGoroutines(t)
	rng := rand.New(rand.NewSource(73))
	trajs := fleet(rng, 40, 30)
	db, err := NewDB(RTree3D, trajs)
	if err != nil {
		t.Fatal(err)
	}
	q := trajs[1].Clone()
	q.ID = 0

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(canceled bool) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				ctx := context.Background()
				if canceled {
					c, cancel := context.WithCancel(ctx)
					cancel()
					ctx = c
				}
				_, err := db.Query(ctx, Request{Q: &q, Interval: Interval{2, 8}, K: 3})
				if canceled {
					if !errors.Is(err, ErrCanceled) {
						t.Errorf("canceled query: got %v, want ErrCanceled", err)
					}
				} else if err != nil {
					t.Errorf("live query: %v", err)
				}
			}
		}(g%2 == 0)
	}
	wg.Wait()
}
