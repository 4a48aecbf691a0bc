package mstsearch

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"

	"mstsearch/internal/index"
	"mstsearch/internal/mst"
	"mstsearch/internal/testutil"
)

// ownerFleet draws a fleet whose MBB-tree leaves come both ways: long
// random walks, whose consecutive segments fill leaves of their own, and
// short ones, which share leaves. A third of the short ones cover only
// part of the time domain [0, 10], so some trajectories a leaf names are
// decided out of play rather than by their DISSIM.
func ownerFleet(rng *rand.Rand) []Trajectory {
	trajs := fleet(rng, 8, 300)
	for i, tr := range fleet(rng, 24, 25) {
		tr.ID = ID(100 + i)
		if i%3 == 0 {
			a := rng.Float64() * 4
			part, ok := tr.Slice(a, a+2+rng.Float64()*4)
			if !ok {
				panic(fmt.Sprintf("slice of trajectory %d", tr.ID))
			}
			tr = part
		}
		trajs = append(trajs, tr)
	}
	return trajs
}

// ownerQueries draws queries over random windows of [0, 10]: foreign walks,
// and slices of stored trajectories with the twin excluded.
func ownerQueries(rng *rand.Rand, db *DB, n int) []Request {
	reqs := make([]Request, n)
	for i := range reqs {
		t1 := rng.Float64() * 6
		t2 := t1 + 1 + rng.Float64()*3
		k := 1 + rng.Intn(8)
		if i%2 == 0 {
			q := fleet(rng, 1, 80)[0]
			q.ID = 0
			reqs[i] = Request{Q: &q, Interval: Interval{T1: t1, T2: t2}, K: k}
			continue
		}
		ids := db.IDs()
		src := db.Get(ids[rng.Intn(8)]) // one of the long walks, which cover [0, 10]
		q, ok := src.Slice(t1, t2)
		if !ok {
			panic(fmt.Sprintf("slice of trajectory %d", src.ID))
		}
		q.ID = 0
		reqs[i] = Request{Q: &q, Interval: Interval{T1: t1, T2: t2}, K: k, Options: Options{ExcludeIDs: []ID{src.ID}}}
	}
	return reqs
}

// ownerTree returns db's MBB tree, failing the test unless it tracks its
// leaf-owner table.
func ownerTree(t *testing.T, db *DB) mbbTree {
	t.Helper()
	e, ok := db.eng.(*mbbEngine)
	if !ok {
		t.Fatalf("%s engine is not an MBB engine", db.kind)
	}
	if e.t.Owners() == nil {
		t.Fatalf("%s tree tracks no leaf-owner table", db.kind)
	}
	return e.t
}

// checkLeafOwners asserts what the leaf-owner table promises on db: it
// equals the table a fresh walk derives from the pages (the tree's
// invariant walk checks this), and DB.Query, which skips the leaves the
// table names once their trajectory is decided, answers each request as
// the same search reading every leaf — the same IDs, distance bits and
// Certified flags, a CertFloor no lower, and one no higher than the exact
// DISSIM of any covering trajectory it did not return. A budgeted run
// certifies only true top-k members and keeps the same floor bound. It
// returns the leaves the searches skipped.
func checkLeafOwners(t *testing.T, label string, db *DB, reqs []Request) int {
	t.Helper()
	tree := ownerTree(t, db)
	n, err := tree.(interface{ CheckInvariants() (int, error) }).CheckInvariants()
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if n != db.numSegments() {
		t.Fatalf("%s: index holds %d segments, store %d", label, n, db.numSegments())
	}
	ds, err := db.dataset()
	if err != nil {
		t.Fatal(err)
	}
	skipped := 0
	for i, req := range reqs {
		all := linearTopK(db.trajs, req.Q, req.Interval.T1, req.Interval.T2, len(db.trajs))
		resp, err := db.Query(context.Background(), req)
		if err != nil {
			t.Fatalf("%s query %d: %v", label, i, err)
		}
		skipped += resp.Stats.LeavesSkipped
		plain, st := searchMST(t, db, req, mst.Options{Data: ds})
		if st.LeavesSkipped != 0 {
			t.Fatalf("%s query %d: a search without the table skipped %d leaves", label, i, st.LeavesSkipped)
		}
		want := make([]Result, len(plain))
		for j, r := range plain {
			want[j] = Result{TrajID: r.TrajID, Dissim: r.Dissim, Certified: r.Certified}
		}
		checkBitIdentical(t, label, i, want, resp.Results)
		if resp.Stats.CertFloor < st.CertFloor {
			t.Fatalf("%s query %d: CertFloor %v below the %v of the search reading every leaf",
				label, i, resp.Stats.CertFloor, st.CertFloor)
		}
		checkFloorSound(t, fmt.Sprintf("%s query %d", label, i), req, resp, all)

		if resp.Stats.NodesAccessed < 4 {
			continue
		}
		req.Options.MaxNodeAccesses = resp.Stats.NodesAccessed / 2
		deg, err := db.Query(context.Background(), req)
		if err != nil {
			t.Fatalf("%s query %d, budget %d: %v", label, i, req.Options.MaxNodeAccesses, err)
		}
		if !deg.Stats.Degraded {
			t.Fatalf("%s query %d: budget %d of %d nodes did not degrade", label, i, req.Options.MaxNodeAccesses, resp.Stats.NodesAccessed)
		}
		checkFloorSound(t, fmt.Sprintf("%s query %d, budget %d", label, i, req.Options.MaxNodeAccesses), req, deg, all)
	}
	return skipped
}

// checkFloorSound fails unless resp's CertFloor lies at or below the exact
// DISSIM of every covering trajectory it did not return (all is the
// oracle's full ranking), and every Certified result is a true top-k
// member.
func checkFloorSound(t *testing.T, label string, req Request, resp Response, all []scanHit) {
	t.Helper()
	excluded := map[ID]bool{}
	for _, id := range req.Options.ExcludeIDs {
		excluded[id] = true
	}
	var top []scanHit
	for _, h := range all {
		if !excluded[h.id] {
			top = append(top, h)
		}
	}
	kth := math.Inf(1)
	if len(top) >= req.K {
		kth = top[req.K-1].d
	}
	returned := map[ID]bool{}
	for _, r := range resp.Results {
		returned[r.TrajID] = true
		if r.Certified && r.Dissim > kth {
			t.Fatalf("%s: certified result %+v beyond the true k-th DISSIM %v", label, r, kth)
		}
	}
	for _, h := range top {
		if !returned[h.id] && h.d < resp.Stats.CertFloor-1e-9*(1+h.d) {
			t.Fatalf("%s: trajectory %d not returned at exact %v below CertFloor %v",
				label, h.id, h.d, resp.Stats.CertFloor)
		}
	}
}

// TestLeafOwnerOracle runs interleaved Add, AppendSample, Save→Load,
// durable reopen and clone, Recover and an in-memory replica re-seed on
// random fleets of every MBB kind, and after every step checks the
// leaf-owner table against the pages and the search that uses it against
// the search that reads every leaf (checkLeafOwners).
func TestLeafOwnerOracle(t *testing.T) {
	for _, kind := range []IndexKind{RTree3D, TBTree, STRTree} {
		t.Run(kind.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(81 + kind)))
			dir := t.TempDir()
			db, err := NewDB(kind, ownerFleet(rng))
			if err != nil {
				t.Fatal(err)
			}
			defer func() { db.Close() }()

			owned, mixed := 0, 0
			if err := ownerTree(t, db).(interface {
				Walk(func(*index.Node, int, index.PathStep) error) error
			}).Walk(func(n *index.Node, _ int, _ index.PathStep) error {
				if n.Leaf {
					if _, ok := db.eng.(*mbbEngine).t.Owners().Owner(n.Page); ok {
						owned++
					} else {
						mixed++
					}
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if owned == 0 || (kind != TBTree && mixed == 0) {
				t.Fatalf("fleet made %d single-trajectory and %d mixed leaves; the test needs both", owned, mixed)
			}

			skipped := checkLeafOwners(t, "built", db, ownerQueries(rng, db, 6))
			// Every operation runs twice, in a random order.
			ops := []string{"add", "append", "save-load", "durable-clone", "durable-reopen", "recover", "reseed"}
			var order []string
			for round := 0; round < 2; round++ {
				for _, i := range rng.Perm(len(ops)) {
					order = append(order, ops[i])
				}
			}
			nextID, durable, clones := ID(1000), false, 0
			clone := func() {
				clones++
				next, err := db.CloneDurable(filepath.Join(dir, fmt.Sprintf("durable%d", clones)), DurableOptions{})
				if err != nil {
					t.Fatal(err)
				}
				if err := db.Close(); err != nil {
					t.Fatal(err)
				}
				db, durable = next, true
			}
			for step, op := range order {
				switch op {
				case "add":
					tr := fleet(rng, 1, 20+rng.Intn(200))[0]
					tr.ID = nextID
					nextID++
					if err := db.Add(tr); err != nil {
						t.Fatal(err)
					}
				case "append":
					ids := db.IDs()
					for i := 0; i < 40; i++ {
						id := ids[rng.Intn(len(ids))]
						if i%2 == 0 {
							id = ids[rng.Intn(8)] // grow a long walk's own leaves
						}
						last := db.Get(id).Samples[len(db.Get(id).Samples)-1]
						s := Sample{X: last.X + rng.NormFloat64(), Y: last.Y + rng.NormFloat64(), T: last.T + 0.05}
						if err := db.AppendSample(id, s); err != nil {
							t.Fatal(err)
						}
					}
				case "save-load":
					path := filepath.Join(dir, fmt.Sprintf("snap%d", step))
					if err := db.Save(path); err != nil {
						t.Fatal(err)
					}
					loaded, err := Load(path)
					if err != nil {
						t.Fatal(err)
					}
					if err := db.Close(); err != nil {
						t.Fatal(err)
					}
					db, durable = loaded, false
				case "durable-clone":
					clone()
				case "durable-reopen":
					if !durable {
						clone()
					}
					if err := db.Close(); err != nil {
						t.Fatal(err)
					}
					next, err := OpenDurable(db.dir, kind, DurableOptions{})
					if err != nil {
						t.Fatal(err)
					}
					db = next
				case "recover":
					if err := db.Recover(); err != nil {
						t.Fatal(err)
					}
				case "reseed":
					fresh := Open(kind)
					for _, id := range db.IDs() {
						if err := fresh.Add(*db.Get(id)); err != nil {
							t.Fatal(err)
						}
					}
					if err := db.Close(); err != nil {
						t.Fatal(err)
					}
					db, durable = fresh, false
				}
				skipped += checkLeafOwners(t, fmt.Sprintf("step %d %s", step, op), db, ownerQueries(rng, db, 4))
			}
			if skipped == 0 {
				t.Fatal("no search skipped a leaf; the comparison was vacuous")
			}
		})
	}
}

// TestConcurrentLeafOwnerAppends runs queries concurrently with appends on
// one DB: appends rewrite leaves and the owner table under the write lock
// while queries read both under the read lock. Afterwards the table must
// still match the pages and the answers those of the search reading every
// leaf. Run it under -race.
func TestConcurrentLeafOwnerAppends(t *testing.T) {
	testutil.CheckGoroutines(t)
	for _, kind := range []IndexKind{RTree3D, TBTree} {
		t.Run(kind.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(91))
			db, err := NewDB(kind, ownerFleet(rng))
			if err != nil {
				t.Fatal(err)
			}
			reqs := ownerQueries(rng, db, 8)
			var wg sync.WaitGroup
			errc := make(chan error, 64)
			for g := 0; g < 3; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < 20; i++ {
						if _, err := db.Query(context.Background(), reqs[(g+i)%len(reqs)]); err != nil {
							errc <- err
							return
						}
					}
				}(g)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				rng := rand.New(rand.NewSource(92))
				ids := db.IDs()
				for i := 0; i < 120; i++ {
					id := ids[rng.Intn(len(ids))]
					last := db.Get(id).Samples[len(db.Get(id).Samples)-1]
					s := Sample{X: last.X + rng.NormFloat64(), Y: last.Y + rng.NormFloat64(), T: last.T + 0.05}
					if err := db.AppendSample(id, s); err != nil {
						errc <- err
						return
					}
				}
			}()
			wg.Wait()
			close(errc)
			for err := range errc {
				t.Fatal(err)
			}
			checkLeafOwners(t, "after concurrent appends", db, reqs)
		})
	}
}
