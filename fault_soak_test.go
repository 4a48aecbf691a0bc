package mstsearch

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"

	"mstsearch/internal/storage"
	"mstsearch/internal/testutil"
)

// typedQueryError reports whether err belongs to the documented failure
// taxonomy of the query path.
func typedQueryError(err error) bool {
	return errors.Is(err, ErrInjected) ||
		errors.Is(err, ErrCanceled) ||
		errors.Is(err, ErrPageCorrupt{})
}

// scanHit is one oracle answer.
type scanHit struct {
	id ID
	d  float64
}

// linearTopK is the exact brute-force k-MST oracle over the raw slice.
func linearTopK(trajs []Trajectory, q *Trajectory, t1, t2 float64, k int) []scanHit {
	var out []scanHit
	for i := range trajs {
		if d, ok := Dissimilarity(q, &trajs[i], t1, t2); ok {
			out = append(out, scanHit{trajs[i].ID, d})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].d != out[j].d {
			return out[i].d < out[j].d
		}
		return out[i].id < out[j].id
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}

// TestFaultInjectionSoak is the acceptance soak of the hardening layer:
// 1000 mixed queries against a database whose page reads fail with
// probability 1% and return bit-flipped payloads with probability 1%
// (seeded, reproducible). Every query must end in exactly one of three
// states — a correct result (validated against the exact linear-scan
// oracle), a degraded best-effort result with Stats.Degraded set, or a
// typed error — and the process must never panic. Each query installs the
// wrapper afresh, so it runs on a cold pool over its own fault stream.
func TestFaultInjectionSoak(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	trajs := fleet(rng, 80, 40)
	db, err := NewDB(RTree3D, trajs)
	if err != nil {
		t.Fatal(err)
	}

	var queryNo int64
	wrap := func(p Pager) Pager {
		queryNo++
		return &storage.FaultyPager{
			Inner:         p,
			Seed:          queryNo,
			ReadFaultRate: 0.01,
			Transient:     queryNo%2 == 0, // odd queries: faulted pages stay dead
			BitFlipRate:   0.01,
		}
	}

	var correct, degraded, failed, canceled int
	for i := 0; i < 1000; i++ {
		db.SetPagerWrapper(wrap)
		src := &trajs[rng.Intn(len(trajs))]
		t1 := rng.Float64() * 4
		t2 := t1 + 2 + rng.Float64()*4
		sl, ok := src.Slice(t1, t2)
		if !ok {
			t.Fatalf("iter %d: window [%g, %g] outside fleet span", i, t1, t2)
		}
		q := sl.Clone()
		q.ID = 0
		k := 1 + rng.Intn(4)

		switch rng.Intn(10) {
		case 0: // pre-canceled context: must fail fast with the typed error.
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			_, err := db.Query(ctx, Request{Q: &q, Interval: Interval{t1, t2}, K: k})
			if !errors.Is(err, ErrCanceled) {
				t.Fatalf("iter %d: canceled query returned %v, want ErrCanceled", i, err)
			}
			canceled++

		case 1, 2: // tight node budget: degraded, certified ⊆ true top-k.
			resp, err := db.Query(context.Background(), Request{Q: &q, Interval: Interval{t1, t2}, K: k, Options: Options{
				MaxNodeAccesses: 1 + rng.Intn(4),
			}})
			if err != nil {
				if !typedQueryError(err) {
					t.Fatalf("iter %d: untyped error %v", i, err)
				}
				failed++
				break
			}
			res, st := resp.Results, resp.Stats
			want := linearTopK(trajs, &q, t1, t2, k)
			if st.Degraded {
				degraded++
				trueTop := map[ID]bool{}
				for _, w := range want {
					trueTop[w.id] = true
				}
				for _, r := range res {
					if r.Certified && !trueTop[r.TrajID] {
						t.Fatalf("iter %d: certified degraded result %d not in true top-%d", i, r.TrajID, k)
					}
				}
				break
			}
			checkExact(t, i, res, want)
			correct++

		case 3: // range query: typed error or exact against brute force.
			minX, minY := rng.Float64()*80, rng.Float64()*80
			maxX, maxY := minX+5+rng.Float64()*20, minY+5+rng.Float64()*20
			hits, err := db.Range(context.Background(), Window{minX, minY, maxX, maxY}, Interval{t1, t2})
			if err != nil {
				if !typedQueryError(err) {
					t.Fatalf("iter %d: untyped error %v", i, err)
				}
				failed++
				break
			}
			got := map[[2]uint64]bool{}
			for _, h := range hits {
				got[[2]uint64{uint64(h.TrajID), uint64(h.SeqNo)}] = true
			}
			nWant := 0
			for ti := range trajs {
				tr := &trajs[ti]
				for s := 0; s+1 < len(tr.Samples); s++ {
					a, b := tr.Samples[s], tr.Samples[s+1]
					if math.Max(a.T, b.T) < t1 || math.Min(a.T, b.T) > t2 {
						continue
					}
					if math.Max(a.X, b.X) < minX || math.Min(a.X, b.X) > maxX {
						continue
					}
					if math.Max(a.Y, b.Y) < minY || math.Min(a.Y, b.Y) > maxY {
						continue
					}
					nWant++
					if !got[[2]uint64{uint64(tr.ID), uint64(s)}] {
						t.Fatalf("iter %d: range query missed segment %d/%d", i, tr.ID, s)
					}
				}
			}
			if nWant != len(hits) {
				t.Fatalf("iter %d: range query returned %d hits, oracle %d", i, len(hits), nWant)
			}
			correct++

		case 4: // point-NN: typed error or exact against brute force.
			x, y := rng.Float64()*100, rng.Float64()*100
			at := t1
			nn, err := db.Nearest(context.Background(), x, y, at, k)
			if err != nil {
				if !typedQueryError(err) {
					t.Fatalf("iter %d: untyped error %v", i, err)
				}
				failed++
				break
			}
			var want []scanHit
			for ti := range trajs {
				tr := &trajs[ti]
				if !tr.Covers(at, at) {
					continue
				}
				p := tr.At(at)
				want = append(want, scanHit{tr.ID, math.Hypot(p.X-x, p.Y-y)})
			}
			sort.Slice(want, func(i, j int) bool {
				if want[i].d != want[j].d {
					return want[i].d < want[j].d
				}
				return want[i].id < want[j].id
			})
			if len(want) > k {
				want = want[:k]
			}
			if len(nn) != len(want) {
				t.Fatalf("iter %d: NN returned %d, oracle %d", i, len(nn), len(want))
			}
			for j := range want {
				if nn[j].TrajID != want[j].id || math.Abs(nn[j].Dist-want[j].d) > 1e-9 {
					t.Fatalf("iter %d: NN rank %d = %d (%g), oracle %d (%g)",
						i, j, nn[j].TrajID, nn[j].Dist, want[j].id, want[j].d)
				}
			}
			correct++

		default: // plain k-MST: typed error or exact against the oracle.
			resp, err := db.Query(context.Background(), Request{Q: &q, Interval: Interval{t1, t2}, K: k})
			if err != nil {
				if !typedQueryError(err) {
					t.Fatalf("iter %d: untyped error %v", i, err)
				}
				failed++
				break
			}
			res, st := resp.Results, resp.Stats
			if st.Degraded {
				t.Fatalf("iter %d: unbudgeted query reported Degraded", i)
			}
			checkExact(t, i, res, linearTopK(trajs, &q, t1, t2, k))
			correct++
		}
	}

	t.Logf("soak: %d correct, %d degraded, %d typed failures, %d canceled", correct, degraded, failed, canceled)
	if correct == 0 || degraded == 0 || failed == 0 || canceled == 0 {
		t.Fatalf("soak did not exercise all outcomes: correct=%d degraded=%d failed=%d canceled=%d",
			correct, degraded, failed, canceled)
	}
}

// checkExact compares a complete (non-degraded) k-MST answer against the
// oracle: same members in the same order, every result certified.
func checkExact(t *testing.T, iter int, res []Result, want []scanHit) {
	t.Helper()
	if len(res) != len(want) {
		t.Fatalf("iter %d: got %d results, oracle %d", iter, len(res), len(want))
	}
	for j := range want {
		if res[j].TrajID != want[j].id {
			t.Fatalf("iter %d: rank %d = traj %d (%g), oracle %d (%g)",
				iter, j, res[j].TrajID, res[j].Dissim, want[j].id, want[j].d)
		}
		if !res[j].Certified {
			t.Fatalf("iter %d: complete search left result %d uncertified", iter, res[j].TrajID)
		}
	}
}

// TestRecoverAfterCorruption damages an index page in place, observes the
// typed corruption error, rebuilds with Recover, and verifies queries are
// exact again.
func TestRecoverAfterCorruption(t *testing.T) {
	for _, kind := range IndexKinds() {
		t.Run(kind.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(83))
			trajs := fleet(rng, 40, 30)
			db, err := NewDB(kind, trajs)
			if err != nil {
				t.Fatal(err)
			}
			q := trajs[2].Clone()
			q.ID = 0
			want := linearTopK(trajs, &q, 2, 8, 3)

			// Sanity: healthy database answers exactly.
			resp, err := db.Query(context.Background(), Request{Q: &q, Interval: Interval{2, 8}, K: 3})
			if err != nil {
				t.Fatal(err)
			}
			res := resp.Results
			checkExact(t, 0, res, want)

			// Smash the root page. The warm pool may still hold a verified
			// copy of some pages, so the next query either answers exactly
			// or fails with the typed corruption error — never wrongly.
			root := db.indexMeta().Root
			if err := db.file.CorruptPage(root, 5); err != nil {
				t.Fatal(err)
			}
			resp, err = db.Query(context.Background(), Request{Q: &q, Interval: Interval{2, 8}, K: 3})
			res = resp.Results
			var pc ErrPageCorrupt
			if err == nil {
				checkExact(t, 0, res, want)
			} else if !errors.As(err, &pc) {
				t.Fatalf("corrupted index, warm pool: got %v, want an exact answer or ErrPageCorrupt", err)
			}

			// On a cold pool every query must fail with the typed
			// corruption error carrying the root's page id.
			db.mu.Lock()
			db.invalidate()
			db.mu.Unlock()
			_, err = db.Query(context.Background(), Request{Q: &q, Interval: Interval{2, 8}, K: 3})
			if !errors.As(err, &pc) {
				t.Fatalf("corrupted index: got %v, want ErrPageCorrupt", err)
			}
			if pc.Page != root {
				t.Fatalf("ErrPageCorrupt.Page = %d, want root %d", pc.Page, root)
			}

			// Recover rebuilds the index from the trajectory store.
			if err := db.Recover(); err != nil {
				t.Fatal(err)
			}
			resp, err = db.Query(context.Background(), Request{Q: &q, Interval: Interval{2, 8}, K: 3})
			if err != nil {
				t.Fatalf("query after Recover: %v", err)
			}
			res, st := resp.Results, resp.Stats
			if st.Degraded {
				t.Fatal("query after Recover reported Degraded")
			}
			checkExact(t, 1, res, want)

			// The rebuilt index accepts further writes.
			extra := fleet(rng, 1, 20)[0]
			extra.ID = 9999
			if err := db.Add(extra); err != nil {
				t.Fatalf("Add after Recover: %v", err)
			}
		})
	}
}

// TestWarmStripedPoolSoak re-runs the hardening contract through the
// concurrent engine: ONE fault-injecting pager shared by every query via
// the DB's striped buffer pool, hammered by ~300 mixed serial and batched
// (Parallelism = 4) queries. The contract is unchanged from the per-query
// soak — every query ends correct (oracle-checked) or with a typed error,
// never with silently wrong bytes — but now all of it flows through shared
// shards under concurrency.
func TestWarmStripedPoolSoak(t *testing.T) {
	testutil.CheckGoroutines(t) // shared shards must not strand workers
	rng := rand.New(rand.NewSource(177))
	trajs := fleet(rng, 60, 40)
	db, err := NewDB(TBTree, trajs)
	if err != nil {
		t.Fatal(err)
	}
	faulty := &storage.FaultyPager{
		Seed:          177,
		ReadFaultRate: 0.005,
		Transient:     true,
		BitFlipRate:   0.005,
	}
	db.SetPagerWrapper(func(p Pager) Pager {
		faulty.Inner = p
		return faulty
	})

	newQuery := func() (Trajectory, float64, float64, int) {
		src := &trajs[rng.Intn(len(trajs))]
		t1 := rng.Float64() * 4
		t2 := t1 + 2 + rng.Float64()*4
		sl, ok := src.Slice(t1, t2)
		if !ok {
			t.Fatalf("window [%g, %g] outside fleet span", t1, t2)
		}
		q := sl.Clone()
		q.ID = 0
		return q, t1, t2, 1 + rng.Intn(4)
	}
	check := func(iter int, q *Trajectory, t1, t2 float64, k int, res []Result, err error) (ok, failed bool) {
		if err != nil {
			if !typedQueryError(err) {
				t.Fatalf("iter %d: untyped error %v", iter, err)
			}
			return false, true
		}
		checkExact(t, iter, res, linearTopK(trajs, q, t1, t2, k))
		return true, false
	}

	var correct, failed int
	var retries uint64
	opts := Options{Parallelism: 4}
	for i := 0; i < 25; i++ {
		// Eight serial queries...
		for j := 0; j < 8; j++ {
			q, t1, t2, k := newQuery()
			resp, err := db.Query(context.Background(), Request{Q: &q, Interval: Interval{t1, t2}, K: k, Options: opts})
			res, st := resp.Results, resp.Stats
			retries += st.Retries
			c, f := check(i*100+j, &q, t1, t2, k, res, err)
			if c {
				correct++
			}
			if f {
				failed++
			}
		}
		// ...then four more as one batch on four workers.
		batch := make([]BatchQuery, 4)
		qs := make([]Trajectory, 4)
		for j := range batch {
			q, t1, t2, k := newQuery()
			qs[j] = q
			batch[j] = BatchQuery{Q: &qs[j], T1: t1, T2: t2, K: k}
		}
		for j, br := range db.KMostSimilarBatch(context.Background(), batch, opts) {
			c, f := check(i*100+50+j, batch[j].Q, batch[j].T1, batch[j].T2, batch[j].K, br.Results, br.Err)
			if c {
				correct++
			}
			if f {
				failed++
			}
		}
	}
	if correct == 0 {
		t.Fatal("soak never produced a correct result")
	}
	if retries == 0 {
		t.Fatal("fault injection never fired: the soak exercised nothing")
	}
	t.Logf("warm striped soak: %d correct, %d typed failures, %d retries absorbed",
		correct, failed, retries)
}
