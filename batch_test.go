package mstsearch

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"mstsearch/internal/testutil"
)

func batchFixture(t *testing.T, kind IndexKind, seed int64) (*DB, []Trajectory) {
	t.Helper()
	testutil.CheckGoroutines(t) // the batch worker pool must not outlive its call
	rng := rand.New(rand.NewSource(seed))
	trajs := fleet(rng, 40, 30)
	db, err := NewDB(kind, trajs)
	if err != nil {
		t.Fatal(err)
	}
	return db, trajs
}

// TestBatchMatchesSerialLoop: a batch call must return, slot for slot,
// exactly what a serial loop of Query returns — across kinds
// and worker counts.
func TestBatchMatchesSerialLoop(t *testing.T) {
	for _, kind := range IndexKinds() {
		t.Run(kind.String(), func(t *testing.T) {
			db, trajs := batchFixture(t, kind, 51)
			rng := rand.New(rand.NewSource(52))
			var queries []BatchQuery
			for i := 0; i < 16; i++ {
				c := trajs[rng.Intn(len(trajs))].Clone()
				for j := range c.Samples {
					c.Samples[j].X += rng.NormFloat64()
					c.Samples[j].Y += rng.NormFloat64()
				}
				t1 := rng.Float64() * 4
				queries = append(queries, BatchQuery{Q: &c, T1: t1, T2: t1 + 2 + rng.Float64()*4, K: 1 + rng.Intn(4)})
			}
			opts := Options{}
			serial := make([][]Result, len(queries))
			for i, bq := range queries {
				resp, err := db.Query(context.Background(), Request{Q: bq.Q, Interval: Interval{bq.T1, bq.T2}, K: bq.K, Options: opts})
				if err != nil {
					t.Fatalf("serial %d: %v", i, err)
				}
				res := resp.Results
				serial[i] = res
			}
			for _, par := range []int{1, 4} {
				o := opts
				o.Parallelism = par
				for i, br := range db.KMostSimilarBatch(context.Background(), queries, o) {
					if br.Err != nil {
						t.Fatalf("parallelism %d slot %d: %v", par, i, br.Err)
					}
					checkBitIdentical(t, "batch-vs-serial", i, serial[i], br.Results)
				}
			}
		})
	}
}

// TestBatchErrorIsolation: one malformed query must fail only its own
// slot; every other slot still gets its full answer.
func TestBatchErrorIsolation(t *testing.T) {
	db, trajs := batchFixture(t, RTree3D, 61)
	q0 := trajs[0].Clone()
	q1 := trajs[1].Clone()
	q2 := trajs[2].Clone()
	queries := []BatchQuery{
		{Q: &q0, T1: 0, T2: 10, K: 2},
		{Q: &q1, T1: 8, T2: 2, K: 2}, // inverted period: ErrBadQuery
		{Q: &q2, T1: 0, T2: 10, K: 2},
	}
	out := db.KMostSimilarBatch(context.Background(), queries, Options{Parallelism: 2})
	if out[0].Err != nil || out[2].Err != nil {
		t.Fatalf("healthy slots failed: %v / %v", out[0].Err, out[2].Err)
	}
	if !errors.Is(out[1].Err, ErrBadQuery) {
		t.Fatalf("bad slot: err %v, want ErrBadQuery", out[1].Err)
	}
	if len(out[0].Results) != 2 || len(out[2].Results) != 2 {
		t.Fatalf("healthy slots returned %d/%d results, want 2/2", len(out[0].Results), len(out[2].Results))
	}
	if out[1].Results != nil {
		t.Fatalf("failed slot carries results: %+v", out[1].Results)
	}
}

// TestBatchCancellation: a pre-canceled context fails every slot with an
// error wrapping ErrCanceled — no partial panic, no hung workers.
func TestBatchCancellation(t *testing.T) {
	db, trajs := batchFixture(t, TBTree, 71)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var queries []BatchQuery
	for i := 0; i < 8; i++ {
		c := trajs[i].Clone()
		queries = append(queries, BatchQuery{Q: &c, T1: 0, T2: 10, K: 3})
	}
	for i, br := range db.KMostSimilarBatch(ctx, queries, Options{Parallelism: 4}) {
		if !errors.Is(br.Err, ErrCanceled) {
			t.Fatalf("slot %d: err %v, want ErrCanceled", i, br.Err)
		}
	}
}

// TestBatchEmpty: a zero-length batch is a no-op, whatever the options.
func TestBatchEmpty(t *testing.T) {
	db, _ := batchFixture(t, STRTree, 81)
	if out := db.KMostSimilarBatch(context.Background(), nil, Options{Parallelism: 4}); len(out) != 0 {
		t.Fatalf("empty batch returned %d results", len(out))
	}
}

// TestBatchSharedPoolWarmth: queries of one batch read through a shared
// buffer, so a repeated query later in the batch finds most of its pages
// already cached. Run single-worker so the per-slot stats deltas are
// exact. (Exactly zero re-reads is not guaranteed: the pool's LRU is
// per-shard, so two hot pages hashing to the same small shard can evict
// each other — the contract is strictly cheaper, mostly-hit service.)
func TestBatchSharedPoolWarmth(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	trajs := fleet(rng, 400, 30)
	db, err := NewDB(RTree3D, trajs)
	if err != nil {
		t.Fatal(err)
	}
	q := trajs[5].Clone()
	queries := []BatchQuery{
		{Q: &q, T1: 4, T2: 6, K: 2},
		{Q: &q, T1: 4, T2: 6, K: 2}, // identical twin: pages still warm
	}
	out := db.KMostSimilarBatch(context.Background(), queries, Options{Parallelism: 1})
	for i, br := range out {
		if br.Err != nil {
			t.Fatalf("slot %d: %v", i, br.Err)
		}
	}
	s0, s1 := out[0].Stats, out[1].Stats
	if s0.PageReads == 0 {
		t.Fatal("first query of a cold batch should pay physical reads")
	}
	if s1.PageReads >= s0.PageReads {
		t.Fatalf("repeated query paid %d physical reads, cold twin paid %d — shared pool never warmed",
			s1.PageReads, s0.PageReads)
	}
	if s1.BufferHits <= s0.BufferHits {
		t.Fatalf("repeated query got %d buffer hits, cold twin %d — expected mostly-hit service",
			s1.BufferHits, s0.BufferHits)
	}
	checkBitIdentical(t, "warm-twin", 1, out[0].Results, out[1].Results)
}
