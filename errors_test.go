package mstsearch

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"
)

// TestDeadlineVersusCancelTaxonomy pins the split between the two ways a
// context kills a query. Both must keep satisfying errors.Is(err,
// ErrCanceled) — existing callers switch on that — but only an expired
// deadline additionally satisfies ErrDeadlineExceeded, so servers can
// answer 504 for timeouts and 499 for walk-aways without string-matching.
func TestDeadlineVersusCancelTaxonomy(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	trajs := fleet(rng, 30, 30)
	db, err := NewDB(RTree3D, trajs)
	if err != nil {
		t.Fatal(err)
	}
	req := Request{Q: &trajs[0], Interval: Interval{T1: trajs[0].Samples[0].T, T2: trajs[0].Samples[len(trajs[0].Samples)-1].T}, K: 3}

	t.Run("deadline", func(t *testing.T) {
		ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
		defer cancel()
		_, err := db.Query(ctx, req)
		if !errors.Is(err, ErrDeadlineExceeded) {
			t.Fatalf("expired deadline: got %v, want ErrDeadlineExceeded", err)
		}
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("ErrDeadlineExceeded must still satisfy ErrCanceled, got %v", err)
		}
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("deadline error must preserve context.DeadlineExceeded, got %v", err)
		}
	})

	t.Run("cancel", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		_, err := db.Query(ctx, req)
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("canceled query: got %v, want ErrCanceled", err)
		}
		if errors.Is(err, ErrDeadlineExceeded) {
			t.Fatalf("plain cancellation must not read as a deadline: %v", err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancel error must preserve context.Canceled, got %v", err)
		}
	})

	t.Run("checkpoint-context", func(t *testing.T) {
		// CheckpointContext on a non-durable DB types the precondition
		// failure before looking at the context.
		if err := db.CheckpointContext(context.Background()); !errors.Is(err, ErrNotDurable) {
			t.Fatalf("non-durable checkpoint: got %v, want ErrNotDurable", err)
		}
	})
}

// TestNilQueryIsBadQuery pins that every entry point taking a Request
// types a missing query trajectory as ErrBadQuery instead of panicking.
func TestNilQueryIsBadQuery(t *testing.T) {
	db, err := NewDB(RTree3D, fleet(rand.New(rand.NewSource(37)), 10, 10))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	req := Request{Interval: Interval{T1: 2, T2: 8}, K: 3}
	for _, tc := range []struct {
		name string
		call func() error
	}{
		{"Query", func() error { _, err := db.Query(ctx, req); return err }},
		{"QueryAuto", func() error { _, _, err := db.QueryAuto(ctx, req); return err }},
		{"Explain", func() error { _, err := db.Explain(ctx, req); return err }},
		{"EstimateQueryCost", func() error { _, err := db.EstimateQueryCost(nil, 2, 8, 3); return err }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.call(); !errors.Is(err, ErrBadQuery) {
				t.Fatalf("nil query: got %v, want ErrBadQuery", err)
			}
		})
	}
}
