package storage

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"mstsearch/internal/testutil"
)

func TestStripedPoolShape(t *testing.T) {
	f := NewFile(32)
	for i := 0; i < 100; i++ {
		_, _ = f.Alloc()
	}
	cases := []struct {
		capacity, stripes int
		wantCap           int
		wantStripes       int
	}{
		{20, 0, 20, 16},      // default stripes
		{20, 4, 20, 4},       // explicit power of two
		{20, 6, 20, 4},       // rounded down to power of two
		{3, 0, 3, 2},         // stripes clamped to capacity
		{1, 8, 1, 1},         // degenerate single-frame pool
		{0, 0, 1, 1},         // capacity clamped to 1
		{100, 1000, 100, 64}, // stripes clamped then rounded
	}
	for _, c := range cases {
		p := NewStripedPool(f, c.capacity, c.stripes)
		if p.Capacity() != c.wantCap || p.Stripes() != c.wantStripes {
			t.Errorf("NewStripedPool(cap=%d, stripes=%d): capacity %d stripes %d, want %d/%d",
				c.capacity, c.stripes, p.Capacity(), p.Stripes(), c.wantCap, c.wantStripes)
		}
		// Per-shard segments must sum exactly to the total capacity.
		sum := 0
		for i := range p.shards {
			if p.shards[i].capacity < 1 {
				t.Errorf("shard %d has capacity %d < 1", i, p.shards[i].capacity)
			}
			sum += p.shards[i].capacity
		}
		if sum != p.Capacity() {
			t.Errorf("shard capacities sum to %d, want %d", sum, p.Capacity())
		}
	}
}

func TestSharedPaperPoolIsStriped(t *testing.T) {
	f := NewFile(DefaultPageSize)
	for i := 0; i < 2000; i++ {
		_, _ = f.Alloc()
	}
	sp := NewSharedPaperPool(f)
	if sp.Capacity() != 200 {
		t.Fatalf("paper capacity = %d, want 200 (10%% of 2000)", sp.Capacity())
	}
	if sp.Stripes() < 2 {
		t.Fatalf("paper pool has %d stripes; the default shared pager must be striped", sp.Stripes())
	}
}

// TestStripedPoolConcurrentMixed hammers a striped pool with concurrent
// readers across all shards under -race, with a capacity a quarter of the
// file's so every shard evicts under contention. The content invariant —
// page p always holds fill(byte(p)) — makes every interleaving's reads
// checkable.
func TestStripedPoolConcurrentMixed(t *testing.T) {
	testutil.CheckGoroutines(t)
	const pages = 96
	f := NewFile(48)
	for i := 0; i < pages; i++ {
		id, _ := f.Alloc()
		_ = f.Write(id, fill(48, byte(id)))
	}
	p := NewStripedPool(f, 24, 8)

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	report := func(err error) {
		select {
		case errs <- err:
		default:
		}
	}

	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 800; i++ {
				id := PageID(rng.Intn(pages))
				got, err := p.Read(id)
				if err != nil {
					report(err)
					return
				}
				if !bytes.Equal(got, fill(48, byte(id))) {
					report(fmt.Errorf("page %d content diverged under concurrency", id))
					return
				}
			}
		}(int64(g + 1))
	}

	// Eviction under contention: the resident-frame count must never
	// exceed the pool capacity, sampled while the workload runs.
	capViolations := make(chan int, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			if n := p.Cached(); n > p.Capacity() {
				select {
				case capViolations <- n:
				default:
				}
				return
			}
		}
	}()

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	select {
	case n := <-capViolations:
		t.Fatalf("pool held %d frames, capacity %d", n, p.Capacity())
	default:
	}

	s := p.Stats()
	if s.Misses == 0 || s.Hits == 0 || s.Evictions == 0 {
		t.Fatalf("stress did not exercise hit, miss and eviction paths: %+v", s)
	}
	if p.Cached() > p.Capacity() {
		t.Fatalf("resident frames %d exceed capacity %d", p.Cached(), p.Capacity())
	}
}

// TestStripedPoolStatsAtomic validates the atomic counters: Stats and
// ResetStats run concurrently with readers under -race, and with no reset
// in flight the final counters account for every operation exactly.
func TestStripedPoolStatsAtomic(t *testing.T) {
	testutil.CheckGoroutines(t)
	const pages = 64
	f := NewFile(32)
	for i := 0; i < pages; i++ {
		id, _ := f.Alloc()
		_ = f.Write(id, fill(32, byte(id)))
	}
	p := NewStripedPool(f, 16, 4)

	const readers = 4
	const reads = 300
	var readerWG sync.WaitGroup
	pollerDone := make(chan struct{})

	// Concurrent Stats poller — must be race-free against the in-flight
	// readers. A fixed iteration
	// count terminates it regardless of scheduling, so no stop-channel
	// coordination can deadlock or starve on a single CPU.
	go func() {
		defer close(pollerDone)
		for i := 0; i < 200; i++ {
			s := p.Stats()
			if s.Hits+s.Misses > readers*reads {
				t.Errorf("counters overshot: %+v", s)
				return
			}
		}
	}()

	for g := 0; g < readers; g++ {
		readerWG.Add(1)
		go func(seed int64) {
			defer readerWG.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < reads; i++ {
				if _, err := p.Read(PageID(rng.Intn(pages))); err != nil {
					t.Error(err)
					return
				}
			}
		}(int64(g + 7))
	}
	readerWG.Wait()
	<-pollerDone

	// No reset ran, so the counters must account for every operation
	// exactly — atomics may not drop increments.
	s := p.Stats()
	if s.Hits+s.Misses != readers*reads {
		t.Fatalf("hits %d + misses %d != %d operations", s.Hits, s.Misses, readers*reads)
	}

	// Second phase: ResetStats racing the readers — must be race-clean
	// and leave counters no larger than the operations issued after the
	// last reset.
	var phase2 sync.WaitGroup
	for g := 0; g < readers; g++ {
		phase2.Add(1)
		go func(seed int64) {
			defer phase2.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < reads; i++ {
				if _, err := p.Read(PageID(rng.Intn(pages))); err != nil {
					t.Error(err)
					return
				}
				if i%64 == 0 {
					p.ResetStats()
				}
			}
		}(int64(g + 70))
	}
	phase2.Wait()
	if s := p.Stats(); s.Hits+s.Misses > readers*reads {
		t.Fatalf("post-reset counters exceed issued operations: %+v", s)
	}
	p.ResetStats()
	if got := p.Stats(); got.Hits != 0 || got.Misses != 0 || got.Retries != 0 {
		t.Fatalf("reset failed: %+v", got)
	}
}

// TestStripedPoolFaultInjection re-runs the hardening contract through the
// striped pool: transient faults and bit flips injected underneath it must
// be retried away or surface as typed errors — never as wrong bytes —
// while many goroutines share the pool.
func TestStripedPoolFaultInjection(t *testing.T) {
	testutil.CheckGoroutines(t)
	const pages = 48
	f := NewFile(64)
	for i := 0; i < pages; i++ {
		id, _ := f.Alloc()
		_ = f.Write(id, fill(64, byte(id)))
	}
	fp := &FaultyPager{
		Inner:         f,
		Seed:          1234,
		ReadFaultRate: 0.10,
		Transient:     true,
		BitFlipRate:   0.05,
	}
	p := NewStripedPool(fp, 12, 4)

	var wg sync.WaitGroup
	var succeeded, typedFailed atomic.Uint64
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 300; i++ {
				id := PageID(rng.Intn(pages))
				got, err := p.Read(id)
				if err != nil {
					if !errors.Is(err, ErrInjected) && !errors.Is(err, ErrPageCorrupt{}) {
						t.Errorf("untyped error %v", err)
						return
					}
					typedFailed.Add(1)
					continue
				}
				if !bytes.Equal(got, fill(64, byte(id))) {
					t.Errorf("page %d served corrupt bytes through striped pool", id)
					return
				}
				succeeded.Add(1)
			}
		}(int64(g + 3))
	}
	wg.Wait()
	if succeeded.Load() == 0 {
		t.Fatal("no read ever succeeded under fault injection")
	}
	if p.Stats().Retries == 0 {
		t.Fatal("transient faults at 10% never triggered a retry")
	}
	t.Logf("fault injection through striped pool: %d ok, %d typed failures, %d retries",
		succeeded.Load(), typedFailed.Load(), p.Stats().Retries)
}
