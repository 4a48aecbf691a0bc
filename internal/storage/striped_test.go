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
// Read/Write/Alloc/Flush across all shards under -race. The content
// invariant — page p always holds fill(byte(p)) or, transiently for fresh
// allocations, zeros — makes every interleaving's reads checkable.
func TestStripedPoolConcurrentMixed(t *testing.T) {
	testutil.CheckGoroutines(t)
	const initial = 96
	f := NewFile(48)
	for i := 0; i < initial; i++ {
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

	// Readers: random pages from the stable prefix; content must be the
	// page's pattern (writers rewrite the same pattern, so there is never
	// a second legal value).
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 800; i++ {
				id := PageID(rng.Intn(initial))
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

	// Writers: keep rewriting the invariant pattern (dirty frames +
	// eviction write-back under contention).
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(100 + seed))
			for i := 0; i < 400; i++ {
				id := PageID(rng.Intn(initial))
				if err := p.Write(id, fill(48, byte(id))); err != nil {
					report(err)
					return
				}
			}
		}(int64(g))
	}

	// Allocator: grows the file while readers and writers are in flight,
	// immediately writing the new page's pattern and reading it back.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			id, err := p.Alloc()
			if err != nil {
				report(err)
				return
			}
			if err := p.Write(id, fill(48, byte(id))); err != nil {
				report(err)
				return
			}
			got, err := p.Read(id)
			if err != nil {
				report(err)
				return
			}
			if !bytes.Equal(got, fill(48, byte(id))) {
				report(fmt.Errorf("fresh page %d content diverged", id))
				return
			}
		}
	}()

	// Flusher: forces write-back concurrently with everything else.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			if err := p.Flush(); err != nil {
				report(err)
				return
			}
		}
	}()

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

	// Quiesced: flush and verify every page directly in the file.
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	for id := 0; id < p.NumPages(); id++ {
		raw, err := f.Read(PageID(id))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(raw, fill(48, byte(id))) && !bytes.Equal(raw, make([]byte, 48)) {
			t.Fatalf("post-stress page %d corrupted", id)
		}
	}
	s := p.Stats()
	if s.Misses == 0 || s.Hits == 0 {
		t.Fatalf("stress did not exercise both hit and miss paths: %+v", s)
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

// TestStripedPoolEvictionWritesBackDirty pins the write-back contract on
// the striped layout: a dirty frame evicted from any shard must land in
// the file.
func TestStripedPoolEvictionWritesBackDirty(t *testing.T) {
	f := NewFile(32)
	var ids []PageID
	for i := 0; i < 8; i++ {
		id, _ := f.Alloc()
		ids = append(ids, id)
	}
	// 2 shards × 1 frame: the second access to a shard evicts its first.
	p := NewStripedPool(f, 2, 2)
	if err := p.Write(ids[0], fill(32, 0xA1)); err != nil { // shard 0
		t.Fatal(err)
	}
	if _, err := p.Read(ids[2]); err != nil { // shard 0 again → evicts dirty ids[0]
		t.Fatal(err)
	}
	raw, _ := f.Read(ids[0])
	if !bytes.Equal(raw, fill(32, 0xA1)) {
		t.Fatal("eviction must write back dirty page")
	}
	// The other shard's frame is untouched by shard 0's eviction.
	if err := p.Write(ids[1], fill(32, 0xB2)); err != nil { // shard 1
		t.Fatal(err)
	}
	if _, err := p.Read(ids[4]); err != nil { // shard 0; must not evict shard 1's frame
		t.Fatal(err)
	}
	raw, _ = f.Read(ids[1])
	if bytes.Equal(raw, fill(32, 0xB2)) {
		t.Fatal("cross-shard access must not flush another shard's dirty frame")
	}
}
