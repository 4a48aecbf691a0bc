package storage

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"mstsearch/internal/testutil"
)

func fill(size int, b byte) []byte {
	d := make([]byte, size)
	for i := range d {
		d[i] = b
	}
	return d
}

func TestFileAllocReadWrite(t *testing.T) {
	f := NewFile(64)
	if f.PageSize() != 64 {
		t.Fatalf("page size = %d", f.PageSize())
	}
	id, err := f.Alloc()
	if err != nil || id != 0 {
		t.Fatalf("first alloc = %d, %v", id, err)
	}
	id2, _ := f.Alloc()
	if id2 != 1 || f.NumPages() != 2 {
		t.Fatalf("second alloc = %d, pages = %d", id2, f.NumPages())
	}
	if err := f.Write(id, fill(64, 0xAB)); err != nil {
		t.Fatal(err)
	}
	got, err := f.Read(id)
	if err != nil || !bytes.Equal(got, fill(64, 0xAB)) {
		t.Fatalf("read back mismatch: %v", err)
	}
	// Fresh page is zeroed.
	got, _ = f.Read(id2)
	if !bytes.Equal(got, make([]byte, 64)) {
		t.Fatal("fresh page not zeroed")
	}
	if f.SizeBytes() != 128 {
		t.Fatalf("size = %d", f.SizeBytes())
	}
}

func TestFileErrors(t *testing.T) {
	f := NewFile(0)
	if f.PageSize() != DefaultPageSize {
		t.Fatalf("default page size = %d", f.PageSize())
	}
	if _, err := f.Read(0); err == nil {
		t.Fatal("read of unallocated page must fail")
	}
	if err := f.Write(0, make([]byte, DefaultPageSize)); err == nil {
		t.Fatal("write of unallocated page must fail")
	}
	id, _ := f.Alloc()
	if err := f.Write(id, make([]byte, 3)); err == nil {
		t.Fatal("short write must fail")
	}
}

func TestFileStats(t *testing.T) {
	f := NewFile(32)
	id, _ := f.Alloc()
	_ = f.Write(id, fill(32, 1))
	_, _ = f.Read(id)
	_, _ = f.Read(id)
	s := f.Stats()
	if s.Reads != 2 || s.Writes != 1 {
		t.Fatalf("stats = %+v", s)
	}
	f.ResetStats()
	if f.Stats() != (Stats{}) {
		t.Fatal("reset failed")
	}
}

// The buffer-pool tests below run on a one-stripe pool: a single LRU over
// the whole capacity, the paper's buffer and the per-query pool DB.Query
// builds when no warm pool is enabled.

func TestBufferPoolHitMiss(t *testing.T) {
	f := NewFile(32)
	var ids []PageID
	for i := 0; i < 4; i++ {
		id, _ := f.Alloc()
		_ = f.Write(id, fill(32, byte(i)))
		ids = append(ids, id)
	}
	f.ResetStats()
	bp := NewStripedPool(f, 2, 1)
	// First read: miss + physical read.
	if _, err := bp.Read(ids[0]); err != nil {
		t.Fatal(err)
	}
	// Second read of same page: hit, no physical read.
	if _, err := bp.Read(ids[0]); err != nil {
		t.Fatal(err)
	}
	s := bp.Stats()
	if s.Misses != 1 || s.Hits != 1 || s.Reads != 1 {
		t.Fatalf("stats = %+v", s)
	}
	// Touch two more pages: evicts ids[0] (capacity 2).
	_, _ = bp.Read(ids[1])
	_, _ = bp.Read(ids[2])
	_, _ = bp.Read(ids[0])
	s = bp.Stats()
	if s.Misses != 4 {
		t.Fatalf("expected re-read after eviction to miss: %+v", s)
	}
}

// TestBufferPoolLRUOrder pins the paper's replacement policy: with one
// stripe the pool evicts the least recently used page of the whole pool.
func TestBufferPoolLRUOrder(t *testing.T) {
	f := NewFile(32)
	var ids []PageID
	for i := 0; i < 3; i++ {
		id, _ := f.Alloc()
		_ = f.Write(id, fill(32, byte(i)))
		ids = append(ids, id)
	}
	bp := NewStripedPool(f, 2, 1)
	_, _ = bp.Read(ids[0])
	_, _ = bp.Read(ids[1])
	_, _ = bp.Read(ids[0]) // promote ids[0]
	_, _ = bp.Read(ids[2]) // must evict ids[1], not ids[0]
	before := bp.Stats().Misses
	_, _ = bp.Read(ids[0])
	if bp.Stats().Misses != before {
		t.Fatal("ids[0] should still be cached (LRU promoted)")
	}
	_, _ = bp.Read(ids[1])
	if bp.Stats().Misses != before+1 {
		t.Fatal("ids[1] should have been evicted")
	}
}

func TestBufferPoolErrors(t *testing.T) {
	f := NewFile(32)
	_, _ = f.Alloc()
	bp := NewStripedPool(f, 2, 1)
	if _, err := bp.Read(9); err == nil {
		t.Fatal("read of unallocated page must fail")
	}
	// The pool caches reads only: writes and allocations through it fail
	// and leave the file as it was.
	if err := bp.Write(0, make([]byte, 32)); err == nil {
		t.Fatal("write through the pool must fail")
	}
	if id, err := bp.Alloc(); err == nil || id != NilPage {
		t.Fatalf("alloc through the pool = %d, %v; want NilPage and an error", id, err)
	}
	if f.NumPages() != 1 || bp.NumPages() != 1 {
		t.Fatalf("page count changed: file %d, pool %d", f.NumPages(), bp.NumPages())
	}
	if s := f.Stats(); s.Writes != 0 {
		t.Fatalf("refused write reached the file: %+v", s)
	}
}

func TestPaperCapacity(t *testing.T) {
	for _, c := range []struct{ pages, want int }{
		{50, 5},       // 10 % of the index
		{20000, 1000}, // capped at 1000 pages
		{0, 1},        // at least one page
		{9, 1},
	} {
		if got := PaperCapacity(c.pages); got != c.want {
			t.Errorf("PaperCapacity(%d) = %d, want %d", c.pages, got, c.want)
		}
	}
}

// TestSharedPoolBasics runs the pool contract at both stripe counts the
// DB builds: one for the per-query pool, the default for the shared warm
// pool.
func TestSharedPoolBasics(t *testing.T) {
	for _, stripes := range []int{1, 0} {
		t.Run(fmt.Sprintf("stripes=%d", stripes), func(t *testing.T) {
			f := NewFile(32)
			var ids []PageID
			for i := 0; i < 6; i++ {
				id, _ := f.Alloc()
				_ = f.Write(id, fill(32, byte(i)))
				ids = append(ids, id)
			}
			f.ResetStats()
			sp := NewStripedPool(f, 3, stripes)
			if sp.PageSize() != 32 || sp.NumPages() != 6 || sp.Capacity() != 3 {
				t.Fatalf("pool shape: %d %d %d", sp.PageSize(), sp.NumPages(), sp.Capacity())
			}
			got, err := sp.Read(ids[2])
			if err != nil || !bytes.Equal(got, fill(32, 2)) {
				t.Fatalf("read: %v", err)
			}
			// The returned slice is a private copy: mutating it must not
			// poison the cache, on a miss or on a hit.
			got[0] = 0xFF
			again, _ := sp.Read(ids[2])
			if again[0] == 0xFF {
				t.Fatal("pool returned an aliased frame on a miss")
			}
			again[1] = 0xFF
			if third, _ := sp.Read(ids[2]); !bytes.Equal(third, fill(32, 2)) {
				t.Fatal("pool returned an aliased frame on a hit")
			}
			if s := sp.Stats(); s.Hits != 2 || s.Misses != 1 {
				t.Fatalf("stats: %+v", s)
			}
			sp.ResetStats()
			if s := sp.Stats(); s.Hits != 0 || s.Misses != 0 {
				t.Fatalf("reset failed: %+v", s)
			}
		})
	}
}

func TestSharedPoolConcurrentReaders(t *testing.T) {
	testutil.CheckGoroutines(t)
	f := NewFile(64)
	var ids []PageID
	for i := 0; i < 40; i++ {
		id, _ := f.Alloc()
		_ = f.Write(id, fill(64, byte(i)))
		ids = append(ids, id)
	}
	sp := NewStripedPool(f, 8, 0)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 500; i++ {
				j := rng.Intn(len(ids))
				got, err := sp.Read(ids[j])
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(got, fill(64, byte(j))) {
					errs <- fmt.Errorf("page %d corrupted under concurrency", j)
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
