package storage

import (
	"container/list"
	"errors"
	"hash/crc32"
	"sync"
	"sync/atomic"
	"time"

	"mstsearch/internal/debugassert"
)

// DefaultStripes is the default shard-count ceiling of a StripedPool. The
// effective shard count is the largest power of two not exceeding
// min(DefaultStripes, capacity), so small pools never fragment their
// capacity below one page per shard.
const DefaultStripes = 16

// StripedPool is the buffer pool: an LRU read cache over any Pager,
// partitioned into independent lock shards keyed by PageID. Each shard
// owns a private LRU segment and its slice of the total capacity (the
// per-shard capacities sum to the requested capacity), so concurrent
// readers of pages in distinct shards never touch the same latch — the
// read-mostly fast path a shared warm pool needs. With one stripe it is a
// single LRU over the whole capacity, the paper's buffer (§5). Because a
// page id maps to exactly one shard, all inner-pager reads of a given page
// are serialized by that shard's latch; different shards only ever read
// distinct pages concurrently, which File supports.
//
// The pool caches reads only: Write and Alloc fail, and the pages under
// it must not change while it is in use (the DB writes its file under
// its own lock and then replaces the pool).
//
// The pool is the hardening point of the read path: a miss that comes
// back with a transient fault (ErrTransient) or a checksum mismatch —
// possibly a bit flip between the pool and the page's owner — is retried
// a bounded number of times with a short backoff before the error is
// surfaced. Permanent faults and out-of-range reads are never retried.
//
// I/O counters are atomics, so Stats and ResetStats are exact and never
// race with in-flight readers. Reads copy the frame out under the shard
// latch: the returned slice is private to the caller and remains valid
// indefinitely.
type StripedPool struct {
	inner    Pager
	pageSize int
	capacity int
	mask     uint32 // len(shards) - 1; len(shards) is a power of two

	hits      atomic.Uint64
	misses    atomic.Uint64
	retries   atomic.Uint64
	evictions atomic.Uint64

	shards []poolShard
}

// errReadOnlyPool is returned by the pool's Write and Alloc.
var errReadOnlyPool = errors.New("storage: the buffer pool caches reads only")

// frame is one cached page.
type frame struct {
	id   PageID
	data []byte
}

// poolShard is one lock stripe: a mutex plus the LRU segment of the pages
// whose ids hash to it.
type poolShard struct {
	mu       sync.Mutex // lockrank: 40 — one shard at a time
	lru      *list.List // front = most recently used; values are *frame
	frames   map[PageID]*list.Element
	capacity int
}

// NewStripedPool creates a striped pool over inner with the given total
// page capacity (minimum 1) split across stripes lock shards. stripes <= 0
// selects the default policy; any value is clamped to a power of two no
// larger than the capacity, so every shard holds at least one page.
func NewStripedPool(inner Pager, capacity, stripes int) *StripedPool {
	if capacity < 1 {
		capacity = 1
	}
	if stripes <= 0 {
		stripes = DefaultStripes
	}
	if stripes > capacity {
		stripes = capacity
	}
	// Round down to a power of two for cheap masking.
	n := 1
	for n*2 <= stripes {
		n *= 2
	}
	p := &StripedPool{
		inner:    inner,
		pageSize: inner.PageSize(),
		capacity: capacity,
		mask:     uint32(n - 1),
		shards:   make([]poolShard, n),
	}
	for i := range p.shards {
		sh := &p.shards[i]
		sh.capacity = capacity / n
		if i < capacity%n {
			sh.capacity++
		}
		sh.lru = list.New()
		sh.frames = make(map[PageID]*list.Element, sh.capacity)
	}
	return p
}

// PaperCapacity is the paper's buffer policy (§5): 10 % of the index's
// page count, capped at 1000 pages and at least one page.
func PaperCapacity(numPages int) int {
	return max(1, min(numPages/10, 1000))
}

// NewSharedPaperPool applies the paper's buffer policy to an existing
// pager across the default shard layout: a DB's pool, shared by its
// concurrent queries.
func NewSharedPaperPool(inner Pager) *StripedPool {
	return NewStripedPool(inner, PaperCapacity(inner.NumPages()), 0)
}

// shardFor returns the lock stripe owning the page.
func (p *StripedPool) shardFor(id PageID) *poolShard {
	return &p.shards[uint32(id)&p.mask]
}

// PageSize implements Pager. The page size is fixed at construction, so
// the accessor is latch-free.
func (p *StripedPool) PageSize() int { return p.pageSize }

// Capacity returns the total page capacity (the sum of the per-shard LRU
// segments); immutable after construction.
func (p *StripedPool) Capacity() int { return p.capacity }

// Stripes returns the number of lock shards.
func (p *StripedPool) Stripes() int { return len(p.shards) }

// NumPages implements Pager.
func (p *StripedPool) NumPages() int { return p.inner.NumPages() }

// Cached returns the number of currently resident frames across all
// shards — by construction never more than Capacity.
func (p *StripedPool) Cached() int {
	n := 0
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		n += sh.lru.Len()
		sh.mu.Unlock()
	}
	return n
}

// Read implements Pager. The returned slice is a private copy and remains
// valid indefinitely. Concurrent reads of pages in distinct shards
// proceed fully in parallel.
func (p *StripedPool) Read(id PageID) ([]byte, error) {
	sh := p.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if el, ok := sh.frames[id]; ok {
		p.hits.Add(1)
		metPool.hits.Inc()
		sh.lru.MoveToFront(el)
		return cloneBytes(el.Value.(*frame).data), nil
	}
	p.misses.Add(1)
	metPool.misses.Inc()
	src, err := p.readVerified(id)
	if err != nil {
		return nil, err
	}
	data := cloneBytes(src)
	sh.insert(p, id, data)
	return cloneBytes(data), nil
}

// Write implements Pager by refusing: the pool caches reads only.
func (p *StripedPool) Write(PageID, []byte) error { return errReadOnlyPool }

// Alloc implements Pager by refusing: the pool caches reads only.
func (p *StripedPool) Alloc() (PageID, error) { return NilPage, errReadOnlyPool }

// maxReadRetries bounds how many times a miss is re-read after a
// retryable fault; retryBackoff is the base delay, doubled per attempt
// (50µs, 100µs, 200µs — long enough to step over a transient glitch,
// short enough to keep fault-injection tests fast).
const (
	maxReadRetries = 3
	retryBackoff   = 50 * time.Microsecond
)

// retryable reports whether a read error may resolve on re-read: injected
// transient faults, and checksum mismatches (an in-transit bit flip reads
// clean the second time; truly rotten pages keep failing and the error
// stands after the retry budget).
func retryable(err error) bool {
	return errors.Is(err, ErrTransient) || errors.Is(err, ErrPageCorrupt{})
}

// readVerified pulls a page from the inner pager with verification and
// bounded retry — the pool's miss path. When the inner chain exposes an
// authoritative checksum (Checksummer), the payload is verified against
// it, catching corruption introduced between the pool and the page's
// owner. Callers must hold the page's shard latch.
func (p *StripedPool) readVerified(id PageID) ([]byte, error) {
	for attempt := 0; ; attempt++ {
		src, err := p.inner.Read(id)
		if err == nil {
			if ck, ok := p.inner.(Checksummer); ok {
				if want, known := ck.PageChecksum(id); known && crc32.ChecksumIEEE(src) != want {
					err = ErrPageCorrupt{Page: id}
				}
			}
			if err == nil {
				return src, nil
			}
		}
		if attempt >= maxReadRetries || !retryable(err) {
			return nil, err
		}
		p.retries.Add(1)
		metPool.retries.Inc()
		time.Sleep(retryBackoff << attempt)
	}
}

// statsProvider is any pager exposing I/O counters.
type statsProvider interface{ Stats() Stats }

// Stats snapshots the pool's counters — atomics, so the snapshot is exact
// and never races with in-flight readers — combined with the inner pager's
// physical counters when it exposes them (File's are atomic too).
func (p *StripedPool) Stats() Stats {
	s := Stats{
		Hits:      p.hits.Load(),
		Misses:    p.misses.Load(),
		Retries:   p.retries.Load(),
		Evictions: p.evictions.Load(),
	}
	if sp, ok := p.inner.(statsProvider); ok {
		fs := sp.Stats()
		s.Reads = fs.Reads
		s.Writes = fs.Writes
	}
	return s
}

// ResetStats zeroes the counters, and the inner pager's when it supports
// resetting.
func (p *StripedPool) ResetStats() {
	p.hits.Store(0)
	p.misses.Store(0)
	p.retries.Store(0)
	p.evictions.Store(0)
	if rs, ok := p.inner.(interface{ ResetStats() }); ok {
		rs.ResetStats()
	}
}

// insert caches data (which must be a private copy) under id, evicting the
// shard's LRU tail first if the segment is full. Callers must hold sh.mu.
func (sh *poolShard) insert(p *StripedPool, id PageID, data []byte) {
	sh.evictIfFull(p)
	sh.frames[id] = sh.lru.PushFront(&frame{id: id, data: data})
}

// evictIfFull makes room in the shard. Callers must hold sh.mu.
func (sh *poolShard) evictIfFull(p *StripedPool) {
	for sh.lru.Len() >= sh.capacity {
		el := sh.lru.Back()
		fr := el.Value.(*frame)
		if debugassert.Enabled {
			// Sanitizer check: a frame leaving the pool must still match
			// the inner pager's authoritative checksum — anything else is
			// in-memory corruption of the cached copy, or a page changed
			// underneath the pool, either of which would vanish silently
			// with the eviction. Pagers without an authoritative CRC
			// (e.g. fault injectors) are skipped.
			if ck, ok := p.inner.(Checksummer); ok {
				if want, known := ck.PageChecksum(fr.id); known {
					got := crc32.ChecksumIEEE(fr.data)
					debugassert.Assertf(got == want,
						"evicting frame for page %d with CRC %08x; inner pager has %08x",
						fr.id, got, want)
				}
			}
		}
		sh.lru.Remove(el)
		delete(sh.frames, fr.id)
		p.evictions.Add(1)
		metPool.evictions.Inc()
	}
}

// cloneBytes returns a private copy of b.
func cloneBytes(b []byte) []byte {
	cp := make([]byte, len(b))
	copy(cp, b)
	return cp
}

var _ Pager = (*StripedPool)(nil)
