package storage

import (
	"fmt"
	"math/rand"
	"sync"
)

// ErrInjected is the error produced by a FaultyPager's triggered faults.
var ErrInjected = fmt.Errorf("storage: injected fault")

// ErrTransient marks an injected fault as transient: retrying the same
// operation may succeed. It wraps ErrInjected, so errors.Is against either
// sentinel works. The buffer pool's bounded-retry logic only retries
// transient faults (and checksum mismatches, which may be in-transit bit
// flips).
var ErrTransient = fmt.Errorf("%w (transient)", ErrInjected)

// FaultyPager wraps a Pager and injects read/write faults — a test helper
// for exercising error propagation and recovery through the index
// structures, the buffer pool, and the search algorithm.
//
// Two fault models are available, combinable:
//
// Deterministic ("fail the N-th operation"): FailReadAt / FailWriteAt fail
// the operation whose 1-based counter reaches the threshold (0 = never).
// By default only that single operation fails and later ones succeed; with
// Permanent set, every operation from the N-th onward fails — the
// historical behaviour, useful for simulating a device that dies and stays
// dead.
//
// Probabilistic (seeded, reproducible): each Read independently fails with
// probability ReadFaultRate, and independently returns a bit-flipped copy
// of the page with probability BitFlipRate (the underlying page is not
// modified — the flip models corruption in transit, which checksum
// verification upstream must catch). With Transient set, probabilistic
// read faults return ErrTransient and a retry re-rolls the dice; without
// it, the first fault on a page kills that page permanently (subsequent
// reads of it keep failing with ErrInjected).
//
// A FaultyPager is safe for concurrent use: the fault stream and the
// dead-page set sit behind an internal mutex, so one instance may serve a
// shared (striped) pool hammered by parallel queries. The interleaving of
// concurrent operations onto the seeded fault stream is scheduling-
// dependent; for operation-exact reproducibility keep the pager
// single-goroutine (e.g. install a fresh one through the DB's
// SetPagerWrapper before each query of a serial run).
type FaultyPager struct {
	Inner Pager

	// FailReadAt / FailWriteAt: fail the operation when the 1-based
	// operation counter reaches this value (0 = never). Permanent extends
	// the failure to every subsequent operation.
	FailReadAt  uint64
	FailWriteAt uint64
	Permanent   bool

	// Seed seeds the probabilistic fault stream (same seed → same faults).
	Seed int64
	// ReadFaultRate is the per-read probability of an injected fault.
	ReadFaultRate float64
	// Transient makes probabilistic read faults transient (ErrTransient,
	// retry re-rolls); otherwise a faulted page stays dead.
	Transient bool
	// BitFlipRate is the per-read probability that the returned payload has
	// one random bit flipped (in a copy; the stored page is untouched).
	BitFlipRate float64

	// mu serializes the fault stream state below.
	mu     sync.Mutex // lockrank: 45 — held across inner pager calls by design
	rng    *rand.Rand
	dead   map[PageID]bool
	reads  uint64
	writes uint64
}

// PageSize implements Pager.
func (f *FaultyPager) PageSize() int { return f.Inner.PageSize() }

// NumPages implements Pager.
func (f *FaultyPager) NumPages() int { return f.Inner.NumPages() }

// Alloc implements Pager.
func (f *FaultyPager) Alloc() (PageID, error) { return f.Inner.Alloc() }

// PageChecksum forwards the inner pager's authoritative checksum (if any),
// letting a buffer pool above detect this pager's bit flips.
func (f *FaultyPager) PageChecksum(id PageID) (uint32, bool) {
	if ck, ok := f.Inner.(Checksummer); ok {
		return ck.PageChecksum(id)
	}
	return 0, false
}

// random returns the seeded fault stream. Callers must hold f.mu.
func (f *FaultyPager) random() *rand.Rand {
	if f.rng == nil {
		f.rng = rand.New(rand.NewSource(f.Seed))
	}
	return f.rng
}

// Read implements Pager, injecting the configured faults.
func (f *FaultyPager) Read(id PageID) ([]byte, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.reads++
	if f.FailReadAt != 0 && (f.reads == f.FailReadAt || (f.Permanent && f.reads > f.FailReadAt)) {
		return nil, ErrInjected
	}
	if f.dead[id] {
		return nil, ErrInjected
	}
	if f.ReadFaultRate > 0 && f.random().Float64() < f.ReadFaultRate {
		if f.Transient {
			return nil, ErrTransient
		}
		if f.dead == nil {
			f.dead = make(map[PageID]bool)
		}
		f.dead[id] = true
		return nil, ErrInjected
	}
	data, err := f.Inner.Read(id)
	if err != nil {
		return nil, err
	}
	if f.BitFlipRate > 0 && f.random().Float64() < f.BitFlipRate {
		flipped := make([]byte, len(data))
		copy(flipped, data)
		bit := f.random().Intn(len(flipped) * 8)
		flipped[bit/8] ^= 1 << (bit % 8)
		return flipped, nil
	}
	return data, nil
}

// Write implements Pager, failing at the configured operation index.
func (f *FaultyPager) Write(id PageID, data []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.writes++
	if f.FailWriteAt != 0 && (f.writes == f.FailWriteAt || (f.Permanent && f.writes > f.FailWriteAt)) {
		return ErrInjected
	}
	return f.Inner.Write(id, data)
}

// Stats forwards the inner pager's I/O counters (zero Stats when the
// inner pager does not expose any).
func (f *FaultyPager) Stats() Stats {
	if sp, ok := f.Inner.(interface{ Stats() Stats }); ok {
		return sp.Stats()
	}
	return Stats{}
}

var (
	_ Pager       = (*FaultyPager)(nil)
	_ Checksummer = (*FaultyPager)(nil)
)
