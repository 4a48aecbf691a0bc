// Package storage provides the paged storage substrate underneath the
// R-tree-like indexes: a page file addressed by page id, and an LRU buffer
// pool (StripedPool) that caches reads, with I/O accounting, bounded retry
// for transient faults, and checksum verification of page payloads.
//
// The paper's experimental setup (§5) uses a 4 KB page size and a buffer
// sized at 10 % of the index with a 1000-page cap; PaperCapacity encodes
// that policy, and a one-stripe StripedPool is the paper's single LRU. The
// page file here is memory-backed — the experiments care about page access
// counts and buffer behaviour, not physical disks — but the interface is
// what a disk-backed implementation would expose.
//
// # Integrity model
//
// The page file (File) maintains a CRC32 per page, updated on Write and
// verified on Read. A failed verification surfaces as ErrPageCorrupt
// carrying the damaged page's id — never as a silently wrong payload. The buffer pool additionally re-verifies data it
// pulls through intermediate wrappers (see Checksummer), so corruption
// injected *between* the pool and the backing file — a bit flip in transit
// — is also caught.
package storage

import (
	"errors"
	"fmt"
	"hash/crc32"
	"sync/atomic"
)

// PageID addresses a page in a file. NilPage is the null reference.
type PageID uint32

// NilPage is the sentinel "no page" value.
const NilPage PageID = ^PageID(0)

// DefaultPageSize matches the paper's 4 KB pages.
const DefaultPageSize = 4096

// Errors returned by pagers.
var (
	ErrPageOutOfRange = errors.New("storage: page id out of range")
	ErrBadPageSize    = errors.New("storage: payload size != page size")
	ErrFileFull       = errors.New("storage: page file full")
)

// ErrPageCorrupt reports a page whose payload failed checksum
// verification: a torn write, a bit flip, or any other corruption of the
// stored bytes. errors.Is(err, ErrPageCorrupt{}) matches regardless of the
// page id; errors.As recovers the damaged page.
type ErrPageCorrupt struct {
	Page PageID
}

// Error implements error.
func (e ErrPageCorrupt) Error() string {
	return fmt.Sprintf("storage: page %d corrupt (checksum mismatch)", e.Page)
}

// Is matches any ErrPageCorrupt, so errors.Is(err, ErrPageCorrupt{}) tests
// for the corruption class without knowing the page.
func (e ErrPageCorrupt) Is(target error) bool {
	_, ok := target.(ErrPageCorrupt)
	return ok
}

// Checksummer is implemented by pagers that maintain an authoritative
// per-page checksum. The buffer pool uses it to verify data read through
// intermediate wrappers (fault injectors, instrumentation) against the
// owner's checksum, catching in-transit corruption.
type Checksummer interface {
	// PageChecksum returns the CRC32 (IEEE) of the page's current payload
	// and true, or false when no checksum is known for the page.
	PageChecksum(id PageID) (uint32, bool)
}

// Pager is the abstraction trees are written against: fixed-size pages,
// allocation, and whole-page read/write.
type Pager interface {
	// PageSize returns the fixed page size in bytes.
	PageSize() int
	// Alloc reserves a new zeroed page and returns its id.
	Alloc() (PageID, error)
	// Read returns the content of page id. The returned slice must not be
	// modified by the caller; it is valid until the next pager call.
	Read(id PageID) ([]byte, error)
	// Write replaces the content of page id. len(data) must equal PageSize.
	Write(id PageID, data []byte) error
	// NumPages returns the number of allocated pages.
	NumPages() int
}

// Stats counts page-level I/O. For a File they are physical accesses; a
// StripedPool layers hit/miss accounting on top and forwards misses.
type Stats struct {
	Reads     uint64 // physical page reads
	Writes    uint64 // physical page writes
	Hits      uint64 // buffer hits (pools only)
	Misses    uint64 // buffer misses (pools only)
	Retries   uint64 // read retries after transient faults (pools only)
	Evictions uint64 // frames evicted to make room (pools only)
}

// File is an in-memory page file. Reads of distinct pages may happen
// concurrently (e.g. parallel queries through separate buffer pools); the
// I/O counters are atomic so accounting stays race-free. Alloc/Write must
// not race with readers.
//
// Each page carries a CRC32 maintained on Write and verified on Read, so
// in-place memory corruption (or a test's deliberate CorruptPage) surfaces
// as ErrPageCorrupt instead of a silently wrong payload.
type File struct {
	pageSize int
	pages    [][]byte
	crcs     []uint32
	reads    atomic.Uint64
	writes   atomic.Uint64
}

// NewFile creates a page file with the given page size (DefaultPageSize if
// non-positive).
func NewFile(pageSize int) *File {
	if pageSize <= 0 {
		pageSize = DefaultPageSize
	}
	return &File{pageSize: pageSize}
}

// PageSize implements Pager.
func (f *File) PageSize() int { return f.pageSize }

// NumPages implements Pager.
func (f *File) NumPages() int { return len(f.pages) }

// SizeBytes returns the total size of the file.
func (f *File) SizeBytes() int64 { return int64(len(f.pages)) * int64(f.pageSize) }

// Alloc implements Pager.
func (f *File) Alloc() (PageID, error) {
	if len(f.pages) >= int(NilPage) {
		return NilPage, ErrFileFull
	}
	page := make([]byte, f.pageSize)
	f.pages = append(f.pages, page)
	f.crcs = append(f.crcs, crc32.ChecksumIEEE(page))
	return PageID(len(f.pages) - 1), nil
}

// Read implements Pager, verifying the page's checksum before returning
// it.
func (f *File) Read(id PageID) ([]byte, error) {
	if int(id) >= len(f.pages) {
		return nil, fmt.Errorf("%w: read %d of %d", ErrPageOutOfRange, id, len(f.pages))
	}
	f.reads.Add(1)
	if crc32.ChecksumIEEE(f.pages[id]) != f.crcs[id] {
		return nil, ErrPageCorrupt{Page: id}
	}
	return f.pages[id], nil
}

// Write implements Pager.
func (f *File) Write(id PageID, data []byte) error {
	if int(id) >= len(f.pages) {
		return fmt.Errorf("%w: write %d of %d", ErrPageOutOfRange, id, len(f.pages))
	}
	if len(data) != f.pageSize {
		return fmt.Errorf("%w: %d vs %d", ErrBadPageSize, len(data), f.pageSize)
	}
	f.writes.Add(1)
	copy(f.pages[id], data)
	f.crcs[id] = crc32.ChecksumIEEE(f.pages[id])
	return nil
}

// PageChecksum implements Checksummer.
func (f *File) PageChecksum(id PageID) (uint32, bool) {
	if int(id) >= len(f.crcs) {
		return 0, false
	}
	return f.crcs[id], true
}

// CorruptPage flips one byte of the page's stored payload without updating
// its checksum — simulated bit rot for fault-injection tests. The next
// Read of the page returns ErrPageCorrupt.
func (f *File) CorruptPage(id PageID, offset int) error {
	if int(id) >= len(f.pages) {
		return fmt.Errorf("%w: corrupt %d of %d", ErrPageOutOfRange, id, len(f.pages))
	}
	f.pages[id][offset%f.pageSize] ^= 0xFF
	return nil
}

// Stats returns a snapshot of the physical I/O counters.
func (f *File) Stats() Stats {
	return Stats{Reads: f.reads.Load(), Writes: f.writes.Load()}
}

// ResetStats zeroes the physical I/O counters.
func (f *File) ResetStats() {
	f.reads.Store(0)
	f.writes.Store(0)
}
