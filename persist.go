package mstsearch

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"

	"mstsearch/internal/index"
	"mstsearch/internal/storage"
	"mstsearch/internal/wal"
)

// Snapshot format (little endian):
//
//	magic "MSTDB\x00"   6 B
//	version             u16       (currently 1)
//	kind                u8
//	root, height, nodes u32 ×3    (index metadata)
//	vmax                f64
//	pageSize, numPages  u32 ×2
//	pages               numPages × pageSize raw bytes
//	numTrajs            u32
//	per trajectory:     id u32, numSamples u32, samples (x, y, t as f64)
//	crc32 (IEEE) of everything above   u32
//
// The CRC catches torn writes and on-disk corruption at load time.

var snapshotMagic = [6]byte{'M', 'S', 'T', 'D', 'B', 0}

const snapshotVersion = 1

// Errors returned by Load.
var (
	ErrBadSnapshot     = errors.New("mstsearch: not a database snapshot")
	ErrSnapshotVersion = errors.New("mstsearch: unsupported snapshot version")
	ErrSnapshotCRC     = errors.New("mstsearch: snapshot checksum mismatch")
)

// Save writes the whole database — index pages and trajectory store — to
// path atomically and durably: the snapshot is assembled in a uniquely
// named temp file in the target directory, fsynced, renamed over path,
// and the directory is fsynced so the rename itself survives a crash.
// Concurrent Saves to the same path cannot clobber each other's temp
// file (each gets its own), and a crash at any point leaves either the
// old snapshot or the new one — never a torn mix. Save takes the
// database's read lock, so it snapshots a consistent state even while
// queries run.
func (db *DB) Save(path string) error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.saveLocked(path)
}

// saveLocked is Save without the locking, shared with Checkpoint (which
// already holds the write lock). Callers must hold db.mu (either side).
func (db *DB) saveLocked(path string) (err error) {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	// Cleanup contract: the temp file never outlives a failed Save, and
	// the first error wins — a close error on the failure path must not
	// shadow the write error that caused it.
	closed := false
	defer func() {
		if !closed {
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			os.Remove(tmp)
		}
	}()

	crc := crc32.NewIEEE()
	bw := bufio.NewWriterSize(io.MultiWriter(f, crc), 1<<20)

	write := func(v any) error { return binary.Write(bw, binary.LittleEndian, v) }

	if _, err := bw.Write(snapshotMagic[:]); err != nil {
		return err
	}
	meta := db.indexMeta()
	hdr := []any{
		uint16(snapshotVersion), uint8(db.kind),
		uint32(meta.Root), uint32(meta.Height), uint32(meta.Nodes),
		db.vmax,
		uint32(db.file.PageSize()), uint32(db.file.NumPages()),
	}
	for _, v := range hdr {
		if err := write(v); err != nil {
			return err
		}
	}
	for i := 0; i < db.file.NumPages(); i++ {
		page, err := db.file.Read(storage.PageID(i))
		if err != nil {
			return err
		}
		if _, err := bw.Write(page); err != nil {
			return err
		}
	}
	if err := write(uint32(len(db.trajs))); err != nil {
		return err
	}
	for i := range db.trajs {
		tr := &db.trajs[i]
		if err := write(uint32(tr.ID)); err != nil {
			return err
		}
		if err := write(uint32(len(tr.Samples))); err != nil {
			return err
		}
		for _, s := range tr.Samples {
			if err := write([3]float64{s.X, s.Y, s.T}); err != nil {
				return err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	// The CRC of everything written so far, outside the checksummed region.
	if err := binary.Write(f, binary.LittleEndian, crc.Sum32()); err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		return err
	}
	closed = true
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	// The rename is only durable once the directory entry is on stable
	// storage; without this a crash can resurrect the old snapshot — or
	// no snapshot at all — after Save returned success.
	return wal.SyncDir(dir)
}

// WriteFileAtomic writes data to path with the snapshot discipline Save
// uses: a uniquely named temp file in the target directory, fsync, rename
// over path, directory fsync. A crash at any point leaves either the old
// file or the new one — never a torn mix. The cluster layer
// (internal/shard) persists its manifest through it.
func WriteFileAtomic(path string, data []byte) (err error) {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	closed := false
	defer func() {
		if !closed {
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			os.Remove(tmp)
		}
	}()
	if _, err := f.Write(data); err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		return err
	}
	closed = true
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	return wal.SyncDir(dir)
}

// indexMeta returns the active tree's root metadata in a common shape.
// Callers must hold db.mu (either side): it reads the engine's handles.
func (db *DB) indexMeta() index.Meta { return db.eng.meta() }

// Load reads a database snapshot written by Save. The returned DB serves
// queries, and further Adds and appends go to the same in-memory page file
// whatever the index kind.
func Load(path string) (*DB, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()

	// Verify the trailing CRC before parsing.
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if st.Size() < int64(len(snapshotMagic))+4 {
		return nil, ErrBadSnapshot
	}
	body := io.LimitReader(f, st.Size()-4)
	crc := crc32.NewIEEE()
	br := bufio.NewReaderSize(io.TeeReader(body, crc), 1<<20)

	var magic [6]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, ErrBadSnapshot
	}
	if magic != snapshotMagic {
		return nil, ErrBadSnapshot
	}
	read := func(v any) error { return binary.Read(br, binary.LittleEndian, v) }
	var (
		version                  uint16
		kind                     uint8
		root, height, nodes      uint32
		vmax                     float64
		pageSize, numPages, nTrj uint32
	)
	for _, v := range []any{&version, &kind, &root, &height, &nodes, &vmax, &pageSize, &numPages} {
		if err := read(v); err != nil {
			return nil, fmt.Errorf("%w: truncated header", ErrBadSnapshot)
		}
	}
	if version != snapshotVersion {
		return nil, fmt.Errorf("%w: %d", ErrSnapshotVersion, version)
	}
	if !IndexKind(kind).Valid() {
		return nil, fmt.Errorf("%w: %w %d", ErrBadSnapshot, ErrUnknownIndexKind, kind)
	}
	if pageSize == 0 || pageSize > 1<<20 {
		return nil, fmt.Errorf("%w: page size %d", ErrBadSnapshot, pageSize)
	}
	// Length fields must be plausible against the physical file size, so a
	// corrupted count fails cleanly instead of provoking a huge allocation.
	if int64(numPages)*int64(pageSize) > st.Size() {
		return nil, fmt.Errorf("%w: %d pages of %d bytes exceed snapshot size", ErrBadSnapshot, numPages, pageSize)
	}

	db := &DB{
		kind: IndexKind(kind),
		file: storage.NewFile(int(pageSize)),
		byID: map[ID]int{},
		vmax: vmax,
	}
	buf := make([]byte, pageSize)
	for i := uint32(0); i < numPages; i++ {
		if _, err := io.ReadFull(br, buf); err != nil {
			return nil, fmt.Errorf("%w: truncated pages", ErrBadSnapshot)
		}
		id, err := db.file.Alloc()
		if err != nil {
			return nil, err
		}
		if err := db.file.Write(id, buf); err != nil {
			return nil, err
		}
	}
	if err := read(&nTrj); err != nil {
		return nil, fmt.Errorf("%w: truncated trajectory section", ErrBadSnapshot)
	}
	if int64(nTrj) > st.Size()/8 {
		return nil, fmt.Errorf("%w: trajectory count %d exceeds snapshot size", ErrBadSnapshot, nTrj)
	}
	for i := uint32(0); i < nTrj; i++ {
		var id, n uint32
		if err := read(&id); err != nil {
			return nil, fmt.Errorf("%w: truncated trajectory header", ErrBadSnapshot)
		}
		if err := read(&n); err != nil {
			return nil, fmt.Errorf("%w: truncated trajectory header", ErrBadSnapshot)
		}
		if int64(n) > st.Size()/24 {
			return nil, fmt.Errorf("%w: sample count %d exceeds snapshot size", ErrBadSnapshot, n)
		}
		tr := Trajectory{ID: ID(id), Samples: make([]Sample, n)}
		for j := uint32(0); j < n; j++ {
			var p [3]float64
			if err := read(&p); err != nil {
				return nil, fmt.Errorf("%w: truncated samples", ErrBadSnapshot)
			}
			tr.Samples[j] = Sample{X: p[0], Y: p[1], T: p[2]}
		}
		db.byID[tr.ID] = len(db.trajs)
		db.trajs = append(db.trajs, tr)
	}

	var want uint32
	if err := binary.Read(f, binary.LittleEndian, &want); err != nil {
		return nil, fmt.Errorf("%w: missing checksum", ErrBadSnapshot)
	}
	if crc.Sum32() != want {
		return nil, ErrSnapshotCRC
	}

	// Rebind the tree to the restored pages, writable like a fresh one.
	db.eng = db.newEngine(db.kind, db.file, index.Meta{
		Root: storage.PageID(root), Height: int(height), Nodes: int(nodes),
	})
	db.invalidate()
	if db.vmax == 0 {
		for i := range db.trajs {
			db.vmax = math.Max(db.vmax, db.trajs[i].MaxSpeed())
		}
	}
	return db, nil
}
