package mstsearch

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"

	"mstsearch/internal/index"
	"mstsearch/internal/wal"
)

// Durable mode: OpenDurable binds a DB to a directory holding a
// checkpoint snapshot plus a write-ahead log, journaling every mutation
// before applying it.
//
// # Directory layout & recovery state machine
//
//	snapshot-<epoch>.mstdb    checkpoint snapshot (Save format)
//	wal-<epoch>-<seq>.log     WAL segments (see package wal)
//
// The epoch counts checkpoints. A fresh database starts at epoch 0 with
// no snapshot and an empty epoch-0 log. Checkpoint E → E+1 runs:
//
//	1. write snapshot-<E+1> atomically (temp file, fsync, rename,
//	   directory fsync) — it captures every mutation of epochs ≤ E;
//	2. open a fresh epoch-<E+1> log (its first segment is created and
//	   the directory fsynced before any new mutation is acknowledged);
//	3. delete the now-redundant epoch-≤E segments and older snapshots.
//
// A crash between any two steps is safe: recovery picks the
// highest-epoch loadable snapshot, replays only WAL records of that
// same epoch, and garbage-collects every older file. Each step only
// removes data that the previous step made redundant, so at every
// crash point exactly one consistent (snapshot, log-suffix) pair
// exists on disk.
//
// Replay tolerates a torn tail — the process died mid-append — by
// stopping cleanly at the first damaged frame of the final segment and
// truncating it. Damage anywhere earlier surfaces as ErrWALCorrupt:
// recovering past it would silently drop acknowledged mutations.

// ErrWALCorrupt reports mid-log damage discovered during durable
// recovery: a WAL frame failed its checksum at a position that cannot
// be a torn tail. The snapshot (if any) is intact; the caller decides
// whether to re-ingest from an upstream source or accept the snapshot
// state by deleting the damaged segments.
var ErrWALCorrupt = wal.ErrWALCorrupt

// ErrSnapshotKind reports a durable directory whose snapshot was built
// with a different index kind than OpenDurable was asked for.
var ErrSnapshotKind = errors.New("mstsearch: snapshot index kind mismatch")

// SyncMode selects when journaled mutations reach stable storage.
type SyncMode int

const (
	// SyncAlways fsyncs the log on every mutation before acknowledging
	// it: a nil return from Add/AppendSample is a durability guarantee.
	// The default.
	SyncAlways SyncMode = iota
	// SyncGrouped fsyncs every GroupEvery-th mutation: group commit.
	// A crash can lose the last unsynced group, but never reorders —
	// what survives is always a prefix of the acknowledged mutations.
	SyncGrouped
	// SyncOff never fsyncs the log; the OS flushes when it pleases.
	// Fastest, weakest: a crash loses an unbounded unsynced suffix
	// (still always a prefix of what was written).
	SyncOff
)

// String names the mode.
func (m SyncMode) String() string { return m.policy().String() }

// policy maps the public mode onto the wal package's fsync policy.
func (m SyncMode) policy() wal.Policy {
	switch m {
	case SyncGrouped:
		return wal.PolicyGrouped
	case SyncOff:
		return wal.PolicyNever
	default:
		return wal.PolicyAlways
	}
}

// DurableOptions tunes a durable DB; the zero value is a safe default
// (fsync every mutation, 1 MiB WAL segments, auto-checkpoint at 4 MiB
// of log).
type DurableOptions struct {
	// Sync is the fsync policy for journaled mutations (default
	// SyncAlways).
	Sync SyncMode
	// GroupEvery is the SyncGrouped commit interval in mutations
	// (default 8; ignored by the other modes).
	GroupEvery int
	// SegmentBytes caps one WAL segment file (default 1 MiB).
	SegmentBytes int64
	// CheckpointBytes auto-triggers Checkpoint once the log exceeds
	// this many bytes (default 4 MiB; negative disables the trigger —
	// the log then grows until a manual Checkpoint).
	CheckpointBytes int64

	// OpenFile, when non-nil, replaces WAL segment-file creation — the
	// crash-injection seam the powercut tests use (storage.PowercutBudget
	// satisfies it). Exported so the cluster layer (internal/shard) can
	// aim faults at a single shard's log through Options.ShardDurable.
	OpenFile func(path string) (wal.File, error)
}

const defaultCheckpointBytes = 4 << 20

// walOptions translates the public options into the wal package's.
func (o DurableOptions) walOptions() wal.Options {
	return wal.Options{
		Policy:       o.Sync.policy(),
		GroupEvery:   o.GroupEvery,
		SegmentBytes: o.SegmentBytes,
		OpenFile:     o.OpenFile,
	}
}

// WAL record types and payload encodings (little endian):
//
//	recAdd:    id u32, numSamples u32, then numSamples × (x, y, t) f64
//	recAppend: id u32, x f64, y f64, t f64
const (
	recAdd    uint8 = 1
	recAppend uint8 = 2
	// recKind pins the store's index kind inside the log itself (payload:
	// kind u8). It is journaled first thing after every open and epoch
	// switch, so even a young store with no snapshot yet refuses to replay
	// into the wrong index structure instead of silently rebuilding its
	// data under a different tree.
	recKind uint8 = 3
)

// encodeAddRecord serializes a full trajectory for the journal.
func encodeAddRecord(tr *Trajectory) []byte {
	buf := make([]byte, 8+24*len(tr.Samples))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(tr.ID))
	binary.LittleEndian.PutUint32(buf[4:8], uint32(len(tr.Samples)))
	off := 8
	for _, s := range tr.Samples {
		binary.LittleEndian.PutUint64(buf[off:], math.Float64bits(s.X))
		binary.LittleEndian.PutUint64(buf[off+8:], math.Float64bits(s.Y))
		binary.LittleEndian.PutUint64(buf[off+16:], math.Float64bits(s.T))
		off += 24
	}
	return buf
}

// decodeAddRecord parses a recAdd payload; a malformed payload (the
// frame CRC passed, so this means a codec bug or targeted corruption)
// comes back as ErrWALCorrupt.
func decodeAddRecord(p []byte) (Trajectory, error) {
	if len(p) < 8 {
		return Trajectory{}, fmt.Errorf("%w: add record of %d bytes", ErrWALCorrupt, len(p))
	}
	n := binary.LittleEndian.Uint32(p[4:8])
	if len(p) != 8+24*int(n) {
		return Trajectory{}, fmt.Errorf("%w: add record length %d for %d samples", ErrWALCorrupt, len(p), n)
	}
	tr := Trajectory{ID: ID(binary.LittleEndian.Uint32(p[0:4])), Samples: make([]Sample, n)}
	off := 8
	for i := range tr.Samples {
		tr.Samples[i] = Sample{
			X: math.Float64frombits(binary.LittleEndian.Uint64(p[off:])),
			Y: math.Float64frombits(binary.LittleEndian.Uint64(p[off+8:])),
			T: math.Float64frombits(binary.LittleEndian.Uint64(p[off+16:])),
		}
		off += 24
	}
	return tr, nil
}

// encodeAppendRecord serializes one appended sample for the journal.
func encodeAppendRecord(id ID, s Sample) []byte {
	var buf [28]byte
	binary.LittleEndian.PutUint32(buf[0:4], uint32(id))
	binary.LittleEndian.PutUint64(buf[4:12], math.Float64bits(s.X))
	binary.LittleEndian.PutUint64(buf[12:20], math.Float64bits(s.Y))
	binary.LittleEndian.PutUint64(buf[20:28], math.Float64bits(s.T))
	return buf[:]
}

// decodeAppendRecord parses a recAppend payload.
func decodeAppendRecord(p []byte) (ID, Sample, error) {
	if len(p) != 28 {
		return 0, Sample{}, fmt.Errorf("%w: append record of %d bytes", ErrWALCorrupt, len(p))
	}
	return ID(binary.LittleEndian.Uint32(p[0:4])), Sample{
		X: math.Float64frombits(binary.LittleEndian.Uint64(p[4:12])),
		Y: math.Float64frombits(binary.LittleEndian.Uint64(p[12:20])),
		T: math.Float64frombits(binary.LittleEndian.Uint64(p[20:28])),
	}, nil
}

// snapshotName returns the checkpoint snapshot file name for an epoch.
func snapshotName(epoch uint32) string {
	return fmt.Sprintf("snapshot-%08d.mstdb", epoch)
}

// snapshotEpochs lists the epochs with a snapshot file in dir,
// descending (newest first).
func snapshotEpochs(dir string) ([]uint32, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var epochs []uint32
	for _, e := range ents {
		var ep uint32
		if _, err := fmt.Sscanf(e.Name(), "snapshot-%d.mstdb", &ep); err == nil {
			epochs = append(epochs, ep)
		}
	}
	sort.Slice(epochs, func(i, j int) bool { return epochs[i] > epochs[j] })
	return epochs, nil
}

// OpenDurable opens (or creates) a durable database in dir: every
// mutation is journaled to a write-ahead log before it is applied, a
// checkpoint (manual via DB.Checkpoint or automatic past
// CheckpointBytes of log) folds the log into a snapshot, and reopening
// recovers by loading the newest snapshot and replaying the log —
// tolerating a torn tail from a crash mid-write, and surfacing
// ErrWALCorrupt for damage anywhere earlier in the log.
//
// kind selects the index structure, as in Open. The index reopens over
// the snapshot's pages as Load leaves it, writable for every kind, and
// the log replays into it.
//
// The returned DB serves queries like any other; call Close when done
// to flush and release the log.
func OpenDurable(dir string, kind IndexKind, o DurableOptions) (*DB, error) {
	if o.CheckpointBytes == 0 {
		o.CheckpointBytes = defaultCheckpointBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}

	// Recovery: the newest snapshot decides the epoch. The checkpoint
	// protocol never leaves a torn file under a snapshot name (content
	// is fsynced before the rename), so a newest snapshot that fails to
	// load is genuine on-disk corruption — refuse rather than fall back
	// to an older epoch whose log may already have been truncated,
	// which would silently drop acknowledged mutations.
	epochs, err := snapshotEpochs(dir)
	if err != nil {
		return nil, err
	}
	var (
		db    *DB
		epoch uint32
	)
	if len(epochs) > 0 {
		epoch = epochs[0]
		db, err = Load(filepath.Join(dir, snapshotName(epoch)))
		if err != nil {
			return nil, fmt.Errorf("mstsearch: durable recovery, %s: %w", snapshotName(epoch), err)
		}
		if db.kind != kind {
			return nil, fmt.Errorf("%w: directory holds %s, requested %s", ErrSnapshotKind, db.kind, kind)
		}
	} else {
		db = Open(kind)
	}

	log, records, err := wal.Open(dir, epoch, o.walOptions())
	if err != nil {
		return nil, err
	}

	db.mu.Lock()
	defer db.mu.Unlock()
	for i, rec := range records {
		if err := db.replayLocked(rec); err != nil {
			log.Close()
			return nil, fmt.Errorf("mstsearch: wal replay, record %d of %d: %w", i+1, len(records), err)
		}
	}
	db.wal = log
	db.dir = dir
	db.epoch = epoch
	db.dopt = o
	if err := log.Append(recKind, []byte{uint8(kind)}); err != nil {
		log.Close()
		return nil, fmt.Errorf("mstsearch: journal kind: %w", err)
	}

	// Garbage-collect files an interrupted checkpoint left behind:
	// everything below the recovered epoch is covered by its snapshot.
	if err := wal.RemoveEpochsBelow(dir, epoch); err != nil {
		log.Close()
		return nil, err
	}
	if err := removeSnapshotsBelow(dir, epoch); err != nil {
		log.Close()
		return nil, err
	}
	return db, nil
}

// replayLocked applies one journaled record. Callers must hold db.mu
// (write side).
func (db *DB) replayLocked(rec wal.Record) error {
	switch rec.Type {
	case recAdd:
		tr, err := decodeAddRecord(rec.Payload)
		if err != nil {
			return err
		}
		if _, dup := db.byID[tr.ID]; dup {
			return fmt.Errorf("%w: replayed duplicate trajectory %d", ErrWALCorrupt, tr.ID)
		}
		return db.applyAddLocked(tr)
	case recAppend:
		id, s, err := decodeAppendRecord(rec.Payload)
		if err != nil {
			return err
		}
		i, ok := db.byID[id]
		if !ok {
			return fmt.Errorf("%w: replayed sample for unknown trajectory %d", ErrWALCorrupt, id)
		}
		tr := &db.trajs[i]
		if last := tr.Samples[len(tr.Samples)-1]; s.T <= last.T {
			return fmt.Errorf("%w: replayed sample at t=%g not after trajectory end t=%g", ErrWALCorrupt, s.T, last.T)
		}
		return db.applyAppendLocked(i, s)
	case recKind:
		if len(rec.Payload) != 1 {
			return fmt.Errorf("%w: kind record of %d bytes", ErrWALCorrupt, len(rec.Payload))
		}
		if got := IndexKind(rec.Payload[0]); got != db.kind {
			return fmt.Errorf("%w: log holds %s, requested %s", ErrSnapshotKind, got, db.kind)
		}
		return nil
	default:
		return fmt.Errorf("%w: unknown record type %d", ErrWALCorrupt, rec.Type)
	}
}

// Checkpoint folds the write-ahead log into a fresh snapshot and
// truncates it: the snapshot is written atomically and durably, a new
// log epoch starts, and the old epoch's segments are deleted. After a
// successful Checkpoint the recovery path reads the new snapshot and an
// empty log. Checkpoint takes the write lock, so it serializes against
// mutations; queries run again as soon as it returns. It is a no-op
// (with a typed error) on a non-durable DB.
func (db *DB) Checkpoint() error {
	return db.CheckpointContext(context.Background())
}

// CheckpointContext is Checkpoint under a context, so a caller (an admin
// endpoint, a maintenance cron) can put a deadline on the fold. The
// context is checked at the state-machine's step boundaries — an expired
// or canceled context aborts with an error wrapping ErrCanceled (and
// ErrDeadlineExceeded when a deadline fired) before the next step starts.
// Every prefix of the checkpoint protocol is crash-safe, so an aborted
// checkpoint leaves a recoverable directory: whatever step completed
// stands, the next checkpoint or open finishes the garbage collection.
func (db *DB) CheckpointContext(ctx context.Context) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.wal == nil {
		return errNotDurable
	}
	return db.checkpointLocked(ctx)
}

// errNotDurable reports a durability operation on an in-memory DB.
var errNotDurable = errors.New("mstsearch: not a durable database (use OpenDurable)")

// ErrNotDurable reports Checkpoint on a DB that was not opened with
// OpenDurable.
var ErrNotDurable = errNotDurable

// checkpointLocked runs the checkpoint state machine, honoring ctx at
// step boundaries. Callers must hold db.mu (write side) and have
// verified db.wal != nil.
func (db *DB) checkpointLocked(ctx context.Context) error {
	next := db.epoch + 1
	if err := index.Canceled(ctx); err != nil {
		return fmt.Errorf("mstsearch: checkpoint: %w", err)
	}
	// 1. Snapshot, atomically and durably. If this fails the old
	//    snapshot + log still recover everything.
	if err := db.saveLocked(filepath.Join(db.dir, snapshotName(next))); err != nil {
		return err
	}
	if err := index.Canceled(ctx); err != nil {
		// The snapshot stands but the epoch has not switched: recovery
		// prefers snapshot-<next> with the old epoch's full log — every
		// mutation is still covered exactly once.
		return fmt.Errorf("mstsearch: checkpoint: %w", err)
	}
	// 2. Fresh log epoch. From here, recovery prefers snapshot-<next>
	//    and replays only epoch-<next> records.
	newLog, _, err := wal.Open(db.dir, next, db.dopt.walOptions())
	if err != nil {
		return err
	}
	if err := db.wal.Close(); err != nil {
		newLog.Close()
		return err
	}
	db.wal = newLog
	db.epoch = next
	if err := newLog.Append(recKind, []byte{uint8(db.kind)}); err != nil {
		// The checkpoint itself succeeded (snapshot written, new epoch
		// active); the snapshot pins the kind, so recovery stays safe.
		return fmt.Errorf("mstsearch: journal kind: %w", err)
	}
	// 3. Truncate: the old epoch's segments and snapshots are garbage.
	//    A failure here leaves stale files that the next open or
	//    checkpoint garbage-collects — never an inconsistency.
	if err := wal.RemoveEpochsBelow(db.dir, next); err != nil {
		return err
	}
	return removeSnapshotsBelow(db.dir, next)
}

// maybeCheckpointLocked runs the auto-checkpoint trigger after a
// journaled mutation. Callers must hold db.mu (write side).
func (db *DB) maybeCheckpointLocked() error {
	if db.wal == nil || db.dopt.CheckpointBytes <= 0 || db.wal.Size() < db.dopt.CheckpointBytes {
		return nil
	}
	return db.checkpointLocked(context.Background())
}

// removeSnapshotsBelow deletes snapshots of epochs earlier than keep.
func removeSnapshotsBelow(dir string, keep uint32) error {
	epochs, err := snapshotEpochs(dir)
	if err != nil {
		return err
	}
	removed := false
	for _, ep := range epochs {
		if ep < keep {
			if err := os.Remove(filepath.Join(dir, snapshotName(ep))); err != nil {
				return err
			}
			removed = true
		}
	}
	if removed {
		return wal.SyncDir(dir)
	}
	return nil
}

// Close flushes and releases the write-ahead log. Further mutations
// fail; queries keep working against the in-memory state. On a
// non-durable DB Close is a no-op. Close is idempotent.
func (db *DB) Close() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.wal == nil {
		return nil
	}
	err := db.wal.Close()
	db.wal = nil
	return err
}
