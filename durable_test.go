package mstsearch

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"mstsearch/internal/obs"
	"mstsearch/internal/storage"
	"mstsearch/internal/testutil"
	"mstsearch/internal/wal"
)

// durableOp is one scripted mutation of the crash workload.
type durableOp struct {
	add bool
	tr  Trajectory // when add
	id  ID         // when !add
	s   Sample     // when !add
}

// crashWorkload builds a deterministic mutation script: a fleet of Adds
// followed by AppendSamples onto already-stored trajectories.
func crashWorkload(rng *rand.Rand, nTrajs, nSamples, nAppends int) []durableOp {
	trajs := fleet(rng, nTrajs, nSamples)
	lastT := map[ID]float64{}
	var ops []durableOp
	for i := range trajs {
		ops = append(ops, durableOp{add: true, tr: trajs[i]})
		lastT[trajs[i].ID] = trajs[i].Samples[nSamples-1].T
	}
	for i := 0; i < nAppends; i++ {
		id := ID(rng.Intn(nTrajs) + 1)
		t := lastT[id] + 1 + rng.Float64()
		lastT[id] = t
		ops = append(ops, durableOp{id: id, s: Sample{X: rng.Float64() * 100, Y: rng.Float64() * 100, T: t}})
	}
	return ops
}

// issueOps runs the script against db until the first error, returning
// how many mutations were acknowledged.
func issueOps(db *DB, ops []durableOp) (int, error) {
	for i, op := range ops {
		var err error
		if op.add {
			err = db.Add(op.tr)
		} else {
			err = db.AppendSample(op.id, op.s)
		}
		if err != nil {
			return i, err
		}
	}
	return len(ops), nil
}

// storeSig summarizes a DB's trajectory store as ID → sample count.
// Every workload op strictly grows the signature, so a signature
// identifies a unique prefix of the script.
func storeSig(db *DB) map[ID]int {
	sig := map[ID]int{}
	for i := range db.trajs {
		sig[db.trajs[i].ID] = len(db.trajs[i].Samples)
	}
	return sig
}

// matchPrefix finds the script prefix whose cumulative effect equals
// sig, or reports failure — i.e. the recovered state is NOT a prefix of
// the issued mutations.
func matchPrefix(ops []durableOp, sig map[ID]int) (int, bool) {
	cur := map[ID]int{}
	if reflect.DeepEqual(cur, sig) {
		return 0, true
	}
	for i, op := range ops {
		if op.add {
			cur[op.tr.ID] = len(op.tr.Samples)
		} else {
			cur[op.id]++
		}
		if reflect.DeepEqual(cur, sig) {
			return i + 1, true
		}
	}
	return 0, false
}

// crashQuery runs the fixed differential query the sweep compares.
func crashQuery(db *DB, q *Trajectory) ([]Result, error) {
	resp, err := db.Query(context.Background(), Request{Q: q, Interval: Interval{T1: 2, T2: 8}, K: 4})
	return resp.Results, err
}

// crashSweep is the durability property test: for every byte offset cut
// (stepping by stride) across the workload's WAL write volume, it cuts
// the power mid-write at that offset, crashes under the given model,
// reopens, and requires that
//
//  1. recovery succeeds — a torn tail is never reported as corruption,
//  2. the recovered store is exactly a prefix of the issued mutations,
//  3. under SyncAlways every acknowledged mutation survived, and
//  4. a k-MST query against the recovered DB is bit-identical to the
//     same query against an in-memory oracle holding that prefix.
func crashSweep(t *testing.T, kind IndexKind, mode SyncMode, dropUnsynced bool, ckptBytes int64, stride int64, nTrajs, nSamples, nAppends int) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	ops := crashWorkload(rng, nTrajs, nSamples, nAppends)
	qref := ops[0].tr // the differential query, independent of DB state

	opts := func(b *storage.PowercutBudget) DurableOptions {
		return DurableOptions{
			Sync:            mode,
			SegmentBytes:    512,
			CheckpointBytes: ckptBytes,
			OpenFile:        func(path string) (wal.File, error) { return b.Open(path) },
		}
	}

	// Dry run with an unlimited budget to measure the write volume.
	root := t.TempDir()
	dry := storage.NewPowercutBudget(-1)
	db, err := OpenDurable(filepath.Join(root, "dry"), kind, opts(dry))
	if err != nil {
		t.Fatal(err)
	}
	if n, err := issueOps(db, ops); err != nil {
		t.Fatalf("dry run stopped at op %d: %v", n, err)
	}
	total := dry.Written()
	if total == 0 {
		t.Fatal("dry run wrote nothing through the budget")
	}
	db.Close()

	for cut := int64(0); cut <= total; cut += stride {
		dir := filepath.Join(root, fmt.Sprintf("cut-%d", cut))
		b := storage.NewPowercutBudget(cut)
		acked := 0
		db, err := OpenDurable(dir, kind, opts(b))
		if err == nil {
			acked, err = issueOps(db, ops)
		}
		if err != nil && !errors.Is(err, storage.ErrInjected) {
			t.Fatalf("cut %d: unexpected failure class: %v", cut, err)
		}
		if err == nil && cut < total {
			t.Fatalf("cut %d: workload finished despite a budget below the write volume", cut)
		}
		if err := b.Crash(dropUnsynced); err != nil {
			t.Fatalf("cut %d: crash: %v", cut, err)
		}

		re, rerr := OpenDurable(dir, kind, DurableOptions{})
		if rerr != nil {
			t.Fatalf("cut %d: recovery failed: %v", cut, rerr)
		}
		n, ok := matchPrefix(ops, storeSig(re))
		if !ok {
			t.Fatalf("cut %d: recovered state (%d trajs) is not a prefix of the issued mutations", cut, re.Len())
		}
		if mode == SyncAlways && n < acked {
			t.Fatalf("cut %d: recovered only %d of %d fsync-acknowledged mutations", cut, n, acked)
		}
		// Differential: the recovered DB must answer queries exactly like
		// an in-memory oracle holding the same mutation prefix.
		oracle := Open(kind)
		for _, op := range ops[:n] {
			var err error
			if op.add {
				err = oracle.Add(op.tr)
			} else {
				err = oracle.AppendSample(op.id, op.s)
			}
			if err != nil {
				t.Fatalf("cut %d: oracle replay: %v", cut, err)
			}
		}
		got, gerr := crashQuery(re, &qref)
		want, werr := crashQuery(oracle, &qref)
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("cut %d: query error mismatch: recovered=%v oracle=%v", cut, gerr, werr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("cut %d: query differential after %d replayed ops:\nrecovered: %+v\noracle:    %+v", cut, n, got, want)
		}
		if err := re.Close(); err != nil {
			t.Fatalf("cut %d: close: %v", cut, err)
		}
		// Keep the sweep's disk footprint bounded: thousands of small
		// directories otherwise accumulate under one TempDir.
		os.RemoveAll(dir)
	}
}

// TestCrashSweepEveryOffset is the exhaustive sweep on the small
// workload: every single byte offset, both crash models.
func TestCrashSweepEveryOffset(t *testing.T) {
	stride := int64(1)
	if testing.Short() {
		stride = 13
	}
	t.Run("drop-unsynced", func(t *testing.T) {
		crashSweep(t, RTree3D, SyncAlways, true, -1, stride, 6, 5, 15)
	})
	t.Run("keep-unsynced", func(t *testing.T) {
		crashSweep(t, RTree3D, SyncAlways, false, -1, stride, 6, 5, 15)
	})
}

// TestCrashSweepVariants samples the offset space under the weaker sync
// policies, with auto-checkpoints firing mid-workload, and on the
// bundled-tree index kinds (whose recovery path rebuilds the tree from
// the store before replay).
func TestCrashSweepVariants(t *testing.T) {
	stride := int64(7)
	if testing.Short() {
		stride = 31
	}
	t.Run("grouped-drop", func(t *testing.T) {
		crashSweep(t, RTree3D, SyncGrouped, true, -1, stride, 6, 5, 15)
	})
	t.Run("off-keep", func(t *testing.T) {
		crashSweep(t, RTree3D, SyncOff, false, -1, stride, 6, 5, 15)
	})
	t.Run("checkpointing-drop", func(t *testing.T) {
		crashSweep(t, RTree3D, SyncAlways, true, 600, stride, 6, 5, 15)
	})
	t.Run("tbtree-checkpointing", func(t *testing.T) {
		crashSweep(t, TBTree, SyncAlways, true, 900, stride+4, 6, 5, 15)
	})
	t.Run("strtree-drop", func(t *testing.T) {
		crashSweep(t, STRTree, SyncAlways, true, -1, stride+6, 6, 5, 15)
	})
}

// TestOpenDurableRoundTrip exercises the plain lifecycle: create, fill,
// close, reopen, verify, mutate further, checkpoint, reopen again.
func TestOpenDurableRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	trajs := fleet(rng, 12, 8)
	for _, kind := range IndexKinds() {
		t.Run(kind.String(), func(t *testing.T) {
			dir := t.TempDir()
			db, err := OpenDurable(dir, kind, DurableOptions{})
			if err != nil {
				t.Fatal(err)
			}
			for i := range trajs {
				if err := db.Add(trajs[i]); err != nil {
					t.Fatal(err)
				}
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}

			re, err := OpenDurable(dir, kind, DurableOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if re.Len() != len(trajs) {
				t.Fatalf("reopened %d trajectories, want %d", re.Len(), len(trajs))
			}
			got, err := crashQuery(re, &trajs[0])
			if err != nil {
				t.Fatal(err)
			}
			mem, err := NewDB(kind, trajs)
			if err != nil {
				t.Fatal(err)
			}
			want, err := crashQuery(mem, &trajs[0])
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("recovered query differs:\n%+v\n%+v", got, want)
			}

			// Mutations keep working after recovery, across a checkpoint.
			if err := re.AppendSample(trajs[0].ID, Sample{X: 1, Y: 2, T: 1e6}); err != nil {
				t.Fatal(err)
			}
			if err := re.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			if err := re.AppendSample(trajs[0].ID, Sample{X: 2, Y: 3, T: 2e6}); err != nil {
				t.Fatal(err)
			}
			if err := re.Close(); err != nil {
				t.Fatal(err)
			}

			final, err := OpenDurable(dir, kind, DurableOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if tr := final.Get(trajs[0].ID); len(tr.Samples) != len(trajs[0].Samples)+2 {
				t.Fatalf("post-checkpoint samples: %d", len(tr.Samples))
			}
			final.Close()
		})
	}
}

// TestDurableReopenMatchesTwin appends at three points of a durable DB's
// life (before a checkpoint, into the log alone, and after a reopen) and
// requires the reopened DB to hold the pages of an in-memory twin that ran
// the same mutations, byte for byte: a reopen keeps the snapshot's pages
// and replays the log into them instead of rebuilding the index.
// Trajectories are longer than one TB leaf, so tail leaves really fill.
func TestDurableReopenMatchesTwin(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	trajs := fleet(rng, 12, 70) // 69 segments: append round 4 chains a second 4 KiB TB leaf
	checkpointed := appendRounds(rng, trajs, 1, 4)
	logged := appendRounds(rng, trajs, 5, 8)
	reopened := appendRounds(rng, trajs, 9, 12)
	for _, kind := range []IndexKind{RTree3D, TBTree, STRTree} {
		t.Run(kind.String(), func(t *testing.T) {
			dir := t.TempDir()
			db, err := OpenDurable(dir, kind, DurableOptions{})
			if err != nil {
				t.Fatal(err)
			}
			twin := Open(kind)
			for _, d := range []*DB{db, twin} {
				for i := range trajs {
					if err := d.Add(trajs[i]); err != nil {
						t.Fatal(err)
					}
				}
				if _, err := issueOps(d, checkpointed); err != nil {
					t.Fatal(err)
				}
			}
			if err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			for _, d := range []*DB{db, twin} {
				if _, err := issueOps(d, logged); err != nil {
					t.Fatal(err)
				}
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}

			re, err := OpenDurable(dir, kind, DurableOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			for _, d := range []*DB{re, twin} {
				if _, err := issueOps(d, reopened); err != nil {
					t.Fatal(err)
				}
				checkMutatedDB(t, d)
			}
			sameIndexPages(t, re, twin)
		})
	}
}

// TestCheckpointTruncatesLog verifies the checkpoint state machine on
// disk: a new snapshot epoch appears, old epochs' segments and snapshots
// disappear, and the auto-trigger fires past CheckpointBytes.
func TestCheckpointTruncatesLog(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	dir := t.TempDir()
	db, err := OpenDurable(dir, RTree3D, DurableOptions{CheckpointBytes: 2000, Sync: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	trajs := fleet(rng, 20, 6)
	for i := range trajs {
		if err := db.Add(trajs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if db.epoch == 0 {
		t.Fatal("auto-checkpoint never fired")
	}
	if db.wal.Size() >= 2000 {
		t.Fatalf("log size %d not truncated by checkpoint", db.wal.Size())
	}
	segs, err := wal.Segments(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range segs {
		if s.Epoch < db.epoch {
			t.Fatalf("stale segment %s survived checkpoint to epoch %d", s.Name, db.epoch)
		}
	}
	epochs, err := snapshotEpochs(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(epochs) != 1 || epochs[0] != db.epoch {
		t.Fatalf("snapshots %v, want exactly epoch %d", epochs, db.epoch)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenDurable(dir, RTree3D, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != len(trajs) {
		t.Fatalf("recovered %d trajectories, want %d", re.Len(), len(trajs))
	}
}

// TestOpenDurableKindMismatch: a directory checkpointed under one index
// kind refuses to open as another.
func TestOpenDurableKindMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	dir := t.TempDir()
	db, err := OpenDurable(dir, RTree3D, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	trajs := fleet(rng, 3, 5)
	for i := range trajs {
		if err := db.Add(trajs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDurable(dir, TBTree, DurableOptions{}); !errors.Is(err, ErrSnapshotKind) {
		t.Fatalf("kind mismatch: got %v", err)
	}
}

// TestWALCorruptMidLog: damage before the final frame must surface as
// ErrWALCorrupt, not be silently truncated away.
func TestWALCorruptMidLog(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	dir := t.TempDir()
	db, err := OpenDurable(dir, RTree3D, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	trajs := fleet(rng, 4, 5)
	for i := range trajs {
		if err := db.Add(trajs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := wal.Segments(dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("segments: %v, %v", segs, err)
	}
	path := filepath.Join(dir, segs[0].Name)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte of the first frame (past the 16-byte segment
	// header and the frame's length+type prefix); later frames in the
	// same segment stay decodable, so this cannot be a torn tail.
	raw[16+5+3] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDurable(dir, RTree3D, DurableOptions{}); !errors.Is(err, ErrWALCorrupt) {
		t.Fatalf("mid-log damage: got %v, want ErrWALCorrupt", err)
	}
}

// TestDurableMisuse covers the typed-error edges of the durable API.
func TestDurableMisuse(t *testing.T) {
	db := Open(RTree3D)
	if err := db.Checkpoint(); !errors.Is(err, ErrNotDurable) {
		t.Fatalf("checkpoint on in-memory DB: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("close on in-memory DB must be a no-op: %v", err)
	}

	dir := t.TempDir()
	d, err := OpenDurable(dir, RTree3D, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("close must be idempotent: %v", err)
	}
}

// TestCheckpointContextAborts: a dead context stops a checkpoint before
// it mutates anything — the WAL keeps its entries, the epoch stays put,
// and a later uncanceled checkpoint still succeeds on the same state.
func TestCheckpointContextAborts(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	dir := t.TempDir()
	db, err := OpenDurable(dir, RTree3D, DurableOptions{Sync: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	trajs := fleet(rng, 10, 6)
	for i := range trajs {
		if err := db.Add(trajs[i]); err != nil {
			t.Fatal(err)
		}
	}
	sizeBefore, epochBefore := db.wal.Size(), db.epoch

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err = db.CheckpointContext(ctx)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled checkpoint: got %v, want ErrCanceled", err)
	}
	if db.wal.Size() != sizeBefore || db.epoch != epochBefore {
		t.Fatalf("aborted checkpoint mutated state: size %d→%d epoch %d→%d",
			sizeBefore, db.wal.Size(), epochBefore, db.epoch)
	}

	if err := db.CheckpointContext(context.Background()); err != nil {
		t.Fatalf("checkpoint after aborted attempt: %v", err)
	}
	if db.epoch == epochBefore {
		t.Fatal("successful checkpoint did not advance the epoch")
	}
}

// TestCrashSweepLargeWorkloadSampled is the scaled-up sweep: a workload
// several times the exhaustive one's write volume, sampled at a prime
// stride so successive runs of the suite still cover diverse torn-frame
// positions, with segment rotation and auto-checkpoints in play.
func TestCrashSweepLargeWorkloadSampled(t *testing.T) {
	stride := int64(97)
	if testing.Short() {
		stride = 397
	}
	crashSweep(t, RTree3D, SyncAlways, true, 2500, stride, 18, 10, 50)
}

// TestRecoverDuringLiveQueries runs Recover repeatedly while query
// goroutines hammer the DB — the -race gate for the rebuild path's lock
// discipline. Every query must come back correct or not at all.
func TestRecoverDuringLiveQueries(t *testing.T) {
	testutil.CheckGoroutines(t)
	rng := rand.New(rand.NewSource(16))
	trajs := fleet(rng, 30, 20)
	db, err := NewDB(TBTree, trajs)
	if err != nil {
		t.Fatal(err)
	}
	q := trajs[1].Clone()
	q.ID = 0
	req := Request{Q: &q, Interval: Interval{T1: 2, T2: 8}, K: 3}
	ctx := context.Background()
	want, err := db.Query(ctx, req)
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := db.Query(ctx, req)
				if err != nil {
					t.Errorf("query during recover: %v", err)
					return
				}
				if !reflect.DeepEqual(resp.Results, want.Results) {
					t.Errorf("query during recover changed results")
					return
				}
			}
		}()
	}
	for i := 0; i < 25; i++ {
		if err := db.Recover(); err != nil {
			t.Errorf("recover %d: %v", i, err)
			break
		}
	}
	close(stop)
	wg.Wait()
}

// walCounters reads the four WAL metrics from the process registry.
func walCounters() [4]uint64 {
	return [4]uint64{
		obs.Default.Counter("wal.appends").Load(),
		obs.Default.Counter("wal.fsyncs").Load(),
		obs.Default.Counter("wal.replayed").Load(),
		obs.Default.Counter("wal.truncations").Load(),
	}
}

// TestWALMetricsZeroCostWhenOff is the durability analogue of
// TestQueryNoAllocRegression: an in-memory DB's mutation path must never
// touch the WAL subsystem, so none of the wal.* counters may move.
func TestWALMetricsZeroCostWhenOff(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	before := walCounters()
	db, err := NewDB(RTree3D, fleet(rng, 10, 8))
	if err != nil {
		t.Fatal(err)
	}
	for id := ID(1); id <= 10; id++ {
		if err := db.AppendSample(id, Sample{X: 1, Y: 1, T: 100 + float64(id)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if after := walCounters(); after != before {
		t.Fatalf("in-memory mutations moved wal.* counters: %v -> %v", before, after)
	}
}

// TestWALMetricsMoveWhenDurable: the same counters must account for a
// durable DB's journaling, replay, and truncation activity.
func TestWALMetricsMoveWhenDurable(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	dir := t.TempDir()
	before := walCounters()

	db, err := OpenDurable(dir, RTree3D, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	trajs := fleet(rng, 5, 6)
	for i := range trajs {
		if err := db.Add(trajs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	mid := walCounters()
	if mid[0] < before[0]+5 {
		t.Fatalf("wal.appends did not account for 5 journaled Adds: %v -> %v", before, mid)
	}
	if mid[1] <= before[1] {
		t.Fatalf("wal.fsyncs did not move under SyncAlways: %v -> %v", before, mid)
	}

	re, err := OpenDurable(dir, RTree3D, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := walCounters(); got[2] < mid[2]+5 {
		t.Fatalf("wal.replayed did not account for recovery: %v -> %v", mid, got)
	}
	if err := re.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := walCounters(); got[3] <= mid[3] {
		t.Fatalf("wal.truncations did not move on checkpoint: %v -> %v", mid, got)
	}
	re.Close()
}
