package mstsearch

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"mstsearch/internal/storage"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	trajs := fleet(rng, 20, 40)
	dir := t.TempDir()
	for _, kind := range IndexKinds() {
		db, err := NewDB(kind, trajs)
		if err != nil {
			t.Fatal(err)
		}
		q := trajs[6].Clone()
		q.ID = 0
		resp, err := db.Query(context.Background(), Request{Q: &q, Interval: Interval{0, 10}, K: 3})
		if err != nil {
			t.Fatal(err)
		}
		want := resp.Results

		path := filepath.Join(dir, kind.String()+".mstdb")
		if err := db.Save(path); err != nil {
			t.Fatalf("%s: save: %v", kind, err)
		}
		got, err := Load(path)
		if err != nil {
			t.Fatalf("%s: load: %v", kind, err)
		}
		if got.Len() != db.Len() || got.NumSegments() != db.NumSegments() {
			t.Fatalf("%s: loaded store differs: %d/%d", kind, got.Len(), got.NumSegments())
		}
		if got.IndexSizeMB() != db.IndexSizeMB() {
			t.Fatalf("%s: loaded index size differs", kind)
		}
		resp, err = got.Query(context.Background(), Request{Q: &q, Interval: Interval{0, 10}, K: 3})
		if err != nil {
			t.Fatalf("%s: query after load: %v", kind, err)
		}
		res := resp.Results
		if len(res) != len(want) {
			t.Fatalf("%s: result count differs", kind)
		}
		for i := range want {
			if res[i].TrajID != want[i].TrajID || res[i].Dissim != want[i].Dissim {
				t.Fatalf("%s: rank %d differs after reload: %+v vs %+v",
					kind, i, res[i], want[i])
			}
		}
	}
}

func TestLoadedRTreeAcceptsInserts(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	trajs := fleet(rng, 10, 30)
	db, err := NewDB(RTree3D, trajs)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "db.mstdb")
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	extra := fleet(rng, 11, 30)[10]
	extra.ID = 99
	if err := got.Add(extra); err != nil {
		t.Fatalf("loaded R-tree DB must accept inserts: %v", err)
	}
	q := extra.Clone()
	q.ID = 0
	resp, err := got.Query(context.Background(), Request{Q: &q, Interval: Interval{0, 10}, K: 1})
	if err != nil {
		t.Fatal(err)
	}
	res := resp.Results
	if len(res) != 1 || res[0].TrajID != 99 {
		t.Fatalf("post-load insert not searchable: %+v", res)
	}
}

// TestSaveLoadRoundTripWritable saves and reloads a DB of every index
// kind, then runs the same Adds and AppendSamples on the loaded DB and on
// a twin that was never saved. Both must answer as the linear-scan oracle
// and pass their index's invariant walk, and the loaded DB must hold the
// twin's pages byte for byte: a reopened index is writable and writes what
// an uninterrupted one writes.
func TestSaveLoadRoundTripWritable(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	trajs := fleet(rng, 16, 90) // 89 segments: more than one TB leaf
	before := appendRounds(rng, trajs, 1, 3)
	after := fleet(rng, 5, 30)
	for i := range after {
		after[i].ID += 100
	}
	var ops []durableOp
	for i := range after {
		ops = append(ops, durableOp{add: true, tr: after[i]})
	}
	ops = append(ops, appendRounds(rng, trajs, 4, 9)...)

	for _, kind := range IndexKinds() {
		t.Run(kind.String(), func(t *testing.T) {
			twin, err := NewDB(kind, trajs)
			if err != nil {
				t.Fatal(err)
			}
			if !kind.Metric() {
				// Interleaved appends leave partly filled tail leaves.
				if _, err := issueOps(twin, before); err != nil {
					t.Fatal(err)
				}
			}
			path := filepath.Join(t.TempDir(), "db.mstdb")
			if err := twin.Save(path); err != nil {
				t.Fatal(err)
			}
			loaded, err := Load(path)
			if err != nil {
				t.Fatal(err)
			}
			for _, db := range []*DB{loaded, twin} {
				if _, err := issueOps(db, ops); err != nil {
					t.Fatalf("mutating a loaded %s: %v", kind, err)
				}
				checkMutatedDB(t, db)
			}
			sameIndexPages(t, loaded, twin)
		})
	}
}

// appendRounds scripts rounds first to last of round-robin AppendSamples,
// one sample per trajectory per round, as live position updates arrive.
// Round r samples trajs[i] at 0.1·r past its end.
func appendRounds(rng *rand.Rand, trajs []Trajectory, first, last int) []durableOp {
	var ops []durableOp
	for r := first; r <= last; r++ {
		for i := range trajs {
			end := trajs[i].Samples[len(trajs[i].Samples)-1]
			s := Sample{X: end.X + rng.NormFloat64(), Y: end.Y + rng.NormFloat64(), T: end.T + 0.1*float64(r)}
			ops = append(ops, durableOp{id: trajs[i].ID, s: s})
		}
	}
	return ops
}

// checkMutatedDB requires db to answer k-MST queries as the linear-scan
// oracle over its store and its index to pass its invariant walk.
func checkMutatedDB(t *testing.T, db *DB) {
	t.Helper()
	for _, i := range []int{0, len(db.trajs) / 2, len(db.trajs) - 1} {
		q := db.trajs[i].Clone()
		q.ID = 0
		resp, err := db.Query(context.Background(), Request{Q: &q, Interval: Interval{T1: 2, T2: 8}, K: 4})
		if err != nil {
			t.Fatal(err)
		}
		checkExactOracle(t, fmt.Sprintf("query like %d", db.trajs[i].ID), resp.Results, linearTopK(db.trajs, &q, 2, 8, 4))
	}
	switch e := db.eng.(type) {
	case *ntreeEngine:
		if err := e.t.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	case *mbbEngine:
		n, err := e.t.(interface{ CheckInvariants() (int, error) }).CheckInvariants()
		if err != nil {
			t.Fatal(err)
		}
		if n != db.numSegments() {
			t.Fatalf("index holds %d segments, store %d", n, db.numSegments())
		}
	}
}

// sameIndexPages fails the test unless got's index has want's root
// metadata and holds want's pages byte for byte.
func sameIndexPages(t *testing.T, got, want *DB) {
	t.Helper()
	if got.indexMeta() != want.indexMeta() {
		t.Fatalf("index meta %+v, twin %+v", got.indexMeta(), want.indexMeta())
	}
	if got.file.NumPages() != want.file.NumPages() {
		t.Fatalf("%d pages, twin %d", got.file.NumPages(), want.file.NumPages())
	}
	for id := storage.PageID(0); int(id) < want.file.NumPages(); id++ {
		a, errA := got.file.Read(id)
		b, errB := want.file.Read(id)
		if errA != nil || errB != nil || !bytes.Equal(a, b) {
			t.Fatalf("page %d differs from the twin (%v, %v)", id, errA, errB)
		}
	}
}

func TestLoadRejectsCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	trajs := fleet(rng, 5, 20)
	db, err := NewDB(RTree3D, trajs)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "db.mstdb")
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}

	// Flip one byte in the middle: CRC must catch it.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), raw...)
	bad[len(bad)/2] ^= 0xFF
	badPath := filepath.Join(dir, "bad.mstdb")
	if err := os.WriteFile(badPath, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(badPath); !errors.Is(err, ErrSnapshotCRC) && !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("corrupted snapshot: got %v", err)
	}

	// Truncated file.
	if err := os.WriteFile(badPath, raw[:len(raw)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(badPath); err == nil {
		t.Fatal("truncated snapshot must fail")
	}

	// Wrong magic.
	junk := append([]byte("NOTADB"), raw[6:]...)
	if err := os.WriteFile(badPath, junk, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(badPath); !errors.Is(err, ErrBadSnapshot) && !errors.Is(err, ErrSnapshotCRC) {
		t.Fatalf("junk magic: got %v", err)
	}

	// Missing file.
	if _, err := Load(filepath.Join(dir, "nope.mstdb")); err == nil {
		t.Fatal("missing file must fail")
	}
}

// snapshotFixture saves a small database and returns the raw snapshot.
func snapshotFixture(t *testing.T) []byte {
	t.Helper()
	rng := rand.New(rand.NewSource(27))
	trajs := fleet(rng, 3, 8)
	db, err := NewDB(RTree3D, trajs)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "db.mstdb")
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// loadBytes writes raw to a file and Loads it, converting any panic into
// a test failure: corrupt input must always come back as a typed error.
func loadBytes(t *testing.T, dir string, raw []byte) (err error) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("Load panicked on corrupt input: %v", r)
		}
	}()
	path := filepath.Join(dir, "cut.mstdb")
	if werr := os.WriteFile(path, raw, 0o644); werr != nil {
		t.Fatal(werr)
	}
	_, err = Load(path)
	return err
}

// typedSnapshotError reports whether err is one of Load's documented
// failure modes.
func typedSnapshotError(err error) bool {
	return errors.Is(err, ErrBadSnapshot) ||
		errors.Is(err, ErrSnapshotVersion) ||
		errors.Is(err, ErrSnapshotCRC)
}

// TestLoadTruncationEverywhere cuts the snapshot at every field boundary
// of the format — and at every byte of the header region for good
// measure. Each cut must yield a typed error, never a panic and never a
// silently partial database.
func TestLoadTruncationEverywhere(t *testing.T) {
	raw := snapshotFixture(t)
	dir := t.TempDir()

	cuts := map[int]bool{}
	// Every byte through the fixed header (magic, version, kind, index
	// metadata, vmax, page geometry) and a little beyond.
	for i := 0; i <= 64 && i < len(raw); i++ {
		cuts[i] = true
	}
	// Page boundaries and mid-page cuts.
	const hdr = 6 + 2 + 1 + 12 + 8 + 8 // magic..numPages
	for off := hdr; off < len(raw); off += 4096 {
		cuts[off] = true
		cuts[off+2048] = true
	}
	// The trailing CRC region and the byte before it.
	for i := 1; i <= 5; i++ {
		cuts[len(raw)-i] = true
	}

	for cut := range cuts {
		if cut >= len(raw) {
			continue
		}
		err := loadBytes(t, dir, raw[:cut])
		if err == nil {
			t.Fatalf("truncation at %d of %d loaded successfully", cut, len(raw))
		}
		if !typedSnapshotError(err) {
			t.Fatalf("truncation at %d: untyped error %v", cut, err)
		}
	}
}

// TestLoadFlippedByteAnywhere flips every single byte of the snapshot in
// turn: each corruption must surface as a typed error — the trailing CRC
// guarantees nothing slips through — and must never panic.
func TestLoadFlippedByteAnywhere(t *testing.T) {
	raw := snapshotFixture(t)
	dir := t.TempDir()

	bad := make([]byte, len(raw))
	for off := 0; off < len(raw); off++ {
		copy(bad, raw)
		bad[off] ^= 0xFF
		err := loadBytes(t, dir, bad)
		if err == nil {
			t.Fatalf("flipped byte at %d of %d loaded successfully", off, len(raw))
		}
		if !typedSnapshotError(err) {
			t.Fatalf("flipped byte at %d: untyped error %v", off, err)
		}
	}
}

func TestSaveIsAtomic(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	trajs := fleet(rng, 5, 20)
	db, err := NewDB(RTree3D, trajs)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "db.mstdb")
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	leftovers, err := filepath.Glob(filepath.Join(dir, "*.tmp-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(leftovers) != 0 {
		t.Fatalf("temp files must not survive a successful save: %v", leftovers)
	}
	// Saving over an existing snapshot works and stays loadable.
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err != nil {
		t.Fatal(err)
	}
}

func TestLoadRejectsFutureVersion(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	trajs := fleet(rng, 3, 10)
	db, err := NewDB(RTree3D, trajs)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "db.mstdb")
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Bump the version field (bytes 6-7, little endian) and fix the CRC by
	// not fixing it — either the version check or the CRC must reject it.
	raw[6] = 0xFF
	bad := filepath.Join(dir, "future.mstdb")
	if err := os.WriteFile(bad, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Load(bad)
	if !errors.Is(err, ErrSnapshotVersion) && !errors.Is(err, ErrSnapshotCRC) {
		t.Fatalf("future version: got %v", err)
	}
}

// patchSnapshot copies a snapshot with one byte rewritten and the
// trailing CRC recomputed, so the corruption reaches the semantic check
// it targets instead of stopping at the checksum gate.
func patchSnapshot(t *testing.T, src, dst string, off int64, b byte) {
	t.Helper()
	raw, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	raw[off] = b
	sum := crc32.ChecksumIEEE(raw[:len(raw)-4])
	binary.LittleEndian.PutUint32(raw[len(raw)-4:], sum)
	if err := os.WriteFile(dst, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestLoadVersionMismatchReachesCheck pins the typed error for a
// future-versioned snapshot whose checksum is valid: the version check
// itself must reject it, not the CRC gate.
func TestLoadVersionMismatchReachesCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	db, err := NewDB(RTree3D, fleet(rng, 3, 10))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "db.mstdb")
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	// Version is the u16 at bytes 6-7, after the 6-byte magic.
	bad := filepath.Join(dir, "future.mstdb")
	patchSnapshot(t, path, bad, 6, 99)
	if _, err := Load(bad); !errors.Is(err, ErrSnapshotVersion) {
		t.Fatalf("future version with valid CRC: got %v, want ErrSnapshotVersion", err)
	}
}

// TestLoadKindMismatchReachesCheck pins the typed error for a snapshot
// naming an index kind this build does not know, with a valid checksum.
func TestLoadKindMismatchReachesCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	db, err := NewDB(RTree3D, fleet(rng, 3, 10))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "db.mstdb")
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	// Kind is the u8 at byte 8, after magic and version.
	bad := filepath.Join(dir, "alien.mstdb")
	patchSnapshot(t, path, bad, 8, 9)
	_, err = Load(bad)
	if !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("unknown kind with valid CRC: got %v, want ErrBadSnapshot", err)
	}
	if errors.Is(err, ErrSnapshotCRC) {
		t.Fatalf("unknown kind must be caught before the CRC gate: %v", err)
	}
}

// TestSaveFailureLeavesNoTempFile forces the page-read path inside Save
// to fail and verifies the error-path contract: the temp file is gone,
// the original snapshot is untouched, and the first error is reported.
func TestSaveFailureLeavesNoTempFile(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	db, err := NewDB(RTree3D, fleet(rng, 4, 10))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "db.mstdb")
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	root := db.indexMeta().Root
	if err := db.file.CorruptPage(root, 3); err != nil {
		t.Fatal(err)
	}
	var pc ErrPageCorrupt
	if err := db.Save(path); !errors.As(err, &pc) {
		t.Fatalf("save over corrupt pages: got %v, want ErrPageCorrupt", err)
	}
	leftovers, err := filepath.Glob(filepath.Join(dir, "*.tmp-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(leftovers) != 0 {
		t.Fatalf("failed save left temp files: %v", leftovers)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != string(after) {
		t.Fatal("failed save modified the existing snapshot")
	}
}
