package mstsearch

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mstsearch/internal/gstd"
	"mstsearch/internal/index"
	"mstsearch/internal/rtree"
	"mstsearch/internal/storage"
)

// TestIndexPagesGolden is the page-layout gate: for every index kind it
// builds one fixed-seed GSTD fleet through DB.Add, extends the MBB kinds
// with interleaved AppendSample calls, and records the tree's root
// metadata, its page count and a SHA-256 over every page in order. One
// more leg records rtree.BulkLoad over the same segments. A refactor of the
// trees must leave testdata/pages.golden byte for byte unchanged; a change
// to an insertion, split or codec rule shows here as a changed digest.
//
// After an intentional layout change, regenerate the golden file and
// commit it alongside the change:
//
//	UPDATE_PAGES=1 go test -run TestIndexPagesGolden .
func TestIndexPagesGolden(t *testing.T) {
	fleet := gstd.Generate(gstd.Config{NumObjects: 150, SamplesPerObject: 61, Seed: 28}).Trajs
	var b strings.Builder
	for _, kind := range IndexKinds() {
		db := Open(kind)
		for i := range fleet {
			if err := db.Add(fleet[i].Clone()); err != nil {
				t.Fatalf("%s: add %d: %v", kind, fleet[i].ID, err)
			}
		}
		if !kind.Metric() {
			// Round-robin appends, as live position updates would arrive.
			rng := rand.New(rand.NewSource(29))
			for step := 0; step < 12; step++ {
				for i := range fleet {
					tr := db.trajs[db.byID[fleet[i].ID]]
					last := tr.Samples[len(tr.Samples)-1]
					s := Sample{X: last.X + rng.NormFloat64()*0.01, Y: last.Y + rng.NormFloat64()*0.01, T: last.T + 0.01}
					if err := db.AppendSample(tr.ID, s); err != nil {
						t.Fatalf("%s: append to %d: %v", kind, tr.ID, err)
					}
				}
			}
		}
		m := db.indexMeta()
		writePagesLine(t, &b, kind.String(), m.Root, m.Height, m.Nodes, db.file)
	}

	var entries []index.LeafEntry
	for i := range fleet {
		tr := &fleet[i]
		for s := 0; s < tr.NumSegments(); s++ {
			entries = append(entries, index.LeafEntry{TrajID: tr.ID, SeqNo: uint32(s), Seg: tr.Segment(s)})
		}
	}
	file := storage.NewFile(storage.DefaultPageSize)
	bulk, err := rtree.BulkLoad(file, entries)
	if err != nil {
		t.Fatal(err)
	}
	m := bulk.Meta()
	writePagesLine(t, &b, "3D R-tree bulk load", m.Root, m.Height, m.Nodes, file)

	got := b.String()
	path := filepath.Join("testdata", "pages.golden")
	if os.Getenv("UPDATE_PAGES") != "" {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run UPDATE_PAGES=1 go test -run TestIndexPagesGolden .): %v", err)
	}
	if got != string(want) {
		t.Errorf("index pages drifted from %s.\n"+
			"If the change is intentional, regenerate with UPDATE_PAGES=1 go test -run TestIndexPagesGolden .\n%s",
			path, surfaceDiff(string(want), got))
	}
}

// writePagesLine appends one golden line: the leg's name, its root
// metadata, the page count and the SHA-256 of all pages in page order.
func writePagesLine(t *testing.T, b *strings.Builder, name string, root storage.PageID, height, nodes int, file *storage.File) {
	t.Helper()
	h := sha256.New()
	for i := 0; i < file.NumPages(); i++ {
		page, err := file.Read(storage.PageID(i))
		if err != nil {
			t.Fatalf("%s: read page %d: %v", name, i, err)
		}
		h.Write(page)
	}
	fmt.Fprintf(b, "%s: root=%d height=%d nodes=%d pages=%d sha256=%x\n",
		name, root, height, nodes, file.NumPages(), h.Sum(nil))
}
