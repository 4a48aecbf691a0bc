package storage

import (
	"bytes"
	"errors"
	"hash/crc32"
	"testing"
)

// fillFile builds a File with n distinct pages.
func fillFile(t *testing.T, n, pageSize int) *File {
	t.Helper()
	f := NewFile(pageSize)
	page := make([]byte, pageSize)
	for i := 0; i < n; i++ {
		id, err := f.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		for j := range page {
			page[j] = byte(i + j)
		}
		if err := f.Write(id, page); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

// Deterministic faults default to failing exactly once: the N-th read
// fails, every other read succeeds.
func TestFaultyPagerFailsOnce(t *testing.T) {
	f := fillFile(t, 4, 128)
	fp := &FaultyPager{Inner: f, FailReadAt: 2}

	if _, err := fp.Read(0); err != nil {
		t.Fatalf("read 1: %v", err)
	}
	if _, err := fp.Read(0); !errors.Is(err, ErrInjected) {
		t.Fatalf("read 2: got %v, want ErrInjected", err)
	}
	for i := 0; i < 5; i++ {
		if _, err := fp.Read(PageID(i % 4)); err != nil {
			t.Fatalf("read after fault: %v", err)
		}
	}
}

// With Permanent set, every read from the N-th onward fails.
func TestFaultyPagerPermanent(t *testing.T) {
	f := fillFile(t, 4, 128)
	fp := &FaultyPager{Inner: f, FailReadAt: 3, Permanent: true}

	for i := 0; i < 2; i++ {
		if _, err := fp.Read(0); err != nil {
			t.Fatalf("read %d: %v", i+1, err)
		}
	}
	for i := 0; i < 5; i++ {
		if _, err := fp.Read(0); !errors.Is(err, ErrInjected) {
			t.Fatalf("read %d: got %v, want ErrInjected", i+3, err)
		}
	}
}

// The probabilistic fault stream is a pure function of the seed.
func TestFaultyPagerSeededDeterminism(t *testing.T) {
	outcomes := func(seed int64) []bool {
		f := fillFile(t, 8, 128)
		fp := &FaultyPager{Inner: f, Seed: seed, ReadFaultRate: 0.3, Transient: true}
		var out []bool
		for i := 0; i < 200; i++ {
			_, err := fp.Read(PageID(i % 8))
			out = append(out, err != nil)
		}
		return out
	}
	a, b := outcomes(7), outcomes(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("read %d: same seed diverged", i)
		}
	}
	c := outcomes(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical fault streams")
	}
}

// Transient probabilistic faults wrap both sentinels and heal on retry;
// non-transient faults kill the page permanently.
func TestFaultyPagerTransientVsDead(t *testing.T) {
	f := fillFile(t, 2, 128)
	fp := &FaultyPager{Inner: f, Seed: 1, ReadFaultRate: 0.5, Transient: true}
	sawFault, sawHeal := false, false
	for i := 0; i < 100; i++ {
		_, err := fp.Read(0)
		if err == nil {
			if sawFault {
				sawHeal = true
			}
			continue
		}
		if !errors.Is(err, ErrTransient) || !errors.Is(err, ErrInjected) {
			t.Fatalf("transient fault %v must wrap ErrTransient and ErrInjected", err)
		}
		sawFault = true
	}
	if !sawFault || !sawHeal {
		t.Fatalf("expected both faults and recoveries at rate 0.5 (fault=%v heal=%v)", sawFault, sawHeal)
	}

	fp = &FaultyPager{Inner: f, Seed: 1, ReadFaultRate: 0.5}
	var deadPage = PageID(NilPage)
	for i := 0; i < 100 && deadPage == NilPage; i++ {
		if _, err := fp.Read(0); err != nil {
			deadPage = 0
		}
	}
	if deadPage == NilPage {
		t.Fatal("no fault in 100 reads at rate 0.5")
	}
	for i := 0; i < 10; i++ {
		if _, err := fp.Read(deadPage); !errors.Is(err, ErrInjected) {
			t.Fatalf("dead page read %d: got %v, want ErrInjected", i, err)
		}
	}
}

// Bit flips corrupt the returned copy, never the stored page, and the
// inner pager's checksum (forwarded through the FaultyPager) exposes them.
func TestFaultyPagerBitFlip(t *testing.T) {
	f := fillFile(t, 1, 128)
	want, err := f.Read(0)
	if err != nil {
		t.Fatal(err)
	}
	orig := append([]byte(nil), want...)

	fp := &FaultyPager{Inner: f, Seed: 3, BitFlipRate: 1}
	got, err := fp.Read(0)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, orig) {
		t.Fatal("BitFlipRate=1 returned an unmodified page")
	}
	diff := 0
	for i := range got {
		diff += popcount8(got[i] ^ orig[i])
	}
	if diff != 1 {
		t.Fatalf("expected exactly one flipped bit, found %d", diff)
	}

	// The stored page is untouched.
	again, err := f.Read(0)
	if err != nil {
		t.Fatalf("underlying page damaged: %v", err)
	}
	if !bytes.Equal(again, orig) {
		t.Fatal("bit flip leaked into the stored page")
	}

	// The forwarded authoritative checksum catches the flip.
	ck, ok := Checksummer(fp).PageChecksum(0)
	if !ok {
		t.Fatal("FaultyPager over File must forward PageChecksum")
	}
	if crc32.ChecksumIEEE(got) == ck {
		t.Fatal("flipped payload passed checksum verification")
	}
	if crc32.ChecksumIEEE(orig) != ck {
		t.Fatal("clean payload failed checksum verification")
	}
}

// A buffer pool above a transient FaultyPager heals faults via bounded
// retry; the retry count is reported in Stats.
func TestBufferPoolRetriesTransientFaults(t *testing.T) {
	f := fillFile(t, 8, 128)
	fp := &FaultyPager{Inner: f, Seed: 11, ReadFaultRate: 0.3, Transient: true}
	bp := NewStripedPool(fp, 2, 1)

	healed := 0
	for i := 0; i < 200; i++ {
		id := PageID(i % 8)
		got, err := bp.Read(id)
		if err != nil {
			// All retry attempts can fault (p ≈ 0.3⁴ per read); the failure
			// must then be the typed transient error, never a wrong payload.
			if !errors.Is(err, ErrTransient) {
				t.Fatalf("read %d: got %v, want ErrTransient", i, err)
			}
			continue
		}
		healed++
		want, _ := f.Read(id)
		if !bytes.Equal(got, want) {
			t.Fatalf("read %d: wrong payload", i)
		}
	}
	if healed < 150 {
		t.Fatalf("only %d/200 reads healed; retry is not working", healed)
	}
	if bp.Stats().Retries == 0 {
		t.Fatal("expected retries at 30% transient fault rate")
	}
}

// A buffer pool above a bit-flipping pager detects every flip via the
// authoritative checksum and re-reads until it gets a clean copy.
func TestBufferPoolHealsBitFlips(t *testing.T) {
	f := fillFile(t, 8, 128)
	fp := &FaultyPager{Inner: f, Seed: 13, BitFlipRate: 0.3}
	bp := NewStripedPool(fp, 2, 1)

	for i := 0; i < 200; i++ {
		id := PageID(i % 8)
		got, err := bp.Read(id)
		if err != nil {
			// At a 30% flip rate, four consecutive flips of one read are
			// possible but the error must be typed, never a wrong payload.
			var pc ErrPageCorrupt
			if !errors.As(err, &pc) || pc.Page != id {
				t.Fatalf("read %d: got %v, want ErrPageCorrupt{%d}", i, err, id)
			}
			continue
		}
		want, _ := f.Read(id)
		if !bytes.Equal(got, want) {
			t.Fatalf("read %d: corrupted payload served as clean", i)
		}
	}
}

// CorruptPage damages the stored page in place; Read must detect it.
func TestFileCorruptPageDetected(t *testing.T) {
	f := fillFile(t, 3, 128)
	if err := f.CorruptPage(1, 17); err != nil {
		t.Fatal(err)
	}

	if _, err := f.Read(0); err != nil {
		t.Fatalf("undamaged page: %v", err)
	}
	_, err := f.Read(1)
	var pc ErrPageCorrupt
	if !errors.As(err, &pc) {
		t.Fatalf("got %v, want ErrPageCorrupt", err)
	}
	if pc.Page != 1 {
		t.Fatalf("ErrPageCorrupt.Page = %d, want 1", pc.Page)
	}
	if !errors.Is(err, ErrPageCorrupt{}) {
		t.Fatal("errors.Is against the zero ErrPageCorrupt must match any instance")
	}

	// In-place corruption is permanent: the buffer pool's retries cannot
	// heal it and must give up with the typed error.
	bp := NewStripedPool(f, 2, 1)
	if _, err := bp.Read(1); !errors.Is(err, ErrPageCorrupt{}) {
		t.Fatalf("buffer pool: got %v, want ErrPageCorrupt", err)
	}
}

func popcount8(b byte) int {
	n := 0
	for ; b != 0; b &= b - 1 {
		n++
	}
	return n
}
