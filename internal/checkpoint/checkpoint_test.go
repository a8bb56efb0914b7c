package checkpoint

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestEnvelopeRoundTrip(t *testing.T) {
	payload := []byte{0, 1, 2, 3, 254, 255}
	sealed, err := Seal("kll", payload)
	if err != nil {
		t.Fatal(err)
	}
	name, got, err := Open(sealed)
	if err != nil {
		t.Fatal(err)
	}
	if name != "kll" || !bytes.Equal(got, payload) {
		t.Fatalf("got (%q, %v), want (kll, %v)", name, got, payload)
	}

	// Empty payloads are legal (an empty sketch's state can be tiny).
	sealed, err = Seal("engine-snapshot", nil)
	if err != nil {
		t.Fatal(err)
	}
	if name, got, err = Open(sealed); err != nil || name != "engine-snapshot" || len(got) != 0 {
		t.Fatalf("empty payload: got (%q, %v, %v)", name, got, err)
	}
}

func TestSealRejectsBadNames(t *testing.T) {
	if _, err := Seal("", []byte{1}); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := Seal(strings.Repeat("x", 256), []byte{1}); err == nil {
		t.Error("oversized name accepted")
	}
}

// TestEnvelopeCorruptionSweep is the containment guarantee: every
// truncation and every single-bit flip of a sealed envelope must be
// rejected with an error — never accepted, never a panic.
func TestEnvelopeCorruptionSweep(t *testing.T) {
	sealed, err := Seal("req", []byte("payload bytes that the checksum covers"))
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(sealed); n++ {
		if _, _, err := Open(sealed[:n]); err == nil {
			t.Fatalf("truncation to %d/%d bytes accepted", n, len(sealed))
		}
	}
	for i := 0; i < len(sealed); i++ {
		for bit := 0; bit < 8; bit++ {
			flipped := make([]byte, len(sealed))
			copy(flipped, sealed)
			flipped[i] ^= 1 << bit
			if _, _, err := Open(flipped); err == nil {
				t.Fatalf("bit flip at byte %d bit %d accepted", i, bit)
			}
		}
	}
}

func TestEnvelopeVersionGate(t *testing.T) {
	sealed, err := Seal("kll", []byte{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	sealed[4] = EnvelopeVersion + 1
	if _, _, err := Open(sealed); !errors.Is(err, ErrVersion) {
		t.Fatalf("got %v, want ErrVersion", err)
	}
}

// TestInspectDescribesDamage: Inspect must parse a structurally sound
// envelope whose checksum fails (payload bit flip) and report the
// damage, so `sketchtool checkpoint inspect` can describe bad files.
func TestInspectDescribesDamage(t *testing.T) {
	sealed, err := Seal("mrl", []byte("some payload"))
	if err != nil {
		t.Fatal(err)
	}
	info, err := Inspect(sealed)
	if err != nil {
		t.Fatal(err)
	}
	if info.Name != "mrl" || info.Version != EnvelopeVersion || !info.CRCValid || info.PayloadBytes != 12 {
		t.Fatalf("clean envelope described as %+v", info)
	}
	// Flip one payload bit (past the 11-byte header + 3-byte name):
	// the header still parses, only the checksum fails.
	sealed[15] ^= 0x01
	info, err = Inspect(sealed)
	if err != nil {
		t.Fatal(err)
	}
	if info.CRCValid {
		t.Error("Inspect reports a valid checksum on a flipped payload")
	}
	if _, _, err := Open(sealed); !errors.Is(err, ErrCorrupt) {
		t.Errorf("Open accepted what Inspect flagged: %v", err)
	}
}

func sampleSnapshot() *Snapshot {
	return &Snapshot{
		Seq:           3,
		SketchName:    "kll",
		Drawn:         12345,
		Watermark:     987654321,
		NextFire:      2,
		Generated:     12000,
		Accepted:      11500,
		DroppedLate:   400,
		RejectedInput: 100,
		LateWindows:   []int64{0, 1},
		LateDrops:     []int64{250, 150},
		InFlight: []Event{
			{Gen: 100, Arrival: 150, Value: 1.5, Partition: 0},
			{Gen: 101, Arrival: 140, Value: 2.5, Partition: 1},
		},
		Windows: []WindowSnap{
			{Index: 2, Accepted: 500, HasValues: true, Values: []float64{1, 2, 3},
				Partials: [][]byte{[]byte("blob-a"), nil}},
			{Index: 3, Accepted: 10, Partials: [][]byte{nil, []byte("blob-b")}},
		},
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	want := sampleSnapshot()
	data, err := EncodeSnapshot(want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, want)
	}
}

// TestEncodeSnapshotAllocs pins the presized encoder: with every
// section present (values, partials, a pane trailer and the shed
// extension), the record is sized exactly — the envelope has no spare
// capacity — and encoding allocates once.
func TestEncodeSnapshotAllocs(t *testing.T) {
	snap := sampleSnapshot()
	snap.ShedBudget = 7
	snap.Panes = []PaneSnap{
		{Index: 0, Accepted: 4, HasValues: true, Values: []float64{1, 2}, Sketch: []byte("pane-0")},
		{Index: 1, Accepted: 0},
	}
	data, err := EncodeSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	if cap(data) != len(data) {
		t.Errorf("snapshot envelope has capacity %d for %d bytes, want an exact fit", cap(data), len(data))
	}
	got, err := DecodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, snap) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, snap)
	}
	if avg := testing.AllocsPerRun(50, func() { _, _ = EncodeSnapshot(snap) }); avg != 1 {
		t.Errorf("EncodeSnapshot allocates %.1f times, want 1", avg)
	}
}

// TestSnapshotCorruptionContained mirrors the envelope sweep at the
// snapshot level: damage anywhere must produce an error, not a panic
// or a silently wrong snapshot.
func TestSnapshotCorruptionContained(t *testing.T) {
	data, err := EncodeSnapshot(sampleSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(data); n++ {
		if _, err := DecodeSnapshot(data[:n]); err == nil {
			t.Fatalf("truncation to %d bytes decoded", n)
		}
	}
	for i := 0; i < len(data); i++ {
		flipped := make([]byte, len(data))
		copy(flipped, data)
		flipped[i] ^= 0x10
		if _, err := DecodeSnapshot(flipped); err == nil {
			t.Fatalf("bit flip at byte %d decoded", i)
		}
	}
	// A valid envelope that is not an engine snapshot must be refused.
	other, err := Seal("kll", []byte{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeSnapshot(other); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("foreign envelope decoded as snapshot: %v", err)
	}
}

func TestMemStore(t *testing.T) {
	testStore(t, NewMemStore())
}

// TestMemStorePutAllocs pins the Put ownership contract: MemStore keeps
// the caller's slice instead of copying it, so a Put that replaces an
// existing key allocates nothing, while Get still returns a copy the
// caller may modify.
func TestMemStorePutAllocs(t *testing.T) {
	store := NewMemStore()
	data := bytes.Repeat([]byte{7}, 4096)
	if err := store.Put(1, data); err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(100, func() { _ = store.Put(1, data) }); avg != 0 {
		t.Errorf("MemStore.Put allocates %.1f times, want 0", avg)
	}
	got, err := store.Get(1)
	if err != nil {
		t.Fatal(err)
	}
	got[0] = 9
	if again, _ := store.Get(1); again[0] != 7 {
		t.Errorf("modifying Get's result changed the stored snapshot")
	}
}

func TestDirStore(t *testing.T) {
	store, err := NewDirStore(filepath.Join(t.TempDir(), "ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	testStore(t, store)
}

func testStore(t *testing.T, store Store) {
	t.Helper()
	if _, err := store.Get(1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get on empty store: %v, want ErrNotFound", err)
	}
	for seq, data := range map[uint64][]byte{3: {3, 3}, 1: {1}, 2: {2, 2, 2}} {
		if err := store.Put(seq, data); err != nil {
			t.Fatal(err)
		}
	}
	seqs, err := store.Seqs()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seqs, []uint64{1, 2, 3}) {
		t.Fatalf("Seqs() = %v, want ascending [1 2 3]", seqs)
	}
	got, err := store.Get(2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte{2, 2, 2}) {
		t.Fatalf("Get(2) = %v", got)
	}
	// Put replaces.
	if err := store.Put(2, []byte{9}); err != nil {
		t.Fatal(err)
	}
	if got, _ = store.Get(2); !bytes.Equal(got, []byte{9}) {
		t.Fatalf("Get(2) after replace = %v", got)
	}
}

// TestDirStoreIgnoresForeignFiles: a checkpoint directory may hold temp
// files from interrupted writes and unrelated files; Seqs must skip
// them.
func TestDirStoreIgnoresForeignFiles(t *testing.T) {
	dir := t.TempDir()
	store, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Put(7, []byte{7}); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"snap-zzzz.qckp", "snap-0abc.tmp", "README"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	seqs, err := store.Seqs()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seqs, []uint64{7}) {
		t.Fatalf("Seqs() = %v, want [7]", seqs)
	}
}

// TestLatestValidFallback: the newest snapshot is corrupt, so recovery
// must fall back to the newest VALID one and report the skip count.
func TestLatestValidFallback(t *testing.T) {
	store := NewMemStore()
	for seq := uint64(1); seq <= 3; seq++ {
		snap := sampleSnapshot()
		snap.Seq = seq
		data, err := EncodeSnapshot(snap)
		if err != nil {
			t.Fatal(err)
		}
		if seq == 3 {
			data = data[:len(data)/2]
		}
		if err := store.Put(seq, data); err != nil {
			t.Fatal(err)
		}
	}
	snap, seq, skipped, err := LatestValid(store)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 2 || snap.Seq != 2 || skipped != 1 {
		t.Fatalf("got seq=%d snap.Seq=%d skipped=%d, want 2/2/1", seq, snap.Seq, skipped)
	}

	// All corrupt: clean error wrapping ErrNoSnapshot.
	bad := NewMemStore()
	_ = bad.Put(1, []byte("junk"))
	if _, _, _, err := LatestValid(bad); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("got %v, want ErrNoSnapshot", err)
	}
	// Empty store: same contract.
	if _, _, _, err := LatestValid(NewMemStore()); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("empty store: got %v, want ErrNoSnapshot", err)
	}
}
