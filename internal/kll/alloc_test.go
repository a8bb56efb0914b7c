package kll

import (
	"testing"

	"repro/internal/obs"
)

// TestInsertAllocs pins the //sketch:hotpath contract on Insert: once
// the compactor levels have grown to the working size, a 1024-value
// batch of scalar inserts allocates (amortized) nothing — compaction
// reuses its buffers. Interface boxing on the insert path would read as
// ~1024 allocations per batch here; the bound of 4 leaves headroom only
// for a rare level-growth reallocation.
func TestInsertAllocs(t *testing.T) {
	s := New(200)
	xs := make([]float64, 1024)
	state := uint64(0x9e3779b97f4a7c15)
	for i := range xs {
		state = state*6364136223846793005 + 1442695040888963407
		xs[i] = 1 + float64(state>>11)/float64(1<<53)*999
	}
	insert := func() {
		for _, x := range xs {
			s.Insert(x)
		}
	}
	for i := 0; i < 200; i++ {
		insert() // warm: grow levels past the measured window
	}
	avg := testing.AllocsPerRun(200, insert)
	if avg > 4 {
		t.Errorf("Insert allocates %.2f times per 1024-value batch, want ~0 (boxing would be ~1024)", avg)
	}
}

// TestQuantileAllocs pins the query path: once warm, an Insert (which
// invalidates the sorted view) followed by queries over the study's
// 8-target grid allocates nothing, because the view rebuild reuses the
// previous epoch's capacity.
func TestQuantileAllocs(t *testing.T) {
	s := New(DefaultK)
	qs := []float64{0.05, 0.25, 0.5, 0.75, 0.9, 0.95, 0.98, 0.99}
	state := uint64(0x9e3779b97f4a7c15)
	next := func() float64 {
		state = state*6364136223846793005 + 1442695040888963407
		return 1 + float64(state>>11)/float64(1<<53)*999
	}
	query := func() {
		s.Insert(next())
		for _, q := range qs {
			if _, err := s.Quantile(q); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 100_000; i++ {
		s.Insert(next())
	}
	for i := 0; i < 100; i++ {
		query() // warm: grow the view's arrays to the working size
	}
	if avg := testing.AllocsPerRun(200, query); avg != 0 {
		t.Errorf("Insert + %d Quantile calls allocate %.2f times, want 0", len(qs), avg)
	}
}

// radixMin and radixMax copy the bounds of sketch.SortFloat32's radix
// class (internal/sketch/sort.go), the class whose scratch lives on the
// stack; TestCompactionAllocs aims its window at that class.
const radixMin, radixMax = 40, 512

// TestCompactionAllocs pins the //sketch:hotpath contract on the
// level-0 sort: once warm, scalar Insert at DefaultK, while level 0's
// capacity puts its sorts in the radix class, allocates nothing — the
// radix scratch stays on the stack. The window (five levels, level 0
// compacting at 70 items) sees 21 level-0 sorts and no height change.
func TestCompactionAllocs(t *testing.T) {
	s := New(DefaultK)
	state := uint64(0x9e3779b97f4a7c15)
	next := func() float64 {
		state = state*6364136223846793005 + 1442695040888963407
		return 1 + float64(state>>11)/float64(1<<53)*999
	}
	for s.NumLevels() < 5 {
		s.Insert(next())
	}
	for i := 0; i < 500; i++ {
		s.Insert(next()) // warm: grow level 0 and the levels above to their working size
	}
	if c := s.capacity(0); c < radixMin || c > radixMax {
		t.Fatalf("level-0 capacity %d is outside the radix class [%d, %d]", c, radixMin, radixMax)
	}
	// One run is one level-0 fill, so it holds one sort: AllocsPerRun
	// rounds its average down, and a per-value run would hide an
	// allocation per sort.
	fill := func() {
		for i := 0; i < s.capacity(0); i++ {
			s.Insert(next())
		}
	}
	if avg := testing.AllocsPerRun(20, fill); avg != 0 {
		t.Errorf("a level-0 fill (%d inserts, one radix sort) allocates %.0f times, want 0", s.capacity(0), avg)
	}
	if s.NumLevels() != 5 {
		t.Fatalf("the measured window grew the sketch to %d levels; move it", s.NumLevels())
	}
}

// TestInsertBatchAllocs pins the //sketch:hotpath contract on
// InsertBatch: on a warm sketch whose measured window grows no level, a
// batch — compactions and the level-0 radix sorts included — allocates
// nothing, with metrics off and on.
func TestInsertBatchAllocs(t *testing.T) {
	defer SetMetrics(nil)
	for _, m := range []*obs.SketchMetrics{nil, {}} {
		SetMetrics(m)
		s := New(DefaultK)
		state := uint64(0x9e3779b97f4a7c15)
		xs := make([]float64, 64)
		fill := func() {
			for i := range xs {
				state = state*6364136223846793005 + 1442695040888963407
				xs[i] = 1 + float64(state>>11)/float64(1<<53)*999
			}
		}
		for s.NumLevels() < 5 {
			fill()
			s.InsertBatch(xs)
		}
		for i := 0; i < 8; i++ {
			fill()
			s.InsertBatch(xs) // warm: grow level 0 and the levels above to their working size
		}
		batch := func() {
			fill()
			s.InsertBatch(xs)
		}
		if avg := testing.AllocsPerRun(10, batch); avg != 0 {
			t.Errorf("metrics %v: a %d-value InsertBatch allocates %.2f times, want 0", m != nil, len(xs), avg)
		}
		if s.NumLevels() != 5 {
			t.Fatalf("the measured window grew the sketch to %d levels; move it", s.NumLevels())
		}
	}
}
