package req

import "testing"

// TestInsertAllocs pins the //sketch:hotpath contract on Insert: at
// steady state a 1024-value batch of scalar inserts allocates
// (amortized) nothing — compaction reuses its buffers. Interface boxing
// on the insert path would read as ~1024 allocations per batch; the
// bound of 4 leaves headroom only for a rare compactor-growth
// reallocation.
func TestInsertAllocs(t *testing.T) {
	s := New(12, false)
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
		insert() // warm: grow compactors past the measured window
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
	s := New(DefaultSectionSize, true)
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
