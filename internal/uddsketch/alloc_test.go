package uddsketch

import "testing"

// TestInsertBatchAllocs pins the //sketch:hotpath contract on the batch
// kernel: once the bucket map has absorbed the working index range, a
// 1024-value batch must not allocate. Interface boxing on the insert
// path would read as ~1024 allocations per batch; the bound of 4
// leaves headroom only for a rare map-growth reallocation.
func TestInsertBatchAllocs(t *testing.T) {
	s := New(0.01, 1024)
	xs := make([]float64, 1024)
	state := uint64(0x9e3779b97f4a7c15)
	for i := range xs {
		state = state*6364136223846793005 + 1442695040888963407
		xs[i] = 1 + float64(state>>11)/float64(1<<53)*999
	}
	for i := 0; i < 200; i++ {
		s.InsertBatch(xs) // warm: settle buckets and any collapses
	}
	avg := testing.AllocsPerRun(200, func() { s.InsertBatch(xs) })
	if avg > 4 {
		t.Errorf("InsertBatch allocates %.2f times per 1024-value batch, want ~0 (boxing would be ~1024)", avg)
	}
}

// TestCollapseAllocs pins the in-place uniform collapse: on a warm
// sketch — its maps already sized by an earlier collapse, the scratch
// pool primed — the insert that exceeds the bucket budget collapses
// without allocating. Each run takes a sketch prepared one new bucket
// short of a collapse and inserts that bucket's value.
func TestCollapseAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops pooled buffers at random")
	}
	const runs = 50
	type primed struct {
		s       *Sketch
		trigger float64
	}
	prep := func() primed {
		s := New(0.01, 64)
		for x := 1.0; ; x *= 1.003 {
			if s.Collapses() > 0 && s.NonEmptyBuckets() == s.MaxBuckets() {
				if _, ok := s.positive.(mapStore)[s.index(x)]; !ok {
					return primed{s, x}
				}
				continue
			}
			s.Insert(x)
		}
	}
	ps := make([]primed, runs+1) // AllocsPerRun adds one warm-up call
	for i := range ps {
		ps[i] = prep()
	}
	next := 0
	avg := testing.AllocsPerRun(runs, func() {
		p := ps[next]
		next++
		before := p.s.Collapses()
		p.s.Insert(p.trigger)
		if p.s.Collapses() != before+1 {
			t.Fatalf("trigger insert ran %d collapses, want 1", p.s.Collapses()-before)
		}
	})
	if avg != 0 {
		t.Errorf("an insert-triggered collapse allocates %.2f times, want 0", avg)
	}
}
