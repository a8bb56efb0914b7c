package ddsketch

import (
	"math"
	"testing"

	"repro/internal/invariant"
)

// allocInputs returns a deterministic pseudo-random batch in [1, 1000):
// positive so every value is indexable, varied so the store sees a
// realistic index range.
func allocInputs(n int) []float64 {
	xs := make([]float64, n)
	state := uint64(0x9e3779b97f4a7c15)
	for i := range xs {
		state = state*6364136223846793005 + 1442695040888963407
		xs[i] = 1 + float64(state>>11)/float64(1<<53)*999
	}
	return xs
}

// TestMappingIndexAllocs pins the //sketch:hotpath contract on the
// mapping index functions: zero allocations per call. Boxing the
// receiver or a math call that escapes would show up here immediately.
func TestMappingIndexAllocs(t *testing.T) {
	xs := allocInputs(1024)
	exact, err := NewMapping(0.01)
	if err != nil {
		t.Fatal(err)
	}
	cubic, err := NewCubicMapping(0.01)
	if err != nil {
		t.Fatal(err)
	}
	linear, err := NewLinearMapping(0.01)
	if err != nil {
		t.Fatal(err)
	}
	sink := 0
	for name, index := range map[string]func(float64) int{
		"logarithmic": exact.Index,
		"cubic":       cubic.Index,
		"linear":      linear.Index,
	} {
		avg := testing.AllocsPerRun(100, func() {
			for _, x := range xs {
				sink += index(x)
			}
		})
		if avg > 0 {
			t.Errorf("%s Index allocates %.1f times per 1024 calls, want 0", name, avg)
		}
	}
	_ = sink
}

// TestDenseStoreAddOnesAllocs pins the bulk-increment path: once the
// backing array spans the batch's index range, AddOnes must be pure
// array arithmetic.
func TestDenseStoreAddOnesAllocs(t *testing.T) {
	m, err := NewMapping(0.01)
	if err != nil {
		t.Fatal(err)
	}
	idx := make([]int, 0, 1024)
	for _, x := range allocInputs(1024) {
		idx = append(idx, m.Index(x))
	}
	s := NewDenseStore()
	s.AddOnes(idx) // warm: grows the array to the index span
	avg := testing.AllocsPerRun(100, func() { s.AddOnes(idx) })
	if avg > 0 {
		t.Errorf("DenseStore.AddOnes allocates %.1f times per batch, want 0", avg)
	}
}

// TestPaginatedStoreAddOnesAllocs pins the buffered-paginated bulk path:
// once the page table spans the batch's index range, AddOnes must be
// pure shift-mask-increment arithmetic.
func TestPaginatedStoreAddOnesAllocs(t *testing.T) {
	m, err := NewMapping(0.01)
	if err != nil {
		t.Fatal(err)
	}
	idx := make([]int, 0, 1024)
	for _, x := range allocInputs(1024) {
		idx = append(idx, m.Index(x))
	}
	s := NewBufferedPaginatedStore()
	s.AddOnes(idx) // warm: allocates the touched pages
	avg := testing.AllocsPerRun(100, func() { s.AddOnes(idx) })
	if avg > 0 {
		t.Errorf("BufferedPaginatedStore.AddOnes allocates %.1f times per batch, want 0", avg)
	}
}

// TestPaginatedStoreAddAllocs pins the buffered single-insert path: with
// the buffer at capacity and the working pages allocated, a
// buffer-append plus periodic flush must not allocate.
func TestPaginatedStoreAddAllocs(t *testing.T) {
	m, err := NewMapping(0.01)
	if err != nil {
		t.Fatal(err)
	}
	idx := make([]int, 0, 1024)
	for _, x := range allocInputs(1024) {
		idx = append(idx, m.Index(x))
	}
	s := NewBufferedPaginatedStore()
	for _, i := range idx {
		s.Add(i, 1) // warm: pages allocated, buffer at capacity
	}
	avg := testing.AllocsPerRun(100, func() {
		for _, i := range idx {
			s.Add(i, 1)
		}
	})
	if avg > 0 {
		t.Errorf("BufferedPaginatedStore.Add allocates %.1f times per 1024 inserts, want 0", avg)
	}
}

// TestInsertBatchAllocs pins the sketch-level batch kernel: after the
// scratch slices and the stores have grown to the working range, a
// 1024-value batch must not allocate. One interface box per value
// would read as ~1024 here. Covered for both the dense default and the
// buffered-paginated store.
func TestInsertBatchAllocs(t *testing.T) {
	xs := allocInputs(1024)
	for name, s := range map[string]*Sketch{
		"dense":     New(0.01),
		"paginated": NewPaginated(0.01),
	} {
		for i := 0; i < 8; i++ {
			s.InsertBatch(xs) // warm scratch and store capacity
		}
		avg := testing.AllocsPerRun(100, func() { s.InsertBatch(xs) })
		if avg > 0 {
			t.Errorf("InsertBatch(%s) allocates %.1f times per 1024-value batch, want 0", name, avg)
		}
	}
}

// paretoPane returns a sketch filled with Pareto(1, 1.2) values, one in
// eight negated, so both of its stores span a few hundred buckets: the
// shape of a sliding-window pane.
func paretoPane(t testing.TB, mk func(float64) *Sketch) *Sketch {
	pane := mk(0.01)
	state := uint64(0x2545f4914f6cdd1d)
	for i := 0; i < 20000; i++ {
		state = state*6364136223846793005 + 1442695040888963407
		u := (float64(state>>11) + 1) / (1 << 53)
		x := math.Pow(u, -1/1.2)
		if i%8 == 0 {
			x = -x
		}
		pane.Insert(x)
	}
	for _, st := range []Store{pane.positive, pane.negative} {
		if span := st.MaxIndex() - st.MinIndex() + 1; span < 300 {
			t.Fatalf("pane store spans %d buckets, want at least 300", span)
		}
	}
	return pane
}

// TestMergeFreshAllocs pins the dense store's bulk merge: merging a pane
// into a fresh sketch, plainly or scaled, allocates one array per
// non-empty store. One Add per bucket would re-allocate the array at
// every 64-bucket chunk, about ten times per store here.
func TestMergeFreshAllocs(t *testing.T) {
	if invariant.Enabled {
		t.Skip("the armed build's merge assertions allocate")
	}
	pane := paretoPane(t, New)
	const runs = 50
	for name, merge := range map[string]func(dst *Sketch) error{
		"Merge":       func(dst *Sketch) error { return dst.Merge(pane) },
		"MergeScaled": func(dst *Sketch) error { return dst.MergeScaled(pane, 0.5) },
	} {
		dsts := make([]*Sketch, runs+1) // AllocsPerRun adds one warm-up call
		for i := range dsts {
			dsts[i] = New(0.01)
		}
		next := 0
		avg := testing.AllocsPerRun(runs, func() {
			if err := merge(dsts[next]); err != nil {
				t.Fatal(err)
			}
			next++
		})
		if avg > 2 {
			t.Errorf("%s of a pane into a fresh sketch allocates %.1f times, want at most 2 (one array per store)", name, avg)
		}
	}
}
