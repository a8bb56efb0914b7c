package kll

import (
	"math/rand/v2"
	"testing"

	"repro/internal/obs"
)

// TestPeakBytesGauge checks the peak-bytes gauge, which compress now
// records only after a capacity-schedule rebuild, against the reference
// that walks MemoryBytes after every compaction cascade, over a 3M-value
// stream with height growth, Merges that adopt a smaller k (one into an
// empty sketch, which compacts nothing), and a Degrade. The merges and
// the Degrade each start a fresh gauge, so their own records are the
// only ones there and a missed record shows.
func TestPeakBytesGauge(t *testing.T) {
	defer SetMetrics(nil)
	var m *obs.SketchMetrics
	var ref int64
	fresh := func() {
		m = &obs.SketchMetrics{}
		SetMetrics(m)
		ref = 0
	}
	walk := func(s *Sketch) { ref = max(ref, int64(s.MemoryBytes())) }
	rng := rand.New(rand.NewPCG(1, 2))
	insert := func(s *Sketch, n int) {
		for range n {
			c := m.Compactions.Load()
			s.Insert(rng.ExpFloat64() * 100)
			if m.Compactions.Load() != c { // a cascade ran
				walk(s)
			}
		}
	}
	check := func(step string) {
		t.Helper()
		if got := m.PeakBytes.Load(); got != ref || ref == 0 {
			t.Fatalf("%s: peak-bytes gauge %d, walk-every-compress reference %d", step, got, ref)
		}
	}

	fresh()
	s := NewWithSeed(DefaultK, 1)
	insert(s, 1_000_000)
	check("stream")
	o := NewWithSeed(100, 2)
	insert(o, 200_000)
	check("merge operand")

	fresh()
	r := NewWithSeed(DefaultK, 3) // adopts o's k and levels: no compaction, no height change
	if err := r.Merge(o); err != nil {
		t.Fatal(err)
	}
	walk(r)
	check("merge with smaller k into an empty sketch")
	if err := s.Merge(o); err != nil {
		t.Fatal(err)
	}
	walk(s)
	check("merge with smaller k")
	insert(s, 1_000_000)
	check("stream after merge")

	fresh()
	if _, err := s.Degrade(); err != nil {
		t.Fatal(err)
	}
	walk(s)
	check("degrade")
	insert(s, 800_000)
	check("stream after degrade")
}
