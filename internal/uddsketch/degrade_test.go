package uddsketch

import (
	"bytes"
	"errors"
	"math"
	"math/rand/v2"
	"runtime"
	"testing"

	"repro/internal/sketch"
)

// TestDegrade pins the sketch.Degrader contract for UDDSketch: Degrade
// is exactly one uniform collapse — the collapse counter advances, α
// deteriorates by the closed form, the count is conserved, and a
// degraded sketch still merges with an undegraded one (Merge aligns
// collapse counts), for both stores.
func TestDegrade(t *testing.T) {
	for _, kind := range storeKinds {
		t.Run(kind.name, func(t *testing.T) { testDegrade(t, kind.dense) })
	}
}

func testDegrade(t *testing.T, dense bool) {
	s := build(dense, 0.001, 1<<20) // huge budget: collapses only via Degrade
	rng := rand.New(rand.NewPCG(1, 2))
	const n = 50000
	for i := 0; i < n; i++ {
		s.Insert(rng.ExpFloat64() * 1000)
	}
	buckets := s.NonEmptyBuckets()
	alpha := s.Alpha()
	freed, err := s.Degrade()
	if err != nil {
		t.Fatalf("degrade: %v", err)
	}
	if freed <= 0 {
		t.Errorf("freed = %d, want > 0 (had %d buckets)", freed, buckets)
	}
	if s.Collapses() != 1 {
		t.Errorf("collapses = %d, want 1", s.Collapses())
	}
	wantAlpha := 2 * alpha / (1 + alpha*alpha)
	if s.Alpha() != wantAlpha || s.AccuracyBound() != wantAlpha {
		t.Errorf("alpha = %v (bound %v), want %v", s.Alpha(), s.AccuracyBound(), wantAlpha)
	}
	if s.Count() != n {
		t.Errorf("count = %d, want %d", s.Count(), n)
	}
	if nb := s.NonEmptyBuckets(); nb >= buckets {
		t.Errorf("buckets %d did not shrink from %d", nb, buckets)
	}

	fresh := build(dense, 0.001, 1<<20)
	for i := 0; i < 10000; i++ {
		fresh.Insert(rng.ExpFloat64() * 1000)
	}
	want := s.Count() + fresh.Count()
	if err := fresh.Merge(s); err != nil {
		t.Fatalf("fresh.Merge(degraded): %v", err)
	}
	if fresh.Count() != want || fresh.Collapses() != 1 {
		t.Errorf("merged count=%d collapses=%d, want count=%d collapses=1",
			fresh.Count(), fresh.Collapses(), want)
	}
}

// TestDegradeRefusesWhenTiny pins the floor: a near-empty sketch
// refuses to trade α for nothing.
func TestDegradeRefusesWhenTiny(t *testing.T) {
	s := New(0.01, 1024)
	s.Insert(1)
	s.Insert(2)
	if _, err := s.Degrade(); !errors.Is(err, sketch.ErrNotDegradable) {
		t.Errorf("Degrade on 2-bucket sketch = %v, want ErrNotDegradable", err)
	}
	if s.Collapses() != 0 {
		t.Errorf("refused Degrade must not collapse (got %d)", s.Collapses())
	}
}

// TestDegradeStopsBeforeAlphaSaturates pins the other floor: Degrade
// refuses the collapse that would round α to 1, even with buckets to
// spare, so a governor degrading in a loop stops at a guarantee.
func TestDegradeStopsBeforeAlphaSaturates(t *testing.T) {
	for _, kind := range storeKinds {
		t.Run(kind.name, func(t *testing.T) {
			s := build(kind.dense, 0.001, 1024)
			for _, x := range []float64{-1e6, -1, -1e-6, 1e-6, 1, 1e6} {
				s.Insert(x)
			}
			var err error
			for err == nil {
				_, err = s.Degrade()
			}
			if !errors.Is(err, sketch.ErrNotDegradable) {
				t.Fatalf("Degrade = %v, want ErrNotDegradable", err)
			}
			if !(s.Alpha() < 1) || s.NonEmptyBuckets() < 4 {
				t.Errorf("Degrade stopped at alpha %v with %d buckets, want alpha < 1 and >= 4 buckets", s.Alpha(), s.NonEmptyBuckets())
			}
		})
	}
}

// TestDegradeReleasesHeap pins Degrade's rebuild: unlike the budget
// collapse, which keeps each map's capacity for the refill, Degrade
// exists to hand memory back, so degrading many full sketches must
// lower the live heap after a GC. A Degrade that collapsed in place
// would keep every map at its full size and fail here.
func TestDegradeReleasesHeap(t *testing.T) {
	const sketches = 256
	base := liveHeap()
	ss := make([]*Sketch, sketches)
	rng := rand.New(rand.NewPCG(3, 4))
	for i := range ss {
		s := New(0.01, 1024)
		for s.NonEmptyBuckets() < s.MaxBuckets() {
			s.Insert(math.Exp(rng.Float64() * 40))
		}
		ss[i] = s
	}
	full := liveHeap() - base
	for _, s := range ss {
		if _, err := s.Degrade(); err != nil {
			t.Fatal(err)
		}
	}
	degraded := liveHeap() - base
	runtime.KeepAlive(ss)
	t.Logf("live heap over %d sketches: %d B full, %d B degraded", sketches, full, degraded)
	if degraded > full*3/4 {
		t.Errorf("live heap %d B after Degrade, %d B before: want at most 3/4", degraded, full)
	}
}

// TestTrimReleasesHeap pins Trim: sketches left at about half their
// bucket budget by an in-place collapse still hold maps sized for the
// full budget, and trimming them must lower the live heap after a GC
// while leaving every serialized byte as it was.
func TestTrimReleasesHeap(t *testing.T) {
	const sketches = 256
	base := liveHeap()
	ss := make([]*Sketch, sketches)
	rng := rand.New(rand.NewPCG(7, 8))
	for i := range ss {
		s := New(0.01, 1024)
		for s.Collapses() == 0 {
			s.Insert(math.Exp(rng.Float64() * 40))
		}
		ss[i] = s
	}
	want, err := ss[0].MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	roomy := liveHeap() - base
	for _, s := range ss {
		s.Trim()
	}
	trimmed := liveHeap() - base
	runtime.KeepAlive(ss)
	t.Logf("live heap over %d sketches of ~%d buckets: %d B untrimmed, %d B trimmed", sketches, ss[0].NonEmptyBuckets(), roomy, trimmed)
	if trimmed > roomy*3/4 {
		t.Errorf("live heap %d B after Trim, %d B before: want at most 3/4", trimmed, roomy)
	}
	got, err := ss[0].MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("Trim changed the serialized sketch")
	}
}

// liveHeap reports the bytes of live heap objects after a full GC.
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}
