package req

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/sketch"
)

func exactRankOf(sorted []float64, x float64) float64 {
	i := sort.SearchFloat64s(sorted, math.Nextafter(x, math.Inf(1)))
	return float64(i) / float64(len(sorted))
}

func exactQuantile(sorted []float64, q float64) float64 {
	idx := int(math.Ceil(q * float64(len(sorted))))
	if idx < 1 {
		idx = 1
	}
	if idx > len(sorted) {
		idx = len(sorted)
	}
	return sorted[idx-1]
}

func TestSmallStreamIsExact(t *testing.T) {
	s := New(DefaultSectionSize, true)
	data := []float64{3, 8, 11, 16, 30, 51, 55, 61, 75, 100}
	for _, x := range data {
		s.Insert(x)
	}
	for i, q := range []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1} {
		got, err := s.Quantile(q)
		if err != nil {
			t.Fatal(err)
		}
		if got != data[i] {
			t.Errorf("q=%v: got %v, want %v", q, got, data[i])
		}
	}
}

// HRA mode: upper quantiles get tighter rank error than a uniform bound;
// here we check the multiplicative-style behaviour — the rank error at
// high ranks stays small even on a heavy-tailed stream.
func TestHRAUpperQuantileRankError(t *testing.T) {
	s := NewWithSeed(DefaultSectionSize, true, 17)
	rng := rand.New(rand.NewPCG(42, 43))
	n := 500000
	data := make([]float64, n)
	for i := range data {
		data[i] = 1 / math.Pow(1-rng.Float64(), 1.0) // Pareto α=1
		s.Insert(data[i])
	}
	sort.Float64s(data)
	for _, q := range []float64{0.9, 0.95, 0.98, 0.99, 0.999} {
		est, err := s.Quantile(q)
		if err != nil {
			t.Fatal(err)
		}
		rankErr := math.Abs(q - exactRankOf(data, est))
		// HRA: error at rank q scales like ε(1−q); near the top it must be
		// well under 1%.
		if rankErr > 0.01 {
			t.Errorf("q=%v: rank error %v > 0.01 in HRA mode", q, rankErr)
		}
	}
}

func TestLRALowerQuantileRankError(t *testing.T) {
	s := NewWithSeed(DefaultSectionSize, false, 23)
	rng := rand.New(rand.NewPCG(1, 9))
	n := 300000
	data := make([]float64, n)
	for i := range data {
		data[i] = rng.Float64() * 1000
		s.Insert(data[i])
	}
	sort.Float64s(data)
	for _, q := range []float64{0.001, 0.01, 0.05, 0.1} {
		est, err := s.Quantile(q)
		if err != nil {
			t.Fatal(err)
		}
		rankErr := math.Abs(q - exactRankOf(data, est))
		if rankErr > 0.01 {
			t.Errorf("q=%v: rank error %v > 0.01 in LRA mode", q, rankErr)
		}
	}
}

func TestWeightConservation(t *testing.T) {
	s := NewWithSeed(8, true, 3)
	n := uint64(98765)
	for i := uint64(0); i < n; i++ {
		s.Insert(float64(i % 1013))
	}
	if total := retainedWeight(s); total != n {
		t.Fatalf("total sample weight %d, want %d", total, n)
	}
}

func TestRetainedGrowsSubLinearly(t *testing.T) {
	s := NewWithSeed(DefaultSectionSize, true, 5)
	rng := rand.New(rand.NewPCG(2, 3))
	for i := 0; i < 1000000; i++ {
		s.Insert(1 / math.Pow(1-rng.Float64(), 1.0))
	}
	// Paper Sec 4.3: ≈4,177 retained items at 1M Pareto inserts for the
	// study's configuration. Allow a generous band for schedule details.
	got := s.Retained()
	if got < 1500 || got > 9000 {
		t.Errorf("retained %d at 1M inserts, expected ≈4000", got)
	}
	t.Logf("retained=%d levels=%d memory=%dB", got, s.NumLevels(), s.MemoryBytes())
}

func TestEmptyAndInvalid(t *testing.T) {
	s := New(DefaultSectionSize, true)
	if _, err := s.Quantile(0.5); err != sketch.ErrEmpty {
		t.Errorf("empty err = %v", err)
	}
	s.Insert(5)
	if _, err := s.Quantile(2); err == nil {
		t.Error("Quantile(2) should fail")
	}
	got, err := s.Quantile(1)
	if err != nil || got != 5 {
		t.Errorf("Quantile(1) = %v, %v", got, err)
	}
}

func TestMergePreservesAccuracy(t *testing.T) {
	a := NewWithSeed(DefaultSectionSize, true, 1)
	b := NewWithSeed(DefaultSectionSize, true, 2)
	rng := rand.New(rand.NewPCG(3, 4))
	var all []float64
	for i := 0; i < 200000; i++ {
		x := 1 / math.Pow(1-rng.Float64(), 1.2)
		all = append(all, x)
		if i%2 == 0 {
			a.Insert(x)
		} else {
			b.Insert(x)
		}
	}
	bCount := b.Count()
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if b.Count() != bCount {
		t.Error("Merge mutated its argument count")
	}
	if a.Count() != uint64(len(all)) {
		t.Fatalf("count %d, want %d", a.Count(), len(all))
	}
	sort.Float64s(all)
	for _, q := range []float64{0.9, 0.95, 0.99} {
		est, _ := a.Quantile(q)
		if re := math.Abs(q - exactRankOf(all, est)); re > 0.015 {
			t.Errorf("q=%v: rank error %v after merge", q, re)
		}
	}
}

func TestMergeStateOR(t *testing.T) {
	a := NewWithSeed(8, true, 1)
	b := NewWithSeed(8, true, 2)
	for i := 0; i < 2000; i++ {
		a.Insert(float64(i))
		b.Insert(float64(i) + 0.5)
	}
	sa := a.compactors[0].state
	sb := b.compactors[0].state
	if sa == 0 || sb == 0 {
		t.Skip("need compactions at level 0 for this test")
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	// After merge+compress the state must contain the OR of both (the
	// compress step may have advanced it further).
	if got := a.compactors[0].state; got&(sa|sb) != (sa|sb) && got < (sa|sb) {
		t.Errorf("merged state %b lost bits of %b | %b", got, sa, sb)
	}
}

func TestMergeIncompatible(t *testing.T) {
	a := New(8, true)
	b := New(8, false)
	if err := a.Merge(b); err == nil {
		t.Error("HRA and LRA sketches should not merge")
	}
	// Differing section sizes merge under the min-k rule (the receiver
	// adopts the smaller configuration) so budget-degraded sketches stay
	// mergeable with full-k ones.
	c := New(16, true)
	c.Insert(1)
	a.Insert(2)
	if err := c.Merge(a); err != nil {
		t.Fatalf("min-k merge: %v", err)
	}
	if c.K() != 8 || c.Count() != 2 {
		t.Errorf("merged k=%d count=%d, want k=8 count=2", c.K(), c.Count())
	}
}

func TestSerdeRoundTrip(t *testing.T) {
	s := NewWithSeed(DefaultSectionSize, true, 7)
	rng := rand.New(rand.NewPCG(5, 6))
	for i := 0; i < 100000; i++ {
		s.Insert(rng.ExpFloat64() * 100)
	}
	blob, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var d Sketch
	if err := d.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	if d.Count() != s.Count() || d.Retained() != s.Retained() || d.NumLevels() != s.NumLevels() {
		t.Fatal("state mismatch after round trip")
	}
	for _, q := range []float64{0.05, 0.5, 0.95, 0.99} {
		a, _ := s.Quantile(q)
		b, _ := d.Quantile(q)
		if a != b {
			t.Errorf("q=%v: %v != %v", q, a, b)
		}
	}
	if err := d.UnmarshalBinary(blob[:12]); err == nil {
		t.Error("truncated blob should fail")
	}
}

func TestSectionGrowth(t *testing.T) {
	s := NewWithSeed(16, true, 11)
	rng := rand.New(rand.NewPCG(8, 8))
	for i := 0; i < 2000000; i++ {
		s.Insert(rng.Float64())
	}
	c0 := s.compactors[0]
	if c0.numSections == initNumSections {
		t.Error("expected level-0 sections to have grown on a 2M stream")
	}
	if c0.sectionSize >= 16 {
		t.Errorf("sectionSize %d should have shrunk from 16", c0.sectionSize)
	}
	if c0.sectionSize < minSectionSize {
		t.Errorf("sectionSize %d below minimum", c0.sectionSize)
	}
}

// Property: weight conservation for arbitrary stream lengths and modes.
func TestQuickWeightConservation(t *testing.T) {
	f := func(n uint16, hra bool, seed uint64) bool {
		s := NewWithSeed(8, hra, seed)
		for i := 0; i < int(n); i++ {
			s.Insert(float64(i % 31))
		}
		return retainedWeight(s) == uint64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: quantile estimates are always actual inserted values
// (float32-rounded) for q < 1.
func TestQuickEstimatesAreDataValues(t *testing.T) {
	f := func(vals []uint16, qFrac uint16) bool {
		if len(vals) == 0 {
			return true
		}
		s := NewWithSeed(8, true, 42)
		seen := make(map[float32]bool, len(vals))
		for _, v := range vals {
			s.Insert(float64(v))
			seen[float32(v)] = true
		}
		q := (float64(qFrac) + 1) / 65537
		est, err := s.Quantile(q)
		if err != nil {
			return false
		}
		return seen[float32(est)]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestDeterministicWithSeed(t *testing.T) {
	run := func() float64 {
		s := NewWithSeed(16, true, 321)
		rng := rand.New(rand.NewPCG(4, 4))
		for i := 0; i < 100000; i++ {
			s.Insert(rng.Float64())
		}
		v, _ := s.Quantile(0.99)
		return v
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("non-deterministic with fixed seed: %v vs %v", a, b)
	}
}

func TestHRAvsLRAUpperTail(t *testing.T) {
	// On identical Pareto data, HRA should usually beat LRA on the 0.99
	// quantile rank error (this is the paper's rationale for enabling
	// HRA, Sec 4.2). Averaged over several seeds to damp randomness.
	rng := rand.New(rand.NewPCG(10, 20))
	n := 200000
	data := make([]float64, n)
	for i := range data {
		data[i] = 1 / math.Pow(1-rng.Float64(), 1.0)
	}
	sorted := append([]float64(nil), data...)
	sort.Float64s(sorted)
	truth := exactQuantile(sorted, 0.99)
	_ = truth
	var hraErr, lraErr float64
	for seed := uint64(0); seed < 5; seed++ {
		h := NewWithSeed(DefaultSectionSize, true, seed)
		l := NewWithSeed(DefaultSectionSize, false, seed)
		for _, x := range data {
			h.Insert(x)
			l.Insert(x)
		}
		eh, _ := h.Quantile(0.99)
		el, _ := l.Quantile(0.99)
		hraErr += math.Abs(0.99 - exactRankOf(sorted, eh))
		lraErr += math.Abs(0.99 - exactRankOf(sorted, el))
	}
	t.Logf("mean rank err at q=0.99: HRA=%v LRA=%v", hraErr/5, lraErr/5)
	if hraErr > lraErr {
		t.Errorf("HRA (%v) should beat LRA (%v) at the upper tail", hraErr/5, lraErr/5)
	}
}

// retainedWeight is Σ_h |buffer_h|·2^h, the weight the retained items
// carry.
func retainedWeight(s *Sketch) uint64 {
	var w uint64
	for h, lv := range s.Levels {
		w += uint64(len(lv.Items)) << uint(h)
	}
	return w
}
