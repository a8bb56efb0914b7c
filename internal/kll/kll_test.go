package kll

import (
	"bytes"
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

func TestSmallStreamIsExact(t *testing.T) {
	// Below the first compaction every value is retained: estimates are
	// exact (modulo float32 rounding of the inserted values).
	s := New(DefaultK)
	data := []float64{3, 8, 11, 16, 30, 51, 55, 61, 75, 100} // Table 1
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

// Reproduces Table 2: after one compaction of the Table 1 data with a
// 10-slot level-0 compactor, level 1 holds 5 elements of weight 2, every
// other element of the sorted input.
func TestTable2Example(t *testing.T) {
	s := NewWithSeed(10, 7) // k = 10: level 0 compacts on the 10th insert
	data := []float64{3, 8, 11, 16, 30, 51, 55, 61, 75, 100}
	for _, x := range data {
		s.Insert(x)
	}
	if s.NumLevels() < 2 {
		t.Fatal("expected a compaction to have occurred")
	}
	if got := s.Retained(); got != 5 {
		t.Fatalf("retained %d samples, want 5 after discarding half", got)
	}
	// The retained samples are either the odd- or even-indexed elements.
	var kept []float64
	for h, lv := range s.Levels {
		for _, v := range lv.Items {
			kept = append(kept, float64(v))
			if h != 1 {
				t.Errorf("sample %v has weight %d, want 2", v, uint64(1)<<h)
			}
		}
	}
	sort.Float64s(kept)
	even := []float64{3, 11, 30, 55, 75}
	odd := []float64{8, 16, 51, 61, 100}
	match := func(a, b []float64) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if !match(kept, even) && !match(kept, odd) {
		t.Errorf("kept %v, want every-other elements %v or %v", kept, even, odd)
	}
	// Total weight is preserved exactly.
	if w := retainedWeight(s); s.Count() != 10 || w != 10 {
		t.Errorf("count %d, retained weight %d, want 10", s.Count(), w)
	}
}

// The headline property: rank error stays within a few epsilon with the
// study's k = 350 (expected rank error 0.97%).
func TestRankErrorBound(t *testing.T) {
	s := NewWithSeed(DefaultK, 99)
	rng := rand.New(rand.NewPCG(42, 43))
	n := 500000
	data := make([]float64, n)
	for i := range data {
		data[i] = rng.Float64() * 1e6
		s.Insert(data[i])
	}
	sort.Float64s(data)
	for _, q := range []float64{0.05, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99} {
		est, err := s.Quantile(q)
		if err != nil {
			t.Fatal(err)
		}
		rankErr := math.Abs(q - exactRankOf(data, est))
		// 3x the expected 0.97% leaves headroom for randomization.
		if rankErr > 0.03 {
			t.Errorf("q=%v: rank error %v > 0.03", q, rankErr)
		}
	}
}

func TestRetainedBounded(t *testing.T) {
	s := New(DefaultK)
	rng := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 1000000; i++ {
		s.Insert(rng.Float64())
	}
	// Steady-state retention ≈ k/(1−2/3) = 3k ≈ 1050 (paper: 1048).
	if got := s.Retained(); got < 500 || got > 2000 {
		t.Errorf("retained %d samples at 1M inserts, expected ≈ 1050", got)
	}
	if got := s.MemoryBytes(); got > 10*1024 {
		t.Errorf("MemoryBytes %d, expected a few KB", got)
	}
}

func TestWeightConservation(t *testing.T) {
	s := NewWithSeed(50, 3)
	n := uint64(123457)
	for i := uint64(0); i < n; i++ {
		s.Insert(float64(i))
	}
	if total := retainedWeight(s); total != n {
		t.Fatalf("total sample weight %d, want %d", total, n)
	}
}

func TestEmptyAndInvalid(t *testing.T) {
	s := New(DefaultK)
	if _, err := s.Quantile(0.5); err != sketch.ErrEmpty {
		t.Errorf("empty err = %v", err)
	}
	if _, err := s.Rank(1); err != sketch.ErrEmpty {
		t.Errorf("empty rank err = %v", err)
	}
	s.Insert(1)
	if _, err := s.Quantile(-1); err == nil {
		t.Error("Quantile(-1) should fail")
	}
}

func TestMinMaxExact(t *testing.T) {
	s := NewWithSeed(20, 5)
	rng := rand.New(rand.NewPCG(8, 9))
	lo, hi := math.Inf(1), math.Inf(-1)
	for i := 0; i < 100000; i++ {
		x := rng.NormFloat64() * 1000
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
		s.Insert(x)
	}
	got, err := s.Quantile(1)
	if err != nil {
		t.Fatal(err)
	}
	if got != hi {
		t.Errorf("Quantile(1) = %v, want exact max %v", got, hi)
	}
}

func TestMergePreservesAccuracy(t *testing.T) {
	a := NewWithSeed(DefaultK, 1)
	b := NewWithSeed(DefaultK, 2)
	rng := rand.New(rand.NewPCG(3, 4))
	var all []float64
	for i := 0; i < 100000; i++ {
		x := rng.Float64() * 100
		all = append(all, x)
		if i%2 == 0 {
			a.Insert(x)
		} else {
			b.Insert(x)
		}
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.Count() != uint64(len(all)) {
		t.Fatalf("count %d, want %d", a.Count(), len(all))
	}
	sort.Float64s(all)
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99} {
		est, _ := a.Quantile(q)
		if re := math.Abs(q - exactRankOf(all, est)); re > 0.03 {
			t.Errorf("q=%v: rank error %v after merge", q, re)
		}
	}
	// Merged sketch respects the same retention bound.
	if got := a.Retained(); got > 2200 {
		t.Errorf("retained %d after merge", got)
	}
}

func TestMergeMinK(t *testing.T) {
	// Differing k merge under the DataSketches min-k rule: the receiver
	// adopts the smaller k (either direction) so budget-degraded
	// sketches stay mergeable with full-k ones.
	rng := rand.New(rand.NewPCG(11, 12))
	a, b := New(100), New(200)
	var n uint64
	for i := 0; i < 5000; i++ {
		x := rng.Float64() * 100
		a.Insert(x)
		b.Insert(x + 100)
		n += 2
	}
	if err := a.Merge(b); err != nil {
		t.Fatalf("min-k merge (small ← large): %v", err)
	}
	if a.K() != 100 || a.Count() != n {
		t.Errorf("merged k=%d count=%d, want k=100 count=%d", a.K(), a.Count(), n)
	}
	big, small := New(200), New(100)
	for i := 0; i < 5000; i++ {
		x := rng.Float64() * 100
		big.Insert(x)
		small.Insert(x + 100)
	}
	if err := big.Merge(small); err != nil {
		t.Fatalf("min-k merge (large ← small): %v", err)
	}
	if big.K() != 100 {
		t.Errorf("merged k = %d, want the min k 100", big.K())
	}
	if _, err := big.Quantile(0.5); err != nil {
		t.Fatalf("quantile after min-k merge: %v", err)
	}
}

func TestSerdeRoundTrip(t *testing.T) {
	s := NewWithSeed(DefaultK, 77)
	rng := rand.New(rand.NewPCG(5, 6))
	for i := 0; i < 50000; i++ {
		s.Insert(rng.NormFloat64() * 10)
	}
	blob, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var d Sketch
	if err := d.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	if d.Count() != s.Count() || d.Retained() != s.Retained() {
		t.Fatal("state mismatch after round trip")
	}
	for _, q := range []float64{0.05, 0.5, 0.95} {
		a, _ := s.Quantile(q)
		b, _ := d.Quantile(q)
		if a != b {
			t.Errorf("q=%v: %v != %v", q, a, b)
		}
	}
	if err := d.UnmarshalBinary(blob[:8]); err == nil {
		t.Error("truncated blob should fail")
	}
}

func TestDeterministicWithSeed(t *testing.T) {
	run := func() []float64 {
		s := NewWithSeed(100, 12345)
		rng := rand.New(rand.NewPCG(1, 1))
		for i := 0; i < 50000; i++ {
			s.Insert(rng.Float64())
		}
		var out []float64
		for _, q := range []float64{0.1, 0.5, 0.9} {
			v, _ := s.Quantile(q)
			out = append(out, v)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic result with fixed seed: %v vs %v", a, b)
		}
	}
}

// Property: count is always exact and rank estimates are monotone in x.
func TestQuickRankMonotone(t *testing.T) {
	f := func(vals []float32) bool {
		if len(vals) < 2 {
			return true
		}
		s := NewWithSeed(20, 9)
		for _, v := range vals {
			if !math.IsNaN(float64(v)) {
				s.Insert(float64(v))
			}
		}
		if s.Count() == 0 {
			return true
		}
		r1, err1 := s.Rank(math.Inf(-1))
		r2, err2 := s.Rank(0)
		r3, err3 := s.Rank(math.Inf(1))
		if err1 != nil || err2 != nil || err3 != nil {
			return false
		}
		return r1 <= r2 && r2 <= r3 && r3 == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: weight conservation holds for arbitrary stream lengths.
func TestQuickWeightConservation(t *testing.T) {
	f := func(n uint16, seed uint64) bool {
		s := NewWithSeed(16, seed)
		for i := 0; i < int(n); i++ {
			s.Insert(float64(i % 97))
		}
		return retainedWeight(s) == uint64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestCloneContinuesIdentically pins Clone's contract: a clone and its
// original, fed the same suffix, serialize to the same bytes — the
// compaction coin state is copied, not shared, so feeding the original
// first does not advance the clone's coins.
func TestCloneContinuesIdentically(t *testing.T) {
	src := rand.New(rand.NewPCG(5, 6))
	s := NewWithSeed(64, 9)
	for range 10_000 {
		s.Insert(src.ExpFloat64())
	}
	c := s.Clone()
	suffix := make([]float64, 10_000)
	for i := range suffix {
		suffix[i] = src.ExpFloat64()
	}
	for _, x := range suffix {
		s.Insert(x)
	}
	for _, x := range suffix {
		c.Insert(x)
	}
	a, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("clone and original serialize differently after the same suffix")
	}
}

// retainedWeight is Σ_h |levels[h]|·2^h, the weight the retained samples
// carry.
func retainedWeight(s *Sketch) uint64 {
	var w uint64
	for h, lv := range s.Levels {
		w += uint64(len(lv.Items)) << uint(h)
	}
	return w
}
