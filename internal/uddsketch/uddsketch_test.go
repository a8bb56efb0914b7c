package uddsketch

import (
	"bytes"
	"math"
	"math/rand/v2"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/sketch"
)

// storeKinds are the two bucket stores the store-generic tests run
// over: the paper's map, and the dense array store of NewDense (named
// after the registry's uddsketch-array entry and the ablation's row).
var storeKinds = []struct {
	name  string
	dense bool
}{{"map", false}, {"array", true}}

// build returns a sketch over the chosen store, panicking on invalid
// parameters like New.
func build(dense bool, alpha0 float64, maxBuckets int) *Sketch {
	s, err := newSketch(alpha0, maxBuckets, dense)
	if err != nil {
		panic(err)
	}
	return s
}

// buildWithBudget is NewWithBudget over the chosen store.
func buildWithBudget(t testing.TB, dense bool, alphaK float64, maxBuckets, numCollapses int) *Sketch {
	t.Helper()
	s, err := newWithBudget(alphaK, maxBuckets, numCollapses, dense)
	if err != nil {
		t.Fatal(err)
	}
	return s
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

func relErr(truth, est float64) float64 {
	if truth == 0 {
		return math.Abs(est)
	}
	return math.Abs(truth-est) / math.Abs(truth)
}

// TestCeilDiv2 pins ceilShift(i, 1) = ⌈i/2⌉, and ceilShift(i, d) to d
// repeated ⌈i/2⌉ steps, the per-collapse rule a merge replays when it
// folds a less-collapsed sketch's indices to the receiver's level.
func TestCeilDiv2(t *testing.T) {
	cases := map[int]int{
		-5: -2, -4: -2, -3: -1, -2: -1, -1: 0, 0: 0,
		1: 1, 2: 1, 3: 2, 4: 2, 5: 3,
	}
	for in, want := range cases {
		if got := ceilShift(in, 1); got != want {
			t.Errorf("ceilShift(%d, 1) = %d, want %d", in, got, want)
		}
	}
	for i := -300; i <= 300; i++ {
		want := i
		for d := 0; d <= 70; d++ {
			if got := ceilShift(i, d); got != want {
				t.Fatalf("ceilShift(%d, %d) = %d, want %d", i, d, got, want)
			}
			want = ceilShift(want, 1)
		}
	}
}

func TestBudgetFormula(t *testing.T) {
	// α₀ = tanh(atanh(α_k)/2^(k−1)); with the study's parameters
	// (α_k = 0.01, numCollapses = 12) this is ≈ 4.88e-6.
	s, err := NewWithBudget(0.01, 1024, 12)
	if err != nil {
		t.Fatal(err)
	}
	want := math.Tanh(math.Atanh(0.01) / math.Pow(2, 11))
	if got := s.InitialAlpha(); math.Abs(got-want) > 1e-18 {
		t.Fatalf("alpha0 = %v, want %v", got, want)
	}
	if s.InitialAlpha() > 5e-6 || s.InitialAlpha() < 4.5e-6 {
		t.Errorf("alpha0 = %v, expected ≈ 4.88e-6", s.InitialAlpha())
	}
}

// The collapse recurrence α' = 2α/(1+α²) must match atanh doubling.
func TestAlphaDeterioration(t *testing.T) {
	s := New(1e-6, 4) // tiny budget forces collapses
	alpha0 := s.Alpha()
	rng := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 10000; i++ {
		s.Insert(math.Exp(rng.Float64()*30 - 15))
	}
	if s.Collapses() == 0 {
		t.Fatal("expected collapses with a 4-bucket budget")
	}
	want := math.Tanh(math.Atanh(alpha0) * math.Pow(2, float64(s.Collapses())))
	if math.Abs(s.Alpha()-want) > 1e-12*want {
		t.Errorf("alpha after %d collapses = %v, want %v", s.Collapses(), s.Alpha(), want)
	}
}

func TestBucketBudgetRespected(t *testing.T) {
	for _, kind := range storeKinds {
		t.Run(kind.name, func(t *testing.T) {
			s := build(kind.dense, 1e-4, 64)
			rng := rand.New(rand.NewPCG(9, 10))
			for i := 0; i < 100000; i++ {
				s.Insert(math.Exp(rng.Float64()*40 - 20))
			}
			if n := s.NonEmptyBuckets(); n > 64 {
				t.Errorf("holds %d buckets, budget 64", n)
			}
			if s.Collapses() == 0 {
				t.Error("expected collapses")
			}
		})
	}
}

// The headline property: current Alpha() always bounds the observed
// relative error, even after collapses.
func TestRelativeErrorGuarantee(t *testing.T) {
	for _, kind := range storeKinds {
		t.Run(kind.name, func(t *testing.T) {
			s := buildWithBudget(t, kind.dense, 0.01, 1024, 12)
			rng := rand.New(rand.NewPCG(42, 43))
			data := make([]float64, 200000)
			for i := range data {
				data[i] = 1 / math.Pow(1-rng.Float64(), 1.0) // Pareto α=1, huge range
				s.Insert(data[i])
			}
			sort.Float64s(data)
			alpha := s.Alpha()
			if alpha > 0.01 {
				t.Fatalf("final alpha %v exceeded the 0.01 design threshold", alpha)
			}
			for _, q := range []float64{0.01, 0.05, 0.25, 0.5, 0.75, 0.95, 0.99, 0.999} {
				truth := exactQuantile(data, q)
				est, err := s.Quantile(q)
				if err != nil {
					t.Fatal(err)
				}
				if re := relErr(truth, est); re > alpha*(1+1e-9) {
					t.Errorf("q=%v: rel err %v > current alpha %v", q, re, alpha)
				}
			}
		})
	}
}

func TestEmptyAndInvalid(t *testing.T) {
	s := New(0.01, 1024)
	if _, err := s.Quantile(0.5); err != sketch.ErrEmpty {
		t.Errorf("empty Quantile err = %v", err)
	}
	s.Insert(1)
	if _, err := s.Quantile(0); err == nil {
		t.Error("Quantile(0) should fail")
	}
	if _, err := s.Quantile(1.5); err == nil {
		t.Error("Quantile(1.5) should fail")
	}
}

// Both stores hold negatives in their own mirrored store (the dense
// store once counted them as zeros), and zeros exactly.
func TestNegativeAndZero(t *testing.T) {
	for _, kind := range storeKinds {
		t.Run(kind.name, func(t *testing.T) {
			s := build(kind.dense, 0.01, 1024)
			for _, x := range []float64{-50, -5, 0, 5, 50} {
				s.Insert(x)
			}
			med, err := s.Quantile(0.5)
			if err != nil {
				t.Fatal(err)
			}
			if med != 0 {
				t.Errorf("median = %v, want 0", med)
			}
			lo, _ := s.Quantile(0.2)
			if re := relErr(-50, lo); re > 0.01 {
				t.Errorf("q=0.2 = %v, want ≈ -50", lo)
			}

			s = build(kind.dense, 0.01, 256)
			for _, x := range []float64{0, -5, 10} {
				s.Insert(x)
			}
			if s.Count() != 3 {
				t.Fatalf("count %d", s.Count())
			}
			lo, err = s.Quantile(0.3)
			if err != nil {
				t.Fatal(err)
			}
			if re := relErr(-5, lo); re > 0.01 {
				t.Errorf("q=0.3 = %v, want ≈ -5 from the negative store", lo)
			}
		})
	}
}

// Merging sketches with different collapse counts aligns γ first and
// preserves counts and accuracy.
func TestMergeAlignsCollapses(t *testing.T) {
	for _, kind := range storeKinds {
		t.Run(kind.name, func(t *testing.T) { testMergeAlignsCollapses(t, kind.dense) })
	}
}

func testMergeAlignsCollapses(t *testing.T, dense bool) {
	a := build(dense, 1e-4, 128) // will collapse on wide data
	b := build(dense, 1e-4, 128)
	rng := rand.New(rand.NewPCG(5, 6))
	var all []float64
	for i := 0; i < 50000; i++ {
		x := math.Exp(rng.Float64()*30 - 15)
		all = append(all, x)
		a.Insert(x)
	}
	for i := 0; i < 1000; i++ {
		// Narrow enough to fit 128 buckets at γ ≈ 1.0002: span < γ^128.
		x := 1 + 0.02*rng.Float64()
		all = append(all, x)
		b.Insert(x)
	}
	if a.Collapses() == 0 {
		t.Fatal("test needs a to have collapsed")
	}
	if b.Collapses() != 0 {
		t.Fatal("test needs b uncollapsed")
	}
	bCountBefore := b.Count()
	bCollapsesBefore := b.Collapses()
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	// other is unchanged.
	if b.Count() != bCountBefore || b.Collapses() != bCollapsesBefore {
		t.Error("Merge mutated its argument")
	}
	if a.Count() != uint64(len(all)) {
		t.Fatalf("merged count %d, want %d", a.Count(), len(all))
	}
	sort.Float64s(all)
	alpha := a.Alpha()
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99} {
		truth := exactQuantile(all, q)
		got, _ := a.Quantile(q)
		if re := relErr(truth, got); re > alpha*(1+1e-9) {
			t.Errorf("q=%v: rel err %v > alpha %v after merge", q, re, alpha)
		}
	}
}

func TestMergeReverseDirection(t *testing.T) {
	// Merge a collapsed sketch INTO an uncollapsed one: the receiver must
	// collapse itself to align.
	a := New(1e-4, 128)
	b := New(1e-4, 128)
	rng := rand.New(rand.NewPCG(15, 16))
	for i := 0; i < 1000; i++ {
		a.Insert(1 + rng.Float64())
	}
	for i := 0; i < 50000; i++ {
		b.Insert(math.Exp(rng.Float64()*30 - 15))
	}
	if b.Collapses() == 0 {
		t.Fatal("test needs b collapsed")
	}
	want := a.Count() + b.Count()
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.Count() != want {
		t.Fatalf("count %d, want %d", a.Count(), want)
	}
	if a.Collapses() < b.Collapses() {
		t.Errorf("receiver should have aligned to >= %d collapses, has %d", b.Collapses(), a.Collapses())
	}
}

func TestMergeIncompatible(t *testing.T) {
	a := New(0.01, 1024)
	b := New(0.02, 1024)
	if err := a.Merge(b); err == nil {
		t.Error("different alpha lineages should not merge")
	}
}

func TestSerdeRoundTrip(t *testing.T) {
	s := New(1e-4, 128)
	rng := rand.New(rand.NewPCG(21, 22))
	for i := 0; i < 30000; i++ {
		s.Insert(math.Exp(rng.Float64()*20 - 10))
	}
	blob, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var d Sketch
	if err := d.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	if d.Count() != s.Count() || d.Collapses() != s.Collapses() {
		t.Fatalf("state mismatch after round trip")
	}
	if math.Abs(d.Alpha()-s.Alpha()) > 1e-15 {
		t.Fatalf("alpha mismatch: %v vs %v", d.Alpha(), s.Alpha())
	}
	for _, q := range []float64{0.05, 0.5, 0.95} {
		a, _ := s.Quantile(q)
		b, _ := d.Quantile(q)
		if a != b {
			t.Errorf("q=%v: %v != %v", q, a, b)
		}
	}
	if err := d.UnmarshalBinary(blob[:10]); err == nil {
		t.Error("truncated blob should fail")
	}
}

// Property: inserting any positive data keeps estimates within Alpha().
func TestQuickGuarantee(t *testing.T) {
	f := func(vals []uint16, qFrac uint16) bool {
		if len(vals) < 1 {
			return true
		}
		s := New(0.01, 512)
		data := make([]float64, len(vals))
		for i, v := range vals {
			data[i] = float64(v) + 1
			s.Insert(data[i])
		}
		sort.Float64s(data)
		q := (float64(qFrac) + 1) / 65537
		truth := exactQuantile(data, q)
		est, err := s.Quantile(q)
		if err != nil {
			return false
		}
		return relErr(truth, est) <= s.Alpha()*(1+1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: a merge never loses or invents observations.
func TestQuickMergeCount(t *testing.T) {
	f := func(a, b []uint16) bool {
		s1, s2 := New(0.01, 256), New(0.01, 256)
		for _, v := range a {
			s1.Insert(float64(v) + 1)
		}
		for _, v := range b {
			s2.Insert(float64(v) + 1)
		}
		want := s1.Count() + s2.Count()
		if err := s1.Merge(s2); err != nil {
			return false
		}
		return s1.Count() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestReset(t *testing.T) {
	s := New(1e-4, 64)
	rng := rand.New(rand.NewPCG(31, 32))
	for i := 0; i < 10000; i++ {
		s.Insert(math.Exp(rng.Float64() * 10))
	}
	s.Reset()
	if s.Count() != 0 || s.Collapses() != 0 || s.NonEmptyBuckets() != 0 {
		t.Error("reset left state behind")
	}
	if s.Alpha() != s.InitialAlpha() {
		t.Error("reset should restore alpha0")
	}
}

// TestCollapseConcurrentSketches runs collapse-heavy sketches on
// several goroutines at once: map stores share only the pooled collapse
// scratch buffers, so each must end byte-identical to the same input
// built alone (run under -race to check the sharing). Dense stores share
// nothing and must pass too.
func TestCollapseConcurrentSketches(t *testing.T) {
	for _, kind := range storeKinds {
		t.Run(kind.name, func(t *testing.T) { testCollapseConcurrentSketches(t, kind.dense) })
	}
}

func testCollapseConcurrentSketches(t *testing.T, dense bool) {
	rng := rand.New(rand.NewPCG(5, 6))
	xs := make([]float64, 20000)
	for i := range xs {
		xs[i] = math.Exp(rng.Float64()*60 - 30)
		if i%3 == 0 {
			xs[i] = -xs[i]
		}
	}
	fill := func() []byte {
		s := build(dense, 0.001, 64)
		for _, x := range xs {
			s.Insert(x)
		}
		b, err := s.MarshalBinary()
		if err != nil {
			panic(err)
		}
		return b
	}
	want := fill()
	const workers = 4
	got := make([][]byte, workers)
	var wg sync.WaitGroup
	for w := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[w] = fill()
		}()
	}
	wg.Wait()
	for w, b := range got {
		if !bytes.Equal(b, want) {
			t.Errorf("goroutine %d built a different sketch than the serial build", w)
		}
	}
}
