package uddsketch

import (
	"math"
	"math/rand/v2"
	"testing"
)

func TestRankNegativeAndZero(t *testing.T) {
	s := New(0.01, 2048)
	for i := 1; i <= 1000; i++ {
		s.Insert(-float64(i))
		s.Insert(float64(i))
	}
	s.Insert(0)
	r, err := s.Rank(-500)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r-0.25) > 0.02 {
		t.Errorf("Rank(-500) = %v, want ≈ 0.25", r)
	}
	r, _ = s.Rank(0)
	if math.Abs(r-0.5) > 0.02 {
		t.Errorf("Rank(0) = %v", r)
	}
	r, _ = s.Rank(2000)
	if r != 1 {
		t.Errorf("Rank(max) = %v, want 1", r)
	}
	// Negative quantile path.
	est, err := s.Quantile(0.1)
	if err != nil {
		t.Fatal(err)
	}
	if re := relErr(-800, est); re > 0.02 {
		t.Errorf("q=0.1 = %v, want ≈ -800", est)
	}
}

func TestInsertNTriggersCollapse(t *testing.T) {
	s := New(1e-4, 32)
	rng := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 100; i++ {
		s.InsertN(math.Exp(rng.Float64()*20-10), 100)
	}
	if s.NonEmptyBuckets() > 32 {
		t.Errorf("bulk inserts exceeded bucket budget: %d", s.NonEmptyBuckets())
	}
	if s.Count() != 10000 {
		t.Errorf("count = %d", s.Count())
	}
}

func TestGammaSquaresPerCollapse(t *testing.T) {
	s := New(0.001, 4)
	g0 := s.Gamma()
	for i := 0; i < 10000; i++ {
		s.Insert(math.Exp(float64(i%40) - 20))
	}
	if s.Collapses() == 0 {
		t.Fatal("expected collapses")
	}
	want := g0
	for i := 0; i < s.Collapses(); i++ {
		want = want * want
	}
	if math.Abs(s.Gamma()-want) > 1e-9*want {
		t.Errorf("gamma = %v, want %v after %d collapses", s.Gamma(), want, s.Collapses())
	}
}

func TestMergeIntoEmpty(t *testing.T) {
	a := New(0.01, 1024)
	b := New(0.01, 1024)
	for i := 1; i <= 100; i++ {
		b.Insert(float64(i))
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.Count() != 100 {
		t.Errorf("count = %d", a.Count())
	}
	med, err := a.Quantile(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if re := relErr(50, med); re > 0.01 {
		t.Errorf("median = %v", med)
	}
}

func TestInvalidConstruction(t *testing.T) {
	if _, err := NewChecked(0, 10); err == nil {
		t.Error("alpha 0 should fail")
	}
	if _, err := NewChecked(0.01, 1); err == nil {
		t.Error("1 bucket should fail")
	}
	if _, err := NewDense(0.01, 3); err == nil {
		t.Error("3 buckets should fail")
	}
	if _, err := NewWithBudget(1.5, 10, 3); err == nil {
		t.Error("alpha > 1 should fail")
	}
	if _, err := NewWithBudget(0.01, 10, 0); err == nil {
		t.Error("0 collapses should fail")
	}
}

// TestSmallestBudgetTerminates pins the 4-bucket floor: collapses end
// with each store at indices 0 and 1, so at a budget of 4 a mixed-sign
// stream terminates, and smaller budgets — where the collapse loop
// never would — are refused, by the constructors and by the decoder.
// Over a wide value range the budget collapses run until α saturates
// at 1 (the 11th collapse from α₀ = 0.01): every one of them still
// runs, the sketch reports AccuracyBound 1, its answers stay within
// [min, max], and it survives a round trip — in the invariants build
// too, whose check accepts the saturated α.
func TestSmallestBudgetTerminates(t *testing.T) {
	for _, kind := range storeKinds {
		t.Run(kind.name, func(t *testing.T) {
			s := build(kind.dense, 0.01, 4)
			for _, x := range []float64{1, 1.5, -1.5, -1, 1.2, -1.2, 0.9, -0.9} {
				s.Insert(x)
			}
			if s.NonEmptyBuckets() > 4 {
				t.Errorf("%d buckets, budget 4", s.NonEmptyBuckets())
			}

			wide := build(kind.dense, 0.01, 4)
			values := []float64{1, 1.5, -1.5, -1, 1e-9, -1e9, 1e9, -1e-9}
			for _, x := range values {
				wide.Insert(x)
			}
			if wide.NonEmptyBuckets() > 4 || wide.Count() != uint64(len(values)) {
				t.Errorf("wide range: %d buckets (budget 4), count %d", wide.NonEmptyBuckets(), wide.Count())
			}
			if wide.Collapses() < 11 || wide.AccuracyBound() != 1 {
				t.Errorf("wide range: %d collapses, AccuracyBound %v; want ≥ 11 and a saturated 1", wide.Collapses(), wide.AccuracyBound())
			}
			for _, q := range []float64{0.01, 0.25, 0.5, 0.75, 1} {
				v, err := wide.Quantile(q)
				if err != nil || v < -1e9 || v > 1e9 {
					t.Errorf("wide range: Quantile(%v) = %v, %v; want a value in [-1e9, 1e9]", q, v, err)
				}
			}
			var d Sketch
			if err := d.UnmarshalBinary(marshal(t, wide)); err != nil || d.AccuracyBound() != 1 {
				t.Errorf("wide range: round trip: %v, AccuracyBound %v", err, d.AccuracyBound())
			}
			blob := marshal(t, s)
			// maxBuckets follows the 2-byte header and the 8-byte α₀;
			// its low byte comes first.
			blob[10] = 3
			if err := build(kind.dense, 0.01, 4).UnmarshalBinary(blob); err == nil {
				t.Error("decoder accepted a 3-bucket budget")
			}
		})
	}
}
