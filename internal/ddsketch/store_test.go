package ddsketch

import (
	"math"
	"testing"
)

func TestDenseStoreCloneIndependence(t *testing.T) {
	st := NewDenseStore()
	st.Add(10, 3)
	cl := st.Clone()
	st.Add(20, 4)
	if cl.Total() != 3 {
		t.Errorf("clone total %d, want 3", cl.Total())
	}
	if st.Total() != 7 {
		t.Errorf("original total %d, want 7", st.Total())
	}
}

func TestCollapsingCloneAndReset(t *testing.T) {
	st := NewCollapsingLowestDenseStore(16)
	for i := 0; i < 100; i++ {
		st.Add(i, 1)
	}
	if st.CollapseCount() == 0 {
		t.Fatal("expected collapses")
	}
	cl := st.Clone().(*CollapsingLowestDenseStore)
	if cl.MaxBuckets() != 16 || cl.Total() != st.Total() {
		t.Error("clone mismatch")
	}
	st.Reset()
	if !st.IsEmpty() || st.CollapseCount() != 0 {
		t.Error("reset left state")
	}
	if st.MaxBuckets() != 16 {
		t.Error("reset lost configuration")
	}
}

func TestNegativeRankQueries(t *testing.T) {
	s := New(0.01)
	for i := 1; i <= 1000; i++ {
		s.Insert(-float64(i))
		s.Insert(float64(i))
	}
	// Rank of a negative value: fraction ≤ -500 is ≈ 500/2000 = 0.25.
	r, err := s.Rank(-500)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r-0.25) > 0.02 {
		t.Errorf("Rank(-500) = %v, want ≈ 0.25", r)
	}
	r, _ = s.Rank(0)
	if math.Abs(r-0.5) > 0.02 {
		t.Errorf("Rank(0) = %v, want ≈ 0.5", r)
	}
	// Quantile deep in the negative range.
	est, err := s.Quantile(0.1)
	if err != nil {
		t.Fatal(err)
	}
	if re := relErr(-800, est); re > 0.02 {
		t.Errorf("q=0.1 = %v, want ≈ -800", est)
	}
}

func TestZeroOnlyStream(t *testing.T) {
	s := New(0.01)
	for i := 0; i < 100; i++ {
		s.Insert(0)
	}
	v, err := s.Quantile(0.5)
	if err != nil || v != 0 {
		t.Errorf("all-zero median = %v, %v", v, err)
	}
	r, err := s.Rank(0)
	if err != nil || r != 1 {
		t.Errorf("Rank(0) = %v, %v", r, err)
	}
}

func TestMappingBounds(t *testing.T) {
	m, _ := NewMapping(0.01)
	// LowerBound/UpperBound bracket Value.
	for _, i := range []int{-100, -1, 0, 1, 100} {
		lo, hi, v := m.LowerBound(i), m.UpperBound(i), m.Value(i)
		if !(v > lo && v <= hi) {
			t.Errorf("bucket %d: value %v outside (%v, %v]", i, v, lo, hi)
		}
	}
	if m.MinIndexableValue() <= 0 {
		t.Error("MinIndexableValue must be positive")
	}
}
