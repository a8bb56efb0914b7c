package moments

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"
)

func TestFullParetoWithoutTransform(t *testing.T) {
	// The whole point of the joint log basis: heavy-tailed data without
	// the harness choosing a transform.
	s := NewFull(8)
	rng := rand.New(rand.NewPCG(1, 2))
	n := 200000
	data := make([]float64, n)
	for i := range data {
		data[i] = 1 / math.Pow(1-rng.Float64(), 1.0)
		s.Insert(data[i])
	}
	sort.Float64s(data)
	for _, q := range []float64{0.25, 0.5, 0.75, 0.9} {
		est, err := s.Quantile(q)
		if err != nil {
			t.Fatalf("q=%v: %v", q, err)
		}
		if re := relErr(exactQuantile(data, q), est); re > 0.10 {
			t.Errorf("q=%v: rel err %v (est=%v truth=%v)", q, re, est, exactQuantile(data, q))
		}
	}
}

func TestFullUniform(t *testing.T) {
	s := NewFull(10)
	rng := rand.New(rand.NewPCG(3, 4))
	n := 100000
	data := make([]float64, n)
	for i := range data {
		data[i] = 30 + 70*rng.Float64()
		s.Insert(data[i])
	}
	sort.Float64s(data)
	for _, q := range []float64{0.05, 0.5, 0.95} {
		est, err := s.Quantile(q)
		if err != nil {
			t.Fatal(err)
		}
		if re := relErr(exactQuantile(data, q), est); re > 0.01 {
			t.Errorf("q=%v: rel err %v", q, re)
		}
	}
}

func TestFullIgnoresNonPositive(t *testing.T) {
	s := NewFull(6)
	s.Insert(-1)
	s.Insert(0)
	s.Insert(math.NaN())
	if s.Count() != 0 {
		t.Errorf("count %d after unrepresentable inserts", s.Count())
	}
}

func TestFullMinCardinality(t *testing.T) {
	s := NewFull(6)
	for i := 0; i < MinCardinality-1; i++ {
		s.Insert(float64(i + 1))
	}
	if _, err := s.Quantile(0.5); err == nil {
		t.Error("expected ErrTooFewValues")
	}
}

func TestFullAllEqual(t *testing.T) {
	s := NewFull(6)
	for i := 0; i < 100; i++ {
		s.Insert(7)
	}
	v, err := s.Quantile(0.5)
	if err != nil || v != 7 {
		t.Errorf("all-equal median = %v, %v", v, err)
	}
}

func TestFullMergeAdditive(t *testing.T) {
	a, b, u := NewFull(8), NewFull(8), NewFull(8)
	rng := rand.New(rand.NewPCG(5, 6))
	for i := 0; i < 20000; i++ {
		x := rng.ExpFloat64()*10 + 1
		u.Insert(x)
		if i%2 == 0 {
			a.Insert(x)
		} else {
			b.Insert(x)
		}
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	for i := range a.powerSums {
		if relErr(u.powerSums[i], a.powerSums[i]) > 1e-12 ||
			relErr(u.logSums[i], a.logSums[i]) > 1e-12 {
			t.Fatalf("sum %d mismatch after merge", i)
		}
	}
	c := NewFull(6)
	if err := a.Merge(c); err == nil {
		t.Error("k mismatch should fail")
	}
	if err := a.Merge(New(8)); err == nil {
		t.Error("cross-type merge should fail")
	}
}

func TestFullSerde(t *testing.T) {
	s := NewFull(8)
	rng := rand.New(rand.NewPCG(7, 8))
	for i := 0; i < 10000; i++ {
		s.Insert(1 + rng.Float64()*100)
	}
	blob, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var d FullSketch
	if err := d.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	qa, _ := s.Quantile(0.9)
	qb, _ := d.Quantile(0.9)
	if qa != qb {
		t.Errorf("round trip: %v != %v", qa, qb)
	}
	if err := d.UnmarshalBinary(blob[:9]); err == nil {
		t.Error("truncated blob should fail")
	}
	if err := d.UnmarshalBinary([]byte{1, 2, 3}); err == nil {
		t.Error("garbage should fail")
	}
}

func TestFullRankConsistency(t *testing.T) {
	s := NewFull(8)
	rng := rand.New(rand.NewPCG(9, 10))
	for i := 0; i < 50000; i++ {
		s.Insert(math.Exp(rng.NormFloat64()))
	}
	med, err := s.Quantile(0.5)
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Rank(med)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r-0.5) > 0.02 {
		t.Errorf("Rank(median) = %v", r)
	}
}

// The headline comparison: on lognormal-ish data without any transform,
// the joint variant must beat the standard-only variant that the study's
// stripped implementation uses.
func TestFullBeatsStandardOnHeavyTail(t *testing.T) {
	full := NewFull(8)
	std := New(8) // standard moments, no transform (the study's setting
	// for data they didn't transform)
	rng := rand.New(rand.NewPCG(11, 12))
	n := 100000
	data := make([]float64, n)
	for i := range data {
		data[i] = math.Exp(rng.NormFloat64() * 2) // lognormal, heavy tail
		full.Insert(data[i])
		std.Insert(data[i])
	}
	sort.Float64s(data)
	var fullErr, stdErr float64
	for _, q := range []float64{0.25, 0.5, 0.75} {
		truth := exactQuantile(data, q)
		fe, err := full.Quantile(q)
		if err != nil {
			t.Fatalf("full q=%v: %v", q, err)
		}
		fullErr += relErr(truth, fe)
		if se, err := std.Quantile(q); err == nil {
			stdErr += relErr(truth, se)
		} else {
			stdErr += 1 // solver failure counts as a full miss
		}
	}
	t.Logf("mid-quantile error: full=%v standard=%v", fullErr/3, stdErr/3)
	if fullErr >= stdErr {
		t.Errorf("joint log basis (%v) should beat standard-only (%v) on heavy tails", fullErr/3, stdErr/3)
	}
}
