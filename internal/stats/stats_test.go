package stats

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"
	"testing/quick"
)

func TestExactQuantilesPaperExample(t *testing.T) {
	// Table 1 of the paper.
	data := []float64{3, 8, 11, 16, 30, 51, 55, 61, 75, 100}
	e := NewExactQuantiles(data)
	for i, q := range []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0} {
		if got := e.Quantile(q); got != data[i] {
			t.Errorf("q=%v: got %v, want %v", q, got, data[i])
		}
	}
	// Rank(x) is the count of elements ≤ x.
	if got := e.Rank(30); got != 5 {
		t.Errorf("Rank(30) = %d, want 5", got)
	}
	if got := e.Rank(2); got != 0 {
		t.Errorf("Rank(2) = %d, want 0", got)
	}
	if got := e.Rank(100); got != 10 {
		t.Errorf("Rank(100) = %d, want 10", got)
	}
	if got := e.NormalizedRank(18); got != 0.4 {
		t.Errorf("NormalizedRank(18) = %v, want 0.4 (rank of x̂=18 in the Sec 2.2 example)", got)
	}
	if e.Min() != 3 || e.Max() != 100 || e.N() != 10 {
		t.Error("min/max/n wrong")
	}
}

// The paper's Sec 2.2 worked example: estimating the 0.9-quantile of
// Table 1 as 18 gives rank error 0.1 and relative error 0.4.
func TestPaperErrorExample(t *testing.T) {
	data := []float64{3, 8, 11, 16, 30, 51, 55, 61, 75, 100}
	e := NewExactQuantiles(data)
	truth := e.Quantile(0.9) // 75? No: rank ceil(0.9*10)=9 → 75.
	_ = truth
	// The paper's example uses the data set where the true 0.9-quantile is
	// 30 (their Table 1 has different values); replicate the arithmetic
	// directly instead:
	if re := RelativeError(30, 18); math.Abs(re-0.4) > 1e-12 {
		t.Errorf("relative error = %v, want 0.4", re)
	}
	if rankErr := RankError(e, 0.9, 18); math.Abs(rankErr-(0.9-0.4)) > 1e-12 {
		t.Errorf("rank error = %v, want 0.5 (18 has rank 4 in this data)", rankErr)
	}
}

func TestRelativeErrorZeroTruth(t *testing.T) {
	if got := RelativeError(0, 3); got != 3 {
		t.Errorf("RelativeError(0, 3) = %v, want absolute fallback 3", got)
	}
	if got := RelativeError(10, 10); got != 0 {
		t.Errorf("exact estimate should give 0, got %v", got)
	}
}

func TestQuantileEdges(t *testing.T) {
	e := NewExactQuantiles([]float64{5})
	if e.Quantile(0.0001) != 5 || e.Quantile(1) != 5 {
		t.Error("single-element quantiles wrong")
	}
	defer func() {
		if recover() == nil {
			t.Error("empty data should panic")
		}
	}()
	NewExactQuantiles(nil)
}

func TestFromSorted(t *testing.T) {
	e := FromSorted([]float64{1, 2, 3})
	if e.Quantile(0.5) != 2 {
		t.Error("FromSorted median wrong")
	}
}

func TestMomentsAgainstClosedForm(t *testing.T) {
	// U(0,1): mean 0.5, var 1/12, skew 0, excess kurtosis −1.2.
	rng := rand.New(rand.NewPCG(1, 2))
	var m Moments
	for i := 0; i < 1000000; i++ {
		m.Add(rng.Float64())
	}
	if math.Abs(m.Mean()-0.5) > 0.002 {
		t.Errorf("mean = %v", m.Mean())
	}
	if math.Abs(m.Variance()-1.0/12) > 0.001 {
		t.Errorf("variance = %v", m.Variance())
	}
	if math.Abs(m.Skewness()) > 0.02 {
		t.Errorf("skewness = %v", m.Skewness())
	}
	if math.Abs(m.Kurtosis()+1.2) > 0.02 {
		t.Errorf("kurtosis = %v, want −1.2", m.Kurtosis())
	}
}

func TestKurtosisNormalIsZero(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	data := make([]float64, 1000000)
	for i := range data {
		data[i] = rng.NormFloat64()
	}
	if k := Kurtosis(data); math.Abs(k) > 0.05 {
		t.Errorf("normal kurtosis = %v, want ≈ 0 (excess convention)", k)
	}
}

func TestKurtosisExponential(t *testing.T) {
	// Exponential: excess kurtosis 6.
	rng := rand.New(rand.NewPCG(5, 6))
	data := make([]float64, 2000000)
	for i := range data {
		data[i] = rng.ExpFloat64()
	}
	if k := Kurtosis(data); math.Abs(k-6) > 0.3 {
		t.Errorf("exponential kurtosis = %v, want ≈ 6", k)
	}
}

func TestMomentsMinMax(t *testing.T) {
	var m Moments
	m.AddAll([]float64{3, -1, 7, 2})
	if m.Min() != -1 || m.Max() != 7 || m.N() != 4 {
		t.Error("min/max/n wrong")
	}
}

func TestSummaryCI(t *testing.T) {
	var s Summary
	for _, v := range []float64{10, 12, 8, 11, 9, 10, 12, 8, 10, 10} {
		s.Observe(v)
	}
	if s.N() != 10 {
		t.Fatalf("N = %d", s.N())
	}
	if math.Abs(s.Mean()-10) > 1e-12 {
		t.Errorf("mean = %v", s.Mean())
	}
	// df=9 → t = 2.262; CI = 2.262 · s/√10.
	ci := s.CI95()
	if ci <= 0 || ci > 2 {
		t.Errorf("CI95 = %v, implausible", ci)
	}
	var empty Summary
	if empty.Mean() != 0 || empty.CI95() != 0 {
		t.Error("empty summary should be zero")
	}
	var single Summary
	single.Observe(5)
	if single.CI95() != 0 {
		t.Error("single observation has no CI")
	}
}

func TestTCritical(t *testing.T) {
	if got := tCritical95(9); got != 2.262 {
		t.Errorf("t(9) = %v", got)
	}
	if got := tCritical95(1000); got != 1.96 {
		t.Errorf("t(1000) = %v", got)
	}
	if got := tCritical95(0); got != 0 {
		t.Errorf("t(0) = %v", got)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram([]float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, 0, 10, 5)
	if h.Total() != 10 {
		t.Fatalf("total = %d", h.Total())
	}
	for i := 0; i < 5; i++ {
		if h.Counts[i] != 2 {
			t.Errorf("bin %d = %d, want 2", i, h.Counts[i])
		}
		if h.Density(i) != 0.2 {
			t.Errorf("density %d = %v", i, h.Density(i))
		}
	}
	// Clamping.
	h.Add(-5)
	h.Add(100)
	if h.Counts[0] != 3 || h.Counts[4] != 3 {
		t.Error("out-of-range values should clamp to edge bins")
	}
	if h.Render(10) == "" {
		t.Error("render empty")
	}
}

func TestHistogramPeaks(t *testing.T) {
	// Bimodal: peaks at bins 1 and 3.
	h := &Histogram{Min: 0, Max: 5, Counts: []int64{1, 10, 2, 8, 1}, width: 1}
	for _, c := range h.Counts {
		h.total += c
	}
	peaks := h.PeakBins(0.1)
	if len(peaks) != 2 || peaks[0] != 1 || peaks[1] != 3 {
		t.Errorf("peaks = %v, want [1 3]", peaks)
	}
}

func TestTopValueMass(t *testing.T) {
	data := []float64{1, 1, 1, 2, 2, 3, 4, 5, 6, 7}
	if got := TopValueMass(data, 2); got != 0.5 {
		t.Errorf("top-2 mass = %v, want 0.5", got)
	}
	if got := TopValueMass(nil, 3); got != 0 {
		t.Errorf("empty = %v", got)
	}
	if got := TopValueMass(data, 100); math.Abs(got-1) > 1e-12 {
		t.Errorf("top-all mass = %v, want 1", got)
	}
}

// Property: exact quantile matches a reference implementation on random
// data.
func TestQuickQuantileMatchesSort(t *testing.T) {
	f := func(vals []float32, qFrac uint16) bool {
		if len(vals) == 0 {
			return true
		}
		data := make([]float64, len(vals))
		for i, v := range vals {
			if math.IsNaN(float64(v)) {
				return true
			}
			data[i] = float64(v)
		}
		e := NewExactQuantiles(data)
		sort.Float64s(data)
		q := (float64(qFrac) + 1) / 65537
		idx := int(math.Ceil(q * float64(len(data))))
		if idx < 1 {
			idx = 1
		}
		return e.Quantile(q) == data[idx-1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: streaming Moments matches two-pass computation.
func TestQuickMomentsMatchTwoPass(t *testing.T) {
	f := func(vals []float32) bool {
		if len(vals) < 2 {
			return true
		}
		var m Moments
		var sum float64
		data := make([]float64, len(vals))
		for i, v := range vals {
			x := float64(v) / 1e3
			data[i] = x
			m.Add(x)
			sum += x
		}
		mean := sum / float64(len(data))
		var v2 float64
		for _, x := range data {
			v2 += (x - mean) * (x - mean)
		}
		v2 /= float64(len(data))
		return math.Abs(m.Mean()-mean) < 1e-6*(1+math.Abs(mean)) &&
			math.Abs(m.Variance()-v2) < 1e-6*(1+v2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestWeightedQuantilesUnitWeights: with every weight 1 the weighted
// oracle degenerates to the rank-ceil(qN) definition, so it must agree
// with ExactQuantiles on every queried q — the λ=0 consistency the
// decayed harness evaluation relies on.
func TestWeightedQuantilesUnitWeights(t *testing.T) {
	values := make([]float64, 997)
	state := uint64(12345)
	for i := range values {
		state = state*6364136223846793005 + 1442695040888963407
		values[i] = float64(state>>40) / 1000
	}
	weights := make([]float64, len(values))
	for i := range weights {
		weights[i] = 1
	}
	exact := NewExactQuantiles(values)
	weighted := NewWeightedQuantiles(values, weights)
	for q := 0.01; q <= 1.0; q += 0.01 {
		if got, want := weighted.Quantile(q), exact.Quantile(q); got != want {
			t.Fatalf("q=%v: weighted %v, exact %v", q, got, want)
		}
	}
}

// TestWeightedQuantilesHandComputed pins the weighted definition on a
// small case: values 1..4 with weights 4,1,1,2 (total 8) — the
// cumulative weights 4,5,6,8 place the median (target 4) at value 1
// and q=0.75 (target 6) at value 3.
func TestWeightedQuantilesHandComputed(t *testing.T) {
	w := NewWeightedQuantiles([]float64{3, 1, 4, 2}, []float64{1, 4, 2, 1})
	cases := []struct{ q, want float64 }{
		{0.25, 1}, {0.5, 1}, {0.625, 2}, {0.75, 3}, {1, 4},
	}
	for _, c := range cases {
		if got := w.Quantile(c.q); got != c.want {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

// TestWeightedQuantilesDecayShift: exponentially down-weighting the
// upper half of the data pulls every interior quantile down — the
// qualitative property decayed windows exist for.
func TestWeightedQuantilesDecayShift(t *testing.T) {
	n := 1000
	values := make([]float64, n)
	weights := make([]float64, n)
	for i := range values {
		values[i] = float64(i)
		weights[i] = 1
		if i >= n/2 {
			weights[i] = 0.1 // "old pane" heavily decayed
		}
	}
	plain := NewExactQuantiles(values)
	decayed := NewWeightedQuantiles(values, weights)
	for _, q := range []float64{0.5, 0.75, 0.9} {
		if got, ref := decayed.Quantile(q), plain.Quantile(q); got >= ref {
			t.Errorf("q=%v: decayed %v, want below undecayed %v", q, got, ref)
		}
	}
}

// TestExactRankInfNaN pins ExactQuantiles.Rank to sketch.Rank's
// contract at the edges: x ≥ the maximum counts every element, +Inf
// elements included, and NaN counts none.
func TestExactRankInfNaN(t *testing.T) {
	e := NewExactQuantiles([]float64{1, 2, math.Inf(1), 3})
	if got := e.Rank(math.Inf(1)); got != 4 {
		t.Errorf("Rank(+Inf) over {1, 2, +Inf, 3} = %d, want 4", got)
	}
	if got := e.Rank(math.MaxFloat64); got != 3 {
		t.Errorf("Rank(MaxFloat64) over {1, 2, +Inf, 3} = %d, want 3", got)
	}
	e = NewExactQuantiles([]float64{1, 2, 3})
	if got := e.Rank(math.NaN()); got != 0 {
		t.Errorf("Rank(NaN) over {1, 2, 3} = %d, want 0", got)
	}
	if got := e.Rank(math.Inf(-1)); got != 0 {
		t.Errorf("Rank(-Inf) over {1, 2, 3} = %d, want 0", got)
	}
	if got := RankError(e, 0.9, math.NaN()); got != 0.9 {
		t.Errorf("RankError(0.9, NaN) = %v, want 0.9 (NaN ranks 0)", got)
	}
}
