// Package stats provides the exact ground-truth computations and error
// metrics the study evaluates sketches against: exact quantiles and ranks
// over a materialized window, relative and rank error (paper Sec 2.2),
// excess kurtosis (Sec 2.3), and mean/95%-confidence-interval aggregation
// used for every reported figure.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by computations over empty data.
var ErrEmpty = errors.New("stats: empty data")

// ExactQuantiles answers exact q-quantile queries over one data set by
// sorting a private copy once. It is the oracle the harness compares every
// sketch estimate against.
type ExactQuantiles struct {
	sorted []float64
}

// NewExactQuantiles copies and sorts data. It panics on empty input since
// the harness always materializes non-empty windows. A caller that owns
// data and no longer needs its order can skip the copy: SortFloat64 it
// and wrap it with FromSorted.
func NewExactQuantiles(data []float64) *ExactQuantiles {
	if len(data) == 0 {
		panic("stats: NewExactQuantiles on empty data")
	}
	s := make([]float64, len(data))
	copy(s, data)
	SortFloat64(s)
	return &ExactQuantiles{sorted: s}
}

// FromSorted wraps an already-sorted slice without copying. The caller
// must not mutate data afterwards.
func FromSorted(data []float64) *ExactQuantiles {
	if len(data) == 0 {
		panic("stats: FromSorted on empty data")
	}
	return &ExactQuantiles{sorted: data}
}

// N returns the data size.
func (e *ExactQuantiles) N() int { return len(e.sorted) }

// Quantile returns the exact q-quantile: the element of rank ceil(qN) in
// the sorted data (the paper's Sec 2.1 definition), for q in (0, 1].
func (e *ExactQuantiles) Quantile(q float64) float64 {
	n := len(e.sorted)
	idx := int(math.Ceil(q * float64(n)))
	if idx < 1 {
		idx = 1
	}
	if idx > n {
		idx = n
	}
	return e.sorted[idx-1]
}

// Rank returns the number of elements less than or equal to x: all of
// them for x ≥ Max, +Inf included, and 0 for NaN, as sketch.Rank
// defines it.
func (e *ExactQuantiles) Rank(x float64) int {
	if math.IsNaN(x) {
		return 0
	}
	if x >= e.Max() {
		return len(e.sorted)
	}
	return sort.SearchFloat64s(e.sorted, math.Nextafter(x, math.Inf(1)))
}

// NormalizedRank returns Rank(x)/N, i.e. Quantile⁻¹(x) in the paper's
// notation.
func (e *ExactQuantiles) NormalizedRank(x float64) float64 {
	return float64(e.Rank(x)) / float64(len(e.sorted))
}

// WeightedQuantiles answers exact quantile queries over a weighted
// multiset — the ground truth for exponentially time-decayed windows,
// where each pane's values carry weight exp(-λ·age). It generalizes
// ExactQuantiles: with all weights 1 the two agree on every q.
type WeightedQuantiles struct {
	sorted []float64
	cum    []float64 // cumulative weight through sorted[i]
}

// NewWeightedQuantiles copies values (with their parallel weights),
// sorts by value and accumulates the weights. Weights must be positive
// and finite; it panics on empty or mismatched input, mirroring
// NewExactQuantiles.
func NewWeightedQuantiles(values, weights []float64) *WeightedQuantiles {
	if len(values) == 0 || len(values) != len(weights) {
		panic("stats: NewWeightedQuantiles needs matching non-empty values and weights")
	}
	idx := make([]int, len(values))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return values[idx[a]] < values[idx[b]] })
	w := &WeightedQuantiles{
		sorted: make([]float64, len(values)),
		cum:    make([]float64, len(values)),
	}
	var total float64
	for i, j := range idx {
		w.sorted[i] = values[j]
		total += weights[j]
		w.cum[i] = total
	}
	return w
}

// Quantile returns the weighted q-quantile: the smallest element whose
// cumulative weight reaches q·totalWeight — the weighted analogue of
// the rank-ceil(qN) definition of ExactQuantiles.Quantile.
func (w *WeightedQuantiles) Quantile(q float64) float64 {
	target := q * w.cum[len(w.cum)-1]
	i := sort.SearchFloat64s(w.cum, target)
	if i >= len(w.sorted) {
		i = len(w.sorted) - 1
	}
	return w.sorted[i]
}

// Min returns the smallest element.
func (e *ExactQuantiles) Min() float64 { return e.sorted[0] }

// Max returns the largest element.
func (e *ExactQuantiles) Max() float64 { return e.sorted[len(e.sorted)-1] }

// RelativeError computes |x̂−x|/|x|, the error measure used throughout the
// study (Sec 2.2). When the true value is exactly zero it falls back to
// absolute error so the metric stays finite.
func RelativeError(truth, estimate float64) float64 {
	if truth == 0 {
		return math.Abs(estimate)
	}
	return math.Abs(truth-estimate) / math.Abs(truth)
}

// RankError computes |q − Rank(x̂)/N| for an estimate x̂ of the q-quantile
// (Sec 2.2), using the exact oracle for Rank.
func RankError(e *ExactQuantiles, q, estimate float64) float64 {
	return math.Abs(q - e.NormalizedRank(estimate))
}

// Moments of a sample, accumulated in one pass using Welford-style central
// moment updates so kurtosis is numerically stable on long streams.
type Moments struct {
	n             int64
	mean          float64
	m2, m3, m4    float64
	min, max, sum float64
	initialized   bool
}

// Add folds one observation into the accumulator.
func (m *Moments) Add(x float64) {
	if !m.initialized {
		m.min, m.max = x, x
		m.initialized = true
	} else {
		if x < m.min {
			m.min = x
		}
		if x > m.max {
			m.max = x
		}
	}
	m.sum += x
	n1 := float64(m.n)
	m.n++
	n := float64(m.n)
	delta := x - m.mean
	deltaN := delta / n
	deltaN2 := deltaN * deltaN
	term1 := delta * deltaN * n1
	m.mean += deltaN
	m.m4 += term1*deltaN2*(n*n-3*n+3) + 6*deltaN2*m.m2 - 4*deltaN*m.m3
	m.m3 += term1*deltaN*(n-2) - 3*deltaN*m.m2
	m.m2 += term1
}

// AddAll folds every element of xs.
func (m *Moments) AddAll(xs []float64) {
	for _, x := range xs {
		m.Add(x)
	}
}

// N returns the number of observations.
func (m *Moments) N() int64 { return m.n }

// Mean returns the sample mean.
func (m *Moments) Mean() float64 { return m.mean }

// Variance returns the population variance.
func (m *Moments) Variance() float64 {
	if m.n == 0 {
		return 0
	}
	return m.m2 / float64(m.n)
}

// StdDev returns the population standard deviation.
func (m *Moments) StdDev() float64 { return math.Sqrt(m.Variance()) }

// Skewness returns the sample skewness.
func (m *Moments) Skewness() float64 {
	if m.m2 == 0 {
		return 0
	}
	return math.Sqrt(float64(m.n)) * m.m3 / math.Pow(m.m2, 1.5)
}

// Kurtosis returns the excess kurtosis (normal distribution → 0), the
// convention the paper adopts in Sec 2.3.
func (m *Moments) Kurtosis() float64 {
	if m.m2 == 0 {
		return 0
	}
	return float64(m.n)*m.m4/(m.m2*m.m2) - 3
}

// Min returns the smallest observation (0 if none).
func (m *Moments) Min() float64 { return m.min }

// Max returns the largest observation (0 if none).
func (m *Moments) Max() float64 { return m.max }

// Kurtosis computes the excess kurtosis of xs in one call.
func Kurtosis(xs []float64) float64 {
	var m Moments
	m.AddAll(xs)
	return m.Kurtosis()
}

// Summary aggregates repeated scalar measurements (one per experiment run)
// into the mean and 95% confidence interval the paper's error bars report.
type Summary struct {
	values []float64
}

// Observe records one measurement.
func (s *Summary) Observe(v float64) { s.values = append(s.values, v) }

// N returns the number of recorded measurements.
func (s *Summary) N() int { return len(s.values) }

// Mean returns the sample mean, or 0 when empty.
func (s *Summary) Mean() float64 {
	if len(s.values) == 0 {
		return 0
	}
	var sum float64
	for _, v := range s.values {
		sum += v
	}
	return sum / float64(len(s.values))
}

// StdErr returns the standard error of the mean.
func (s *Summary) StdErr() float64 {
	n := len(s.values)
	if n < 2 {
		return 0
	}
	mean := s.Mean()
	var ss float64
	for _, v := range s.values {
		d := v - mean
		ss += d * d
	}
	return math.Sqrt(ss / float64(n-1) / float64(n))
}

// CI95 returns the half-width of the 95% confidence interval around the
// mean using the Student-t critical value for the observed sample size.
func (s *Summary) CI95() float64 {
	return tCritical95(len(s.values)-1) * s.StdErr()
}

// tCritical95 returns the two-sided 95% Student-t critical value for df
// degrees of freedom. Values for small df are tabulated (the harness runs
// 10 repetitions, df=9 → 2.262); large df fall back to the normal 1.96.
func tCritical95(df int) float64 {
	table := []float64{
		0, 12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262,
		2.228, 2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101,
		2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052,
		2.048, 2.045, 2.042,
	}
	if df <= 0 {
		return 0
	}
	if df < len(table) {
		return table[df]
	}
	return 1.96
}
