// Package moments implements the Moments Sketch (Gan, Ding, Tai, Sharan,
// Bailis; VLDB 2018): a constant-size summary holding min, max and the
// first k raw power sums Σxⁱ of the stream. Quantiles are estimated at
// query time by fitting the maximum-entropy distribution consistent with
// those moments (internal/maxent) and inverting its CDF.
//
// Like the reference implementation the study evaluates, the sketch keeps
// only standard moments (no log moments) — fewer than 20 numbers at
// k = 12 (paper Sec 4.3, the 0.14 KB row of Table 3) — and supports an
// input transform (log or arcsinh) for data spanning many orders of
// magnitude, which the study applies to the Pareto and Power data sets
// (Sec 4.2).
//
// Merging adds the power sums and recomputes min/max — the cheapest merge
// of any sketch in the study by an order of magnitude (Fig 5c).
package moments

import (
	"fmt"
	"math"

	"repro/internal/maxent"
	"repro/internal/sketch"
)

// DefaultK is the study's moment count: 12, below the ~15-moment
// numerical-stability limit reported by Gan et al. (Sec 4.2).
const DefaultK = 12

// MinCardinality is the smallest stream size the solver accepts; the
// paper notes "a minimum cardinality of 5 is required for this sketch or
// its underlying algorithm will fail" (Sec 3.2).
const MinCardinality = 5

// ErrTooFewValues is returned by queries on sketches holding fewer than
// MinCardinality values.
var ErrTooFewValues = fmt.Errorf("moments: fewer than %d values: %w", MinCardinality, sketch.ErrUnsupportedValue)

// ErrSolverFailed wraps max-entropy solver failures at query time.
var ErrSolverFailed = fmt.Errorf("moments: max-entropy solve failed")

// Transform selects an input transformation applied before accumulating
// power sums; estimates are mapped back through the inverse at query time.
type Transform uint8

// Supported transforms.
const (
	// TransformNone accumulates raw values.
	TransformNone Transform = iota
	// TransformLog accumulates ln(x); requires positive data. The study
	// uses it for the Pareto and Power data sets.
	TransformLog
	// TransformArcsinh accumulates asinh(x), the transform recommended
	// for large-magnitude data of arbitrary sign (Sec 3.2).
	TransformArcsinh
)

func (t Transform) String() string {
	switch t {
	case TransformNone:
		return "none"
	case TransformLog:
		return "log"
	case TransformArcsinh:
		return "arcsinh"
	default:
		return fmt.Sprintf("transform(%d)", uint8(t))
	}
}

func (t Transform) apply(x float64) float64 {
	switch t {
	case TransformLog:
		return math.Log(x)
	case TransformArcsinh:
		return math.Asinh(x)
	default:
		return x
	}
}

func (t Transform) invert(y float64) float64 {
	switch t {
	case TransformLog:
		return math.Exp(y)
	case TransformArcsinh:
		return math.Sinh(y)
	default:
		return y
	}
}

// Sketch is a Moments Sketch instance.
type Sketch struct {
	k         int
	transform Transform
	gridSize  int

	powerSums []float64 // powerSums[i] = Σ y^i of transformed values; [0] = count
	min, max  float64   // transformed domain

	// Query-time solution cache, invalidated by Insert/Merge: solving the
	// max-entropy problem is the expensive part of a query (Fig 5b), so a
	// multi-quantile query solves once. The solver is retained across
	// epochs both for its precomputed grid and for its warm-start state.
	solved *maxent.Density
	solver *maxent.Solver

	// Reusable solve-time scratch: the normalized raw moments, and the
	// reduced-k solvers of the robustness fallback chain (each carries a
	// precomputed Chebyshev grid that is expensive to rebuild per retry).
	rawScratch []float64
	fallback   map[int]*maxent.Solver
}

var _ sketch.Sketch = (*Sketch)(nil)

// New returns a Moments Sketch holding k power sums (k ≥ 2) with no input
// transform and the default solver grid.
func New(k int) *Sketch { return NewWithTransform(k, TransformNone) }

// NewWithTransform returns a Moments Sketch with an input transform.
// It panics if k < 2.
func NewWithTransform(k int, tr Transform) *Sketch {
	if k < 2 {
		panic(fmt.Sprintf("moments: need k >= 2, got %d", k))
	}
	return &Sketch{
		k:         k,
		transform: tr,
		gridSize:  maxent.DefaultGridSize,
		powerSums: make([]float64, k),
		min:       math.Inf(1),
		max:       math.Inf(-1),
	}
}

// MaxGridSize bounds the solver quadrature grid; larger requests clamp.
const MaxGridSize = 1 << 20

// SetGridSize overrides the solver quadrature grid (accuracy/query-time
// trade-off, Sec 4.5.5). It must be called before the first query;
// values clamp to [8, MaxGridSize].
func (s *Sketch) SetGridSize(n int) {
	if n < 8 {
		n = 8
	}
	if n > MaxGridSize {
		n = MaxGridSize
	}
	s.gridSize = n
	s.solver = nil
	s.solved = nil
	s.fallback = nil
}

// Name implements sketch.Sketch.
func (s *Sketch) Name() string { return "moments" }

// K returns the number of power sums held.
func (s *Sketch) K() int { return s.k }

// Transform returns the configured input transform.
func (s *Sketch) Transform() Transform { return s.transform }

// PowerSums returns a copy of the raw power sums Σyⁱ (y the transformed
// values); PowerSums()[0] is the count.
func (s *Sketch) PowerSums() []float64 {
	return append([]float64(nil), s.powerSums...)
}

// Insert implements sketch.Sketch. NaNs are ignored, as are non-positive
// values under TransformLog (they cannot be represented).
func (s *Sketch) Insert(x float64) { s.InsertN(x, 1) }

// InsertN adds n occurrences of x in O(k).
func (s *Sketch) InsertN(x float64, n uint64) {
	if math.IsNaN(x) || n == 0 {
		return
	}
	if s.transform == TransformLog && x <= 0 {
		return
	}
	if metrics != nil {
		metrics.Inserts.Add(int64(n))
	}
	y := s.transform.apply(x)
	w := float64(n)
	cur := 1.0
	for i := 0; i < s.k; i++ {
		s.powerSums[i] += w * cur
		cur *= y
	}
	if y < s.min {
		s.min = y
	}
	if y > s.max {
		s.max = y
	}
	s.solved = nil
	s.assertInvariants("insert")
}

// Count implements sketch.Sketch.
func (s *Sketch) Count() uint64 { return uint64(s.powerSums[0]) }

// solve fits the max-entropy density for the current moments, caching the
// result until the next mutation.
func (s *Sketch) solve() (*maxent.Density, error) {
	if s.solved != nil {
		return s.solved, nil
	}
	if metrics != nil {
		metrics.PeakBytes.Max(int64(s.MemoryBytes()))
	}
	n := s.powerSums[0]
	if n < MinCardinality {
		return nil, ErrTooFewValues
	}
	if s.max <= s.min {
		return nil, nil // degenerate: all values equal; handled by caller
	}
	// Scale the transformed domain onto [−1, 1]: t = a·y + b.
	a := 2 / (s.max - s.min)
	b := -(s.max + s.min) / (s.max - s.min)
	if cap(s.rawScratch) < s.k {
		s.rawScratch = make([]float64, s.k)
	}
	raw := s.rawScratch[:s.k]
	for i := range raw {
		raw[i] = s.powerSums[i] / n
	}
	scaled := maxent.ShiftPowerMoments(raw, a, b)
	cheb := maxent.PowerToChebyshevMoments(scaled)
	if s.solver == nil || s.solver.K() != s.k {
		s.solver = maxent.NewSolver(s.k, s.gridSize)
	}
	d, err := s.solver.Solve(cheb)
	if err != nil {
		// Degrade gracefully: retry with fewer moments, which is always
		// better conditioned; with 2 moments (count & mean) the solve is
		// trivial. This mirrors the reference solver's robustness fallback.
		for k := s.k - 2; k >= 4; k -= 2 {
			sub := s.fallback[k]
			if sub == nil {
				sub = maxent.NewSolver(k, s.gridSize)
				if s.fallback == nil {
					s.fallback = make(map[int]*maxent.Solver)
				}
				s.fallback[k] = sub
			}
			if d2, err2 := sub.Solve(cheb[:k]); err2 == nil {
				s.solved = d2
				return d2, nil
			}
		}
		return nil, fmt.Errorf("%w: %v", ErrSolverFailed, err)
	}
	s.solved = d
	return d, nil
}

// Quantile implements sketch.Sketch by inverting the CDF of the fitted
// max-entropy density.
func (s *Sketch) Quantile(q float64) (float64, error) {
	if err := sketch.CheckQuantile(q); err != nil {
		return 0, err
	}
	if s.powerSums[0] == 0 {
		return 0, sketch.ErrEmpty
	}
	d, err := s.solve()
	if err != nil {
		return 0, err
	}
	return s.quantileFromDensity(d, q), nil
}

// quantileFromDensity inverts the fitted CDF for one valid q. A nil
// density means all values were identical.
func (s *Sketch) quantileFromDensity(d *maxent.Density, q float64) float64 {
	if d == nil {
		return s.transform.invert(s.min)
	}
	t := d.QuantileT(q)
	// Map t ∈ [−1,1] back to the transformed domain, then invert the
	// transform.
	y := s.min + (t+1)/2*(s.max-s.min)
	return s.transform.invert(y)
}

// Rank implements sketch.Sketch via the fitted CDF.
func (s *Sketch) Rank(x float64) (float64, error) {
	if s.powerSums[0] == 0 {
		return 0, sketch.ErrEmpty
	}
	d, err := s.solve()
	if err != nil {
		return 0, err
	}
	if math.IsNaN(x) || s.transform == TransformLog && x <= 0 {
		return 0, nil
	}
	y := s.transform.apply(x)
	if d == nil {
		if y >= s.min {
			return 1, nil
		}
		return 0, nil
	}
	t := 2*(y-s.min)/(s.max-s.min) - 1
	return d.CDFT(t), nil
}

// Merge implements sketch.Sketch: power sums add elementwise; min/max
// combine (Sec 3.2). Sketches must agree on k and transform.
func (s *Sketch) Merge(other sketch.Sketch) error {
	o, err := s.mergeable(other)
	if err != nil {
		return err
	}
	mergedCount := s.powerSums[0] + o.powerSums[0]
	for i := range s.powerSums {
		s.powerSums[i] += o.powerSums[i]
	}
	if o.min < s.min {
		s.min = o.min
	}
	if o.max > s.max {
		s.max = o.max
	}
	s.solved = nil
	s.assertCount("merge", mergedCount)
	return nil
}

// mergeable returns other as a Moments Sketch with the receiver's k and
// transform, or the ErrIncompatible a merge of it must fail with.
func (s *Sketch) mergeable(other sketch.Sketch) (*Sketch, error) {
	o, ok := other.(*Sketch)
	if !ok {
		return nil, fmt.Errorf("%w: cannot merge %s into moments", sketch.ErrIncompatible, other.Name())
	}
	if o.k != s.k || o.transform != s.transform {
		return nil, fmt.Errorf("%w: config mismatch (k=%d,%v) vs (k=%d,%v)",
			sketch.ErrIncompatible, s.k, s.transform, o.k, o.transform)
	}
	return o, nil
}

// MemoryBytes implements sketch.Sketch: k power sums plus min and max and
// configuration — under 20 numbers at k = 12 (Table 3's 0.14 KB).
func (s *Sketch) MemoryBytes() int {
	return 8 * (s.k + 2 + 3)
}

// Footprint implements sketch.Footprinter: the structural power-sum
// state plus the retained solver scratch (the normalized-moment buffer;
// the solver grids are shared query-time machinery rebuilt on demand
// and already bounded by SetGridSize).
func (s *Sketch) Footprint() int {
	return s.MemoryBytes() + 8*cap(s.rawScratch)
}

// Degrade implements sketch.Degrader: the Moments Sketch is fixed-size
// by construction — k power sums regardless of stream length — so there
// is no accuracy-for-memory knob to turn; it always reports
// ErrNotDegradable and the budget governor moves past it.
func (s *Sketch) Degrade() (int, error) {
	return 0, sketch.ErrNotDegradable
}

// Reset implements sketch.Sketch.
func (s *Sketch) Reset() {
	for i := range s.powerSums {
		s.powerSums[i] = 0
	}
	s.min = math.Inf(1)
	s.max = math.Inf(-1)
	s.discardWarmStarts()
}

// discardWarmStarts forgets every solver's warm-start multipliers and
// any cached density derived from them. Warm-started Newton converges
// to a (numerically) slightly different solution than a cold start, so
// at boundaries where answers must be a pure function of sketch state —
// serialization, reset — the history-dependent state has to go: a
// round-tripped replica and the original must both cold-start their
// next solve and agree bitwise.
func (s *Sketch) discardWarmStarts() {
	s.solved = nil
	if s.solver != nil {
		s.solver.DiscardWarm()
	}
	//lint:ignore purity each DiscardWarm clears one solver's private cache and emits nothing; the visit order cannot reach the encoded bytes
	for _, sub := range s.fallback {
		sub.DiscardWarm()
	}
}

// MarshalBinary implements encoding.BinaryMarshaler. The wire format
// carries only the power-sum state; the solver's warm-start cache is
// discarded on the way out so the origin answers future queries exactly
// like a replica decoded from the blob.
func (s *Sketch) MarshalBinary() ([]byte, error) {
	s.discardWarmStarts()
	w := sketch.NewWriter(32 + 8*s.k)
	w.Header(sketch.TagMoments)
	w.Byte(byte(s.transform))
	w.U32(uint32(s.k))
	w.U32(uint32(s.gridSize))
	w.F64(s.min)
	w.F64(s.max)
	w.F64s(s.powerSums)
	return w.Bytes(), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (s *Sketch) UnmarshalBinary(data []byte) error {
	r := sketch.NewReader(data)
	if err := r.Header(sketch.TagMoments); err != nil {
		return err
	}
	tr := Transform(r.Byte())
	k := int(r.U32())
	gridSize := int(r.U32())
	minV := r.F64()
	maxV := r.F64()
	sums := r.F64s()
	if r.Err() != nil {
		return r.Err()
	}
	if k < 2 || k > 64 || len(sums) != k || tr > TransformArcsinh || r.Remaining() != 0 {
		return sketch.ErrCorrupt
	}
	// Decoded grids are bounded far tighter than SetGridSize's clamp:
	// each Newton step costs O(k²·grid) and the solver tabulates
	// (2k−1)·grid float64s, so untrusted input must not dictate the
	// solve cost. 4096 leaves 4× headroom over the default grid.
	if gridSize < 8 || gridSize > 1<<12 {
		return sketch.ErrCorrupt
	}
	// Structural validation mirrors the invariants-tag assertions so a
	// decodable payload can never resurrect an impossible state: the
	// count sum must be a finite non-negative float, even power sums are
	// sums of non-negative terms, and a non-empty sketch needs ordered
	// non-NaN bounds.
	if !(sums[0] >= 0) || math.IsInf(sums[0], 0) {
		return sketch.ErrCorrupt
	}
	for i := 2; i < k; i += 2 {
		if !(sums[i] >= 0) {
			return sketch.ErrCorrupt
		}
	}
	if sums[0] > 0 && (math.IsNaN(minV) || math.IsNaN(maxV) || !(minV <= maxV)) {
		return sketch.ErrCorrupt
	}
	ns := NewWithTransform(k, tr)
	ns.gridSize = gridSize
	ns.min = minV
	ns.max = maxV
	copy(ns.powerSums, sums)
	ns.assertInvariants("unmarshal")
	*s = *ns
	return nil
}
