package moments

import (
	"fmt"
	"math"

	"repro/internal/maxent"
	"repro/internal/sketch"
)

// FullSketch is the Moments Sketch as originally designed by Gan et al.:
// it maintains BOTH the standard power sums Σxⁱ and the log power sums
// Σ(ln x)ⁱ, and solves the max-entropy problem subject to both moment
// sets jointly. The study's implementation "keeps only standard moments
// and avoids maintaining log moments" (Sec 4.3); this variant exists to
// measure what that simplification costs (experiment ablation-grid's
// sibling analysis) — the joint constraints capture heavy-tailed shapes
// without the harness having to choose a transform per data set.
//
// FullSketch accepts positive values only (the log basis requires it);
// non-positive inserts are ignored, mirroring TransformLog.
type FullSketch struct {
	k         int
	gridSize  int
	powerSums []float64 // Σ x^i, [0] = count
	logSums   []float64 // Σ (ln x)^i, [0] = count (same)
	min, max  float64   // raw domain

	solved *maxent.GridDensity
}

var _ sketch.Sketch = (*FullSketch)(nil)

// NewFull returns a full Moments Sketch holding k standard and k log
// power sums (2k−1 joint constraints). It panics if k < 2.
func NewFull(k int) *FullSketch {
	if k < 2 {
		panic(fmt.Sprintf("moments: need k >= 2, got %d", k))
	}
	return &FullSketch{
		k:         k,
		gridSize:  maxent.DefaultGridSize,
		powerSums: make([]float64, k),
		logSums:   make([]float64, k),
		min:       math.Inf(1),
		max:       math.Inf(-1),
	}
}

// Name implements sketch.Sketch.
func (s *FullSketch) Name() string { return "moments-full" }

// K returns the per-basis moment count.
func (s *FullSketch) K() int { return s.k }

// Insert implements sketch.Sketch; non-positive values and NaNs are
// ignored (the log basis cannot represent them).
func (s *FullSketch) Insert(x float64) { s.InsertN(x, 1) }

// InsertN adds n occurrences of x in O(k).
func (s *FullSketch) InsertN(x float64, n uint64) {
	if math.IsNaN(x) || x <= 0 || n == 0 {
		return
	}
	w := float64(n)
	lx := math.Log(x)
	curP, curL := 1.0, 1.0
	for i := 0; i < s.k; i++ {
		s.powerSums[i] += w * curP
		s.logSums[i] += w * curL
		curP *= x
		curL *= lx
	}
	if x < s.min {
		s.min = x
	}
	if x > s.max {
		s.max = x
	}
	s.solved = nil
	s.assertInvariants("insert")
}

// Count implements sketch.Sketch.
func (s *FullSketch) Count() uint64 { return uint64(s.powerSums[0]) }

// solve fits the joint max-entropy density on an x-domain grid.
func (s *FullSketch) solve() error {
	if s.solved != nil {
		return nil
	}
	n := s.powerSums[0]
	if n < MinCardinality {
		return ErrTooFewValues
	}
	if s.max <= s.min {
		return nil // degenerate, handled by callers
	}
	gs := s.gridSize
	// The grid is uniform in LOG space: the log basis varies fastest near
	// the minimum and the polynomial basis is smooth everywhere, so log
	// spacing resolves both. Quadrature weights carry the Jacobian
	// dx = x·du.
	lmin, lmax := math.Log(s.min), math.Log(s.max)
	du := (lmax - lmin) / float64(gs)
	xs := make([]float64, gs)
	weights := make([]float64, gs)
	for g := range xs {
		u := lmin + (float64(g)+0.5)*du
		xs[g] = math.Exp(u)
		weights[g] = xs[g] * du
	}
	// Standard basis: T_i(t), t = affine(x) onto [−1, 1].
	at := 2 / (s.max - s.min)
	bt := -(s.max + s.min) / (s.max - s.min)
	// Log basis: T_j(u), u = affine(ln x) onto [−1, 1].
	au := 2 / (lmax - lmin)
	bu := -(lmax + lmin) / (lmax - lmin)

	coeffs := maxent.ChebyshevCoefficients(s.k)
	evalCheb := func(poly []float64, v float64) float64 {
		out := 0.0
		p := 1.0
		for _, c := range poly {
			out += c * p
			p *= v
		}
		return out
	}
	total := 2*s.k - 1
	basis := make([][]float64, total)
	basis[0] = make([]float64, gs)
	for g := range basis[0] {
		basis[0][g] = 1
	}
	for i := 1; i < s.k; i++ {
		rowT := make([]float64, gs)
		rowU := make([]float64, gs)
		for g := 0; g < gs; g++ {
			rowT[g] = evalCheb(coeffs[i], at*xs[g]+bt)
			rowU[g] = evalCheb(coeffs[i], au*math.Log(xs[g])+bu)
		}
		basis[i] = rowT
		basis[s.k-1+i] = rowU
	}

	// Targets: Chebyshev moments in each basis.
	rawP := make([]float64, s.k)
	rawL := make([]float64, s.k)
	for i := 0; i < s.k; i++ {
		rawP[i] = s.powerSums[i] / n
		rawL[i] = s.logSums[i] / n
	}
	chebT := maxent.PowerToChebyshevMoments(maxent.ShiftPowerMoments(rawP, at, bt))
	chebU := maxent.PowerToChebyshevMoments(maxent.ShiftPowerMoments(rawL, au, bu))
	d := make([]float64, total)
	d[0] = 1
	copy(d[1:s.k], chebT[1:])
	copy(d[s.k:], chebU[1:])

	solver, err := maxent.NewGridSolver(basis, weights)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrSolverFailed, err)
	}
	dens, err := solver.Solve(d)
	if err != nil {
		// Degrade to fewer constraints per basis, which is always better
		// conditioned.
		for k := s.k - 2; k >= 3; k-- {
			sub := make([][]float64, 2*k-1)
			subD := make([]float64, 2*k-1)
			sub[0] = basis[0]
			subD[0] = 1
			for i := 1; i < k; i++ {
				sub[i] = basis[i]
				subD[i] = d[i]
				sub[k-1+i] = basis[s.k-1+i]
				subD[k-1+i] = d[s.k-1+i]
			}
			ss, err2 := maxent.NewGridSolver(sub, weights)
			if err2 != nil {
				continue
			}
			if dn, err2 := ss.Solve(subD); err2 == nil {
				s.solved = dn
				return nil
			}
		}
		return fmt.Errorf("%w: %v", ErrSolverFailed, err)
	}
	s.solved = dens
	return nil
}

// Quantile implements sketch.Sketch.
func (s *FullSketch) Quantile(q float64) (float64, error) {
	if err := sketch.CheckQuantile(q); err != nil {
		return 0, err
	}
	if s.powerSums[0] == 0 {
		return 0, sketch.ErrEmpty
	}
	if err := s.solve(); err != nil {
		return 0, err
	}
	if s.solved == nil { // all values identical
		return s.min, nil
	}
	cell := s.solved.QuantileCell(q)
	lmin, lmax := math.Log(s.min), math.Log(s.max)
	du := (lmax - lmin) / float64(s.gridSize)
	x := math.Exp(lmin + (cell+0.5)*du)
	if x < s.min {
		x = s.min
	}
	if x > s.max {
		x = s.max
	}
	return x, nil
}

// Rank implements sketch.Sketch.
func (s *FullSketch) Rank(x float64) (float64, error) {
	if s.powerSums[0] == 0 {
		return 0, sketch.ErrEmpty
	}
	if err := s.solve(); err != nil {
		return 0, err
	}
	if math.IsNaN(x) {
		return 0, nil
	}
	if s.solved == nil {
		if x >= s.min {
			return 1, nil
		}
		return 0, nil
	}
	if x <= 0 {
		return 0, nil
	}
	lmin, lmax := math.Log(s.min), math.Log(s.max)
	du := (lmax - lmin) / float64(s.gridSize)
	cell := (math.Log(x)-lmin)/du - 0.5
	return s.solved.CDFCell(cell), nil
}

// Merge implements sketch.Sketch.
func (s *FullSketch) Merge(other sketch.Sketch) error {
	o, ok := other.(*FullSketch)
	if !ok {
		return fmt.Errorf("%w: cannot merge %s into moments-full", sketch.ErrIncompatible, other.Name())
	}
	if o.k != s.k {
		return fmt.Errorf("%w: k mismatch %d vs %d", sketch.ErrIncompatible, s.k, o.k)
	}
	mergedCount := s.Count() + o.Count()
	for i := range s.powerSums {
		s.powerSums[i] += o.powerSums[i]
		s.logSums[i] += o.logSums[i]
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

// MemoryBytes implements sketch.Sketch: 2k sums plus min/max and config.
func (s *FullSketch) MemoryBytes() int { return 8 * (2*s.k + 5) }

// Reset implements sketch.Sketch.
func (s *FullSketch) Reset() {
	for i := range s.powerSums {
		s.powerSums[i] = 0
		s.logSums[i] = 0
	}
	s.min = math.Inf(1)
	s.max = math.Inf(-1)
	s.solved = nil
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (s *FullSketch) MarshalBinary() ([]byte, error) {
	w := sketch.NewWriter(48 + 16*s.k)
	w.Byte(0x0A) // private tag: the full variant is an extension
	w.Byte(sketch.SerdeVersion)
	w.U32(uint32(s.k))
	w.U32(uint32(s.gridSize))
	w.F64(s.min)
	w.F64(s.max)
	w.F64s(s.powerSums)
	w.F64s(s.logSums)
	return w.Bytes(), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (s *FullSketch) UnmarshalBinary(data []byte) error {
	r := sketch.NewReader(data)
	if r.Byte() != 0x0A || r.Byte() != sketch.SerdeVersion {
		return sketch.ErrCorrupt
	}
	k := int(r.U32())
	gridSize := int(r.U32())
	minV := r.F64()
	maxV := r.F64()
	ps := r.F64s()
	ls := r.F64s()
	if r.Err() != nil {
		return r.Err()
	}
	if k < 2 || k > 64 || gridSize < 8 || gridSize > 1<<12 ||
		len(ps) != k || len(ls) != k || r.Remaining() != 0 {
		return sketch.ErrCorrupt
	}
	// Structural validation mirrors the invariants-tag assertions. All
	// inserted values are strictly positive, so every standard power sum
	// and every even log sum is a sum of non-negative terms, and a
	// non-empty sketch needs ordered positive bounds.
	if !(ps[0] >= 0) || math.IsInf(ps[0], 0) || math.Float64bits(ls[0]) != math.Float64bits(ps[0]) {
		return sketch.ErrCorrupt
	}
	for i := 1; i < k; i++ {
		if !(ps[i] >= 0) {
			return sketch.ErrCorrupt
		}
	}
	for i := 2; i < k; i += 2 {
		if !(ls[i] >= 0) {
			return sketch.ErrCorrupt
		}
	}
	if ps[0] > 0 && (math.IsNaN(minV) || math.IsNaN(maxV) || !(minV > 0 && minV <= maxV)) {
		return sketch.ErrCorrupt
	}
	ns := NewFull(k)
	ns.gridSize = gridSize
	ns.min = minV
	ns.max = maxV
	copy(ns.powerSums, ps)
	copy(ns.logSums, ls)
	ns.assertInvariants("unmarshal")
	*s = *ns
	return nil
}
