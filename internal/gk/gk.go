// Package gk implements the Greenwald–Khanna quantile summary (SIGMOD
// 2001), the classic deterministic additive-rank-error sketch that the
// modern algorithms in this repository descend from (the study's related
// work, Sec 5.1: GKAdaptive/GKArray are its tuned variants).
//
// The summary is a sorted list of tuples (v, g, Δ) where g is the gap in
// minimum rank to the previous tuple and Δ bounds the rank uncertainty;
// the invariant g + Δ ≤ ⌊2εn⌋ guarantees every rank query within εn.
// GK is *not* losslessly mergeable — Merge here concatenates and
// compresses, doubling the error bound in the worst case, which is one
// of the reasons the study's five sketches superseded it.
package gk

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/sketch"
)

// DefaultEpsilon matches the study's 1% accuracy target.
const DefaultEpsilon = 0.01

// tuple is one summary entry.
type tuple struct {
	v     float64
	g     int64 // rmin(i) − rmin(i−1)
	delta int64 // rmax(i) − rmin(i)
}

// Sketch is a GK summary.
type Sketch struct {
	eps       float64
	tuples    []tuple
	count     int64
	inserted  int64 // inserts since last compress
	mergedEps float64
}

var _ sketch.Sketch = (*Sketch)(nil)

// New returns a GK summary with additive rank error bound eps.
func New(eps float64) *Sketch {
	if !(eps > 0 && eps < 1) {
		eps = DefaultEpsilon
	}
	return &Sketch{eps: eps, mergedEps: eps}
}

// Name implements sketch.Sketch.
func (s *Sketch) Name() string { return "gk" }

// Epsilon returns the configured error bound; EffectiveEpsilon reports
// the bound after any merges.
func (s *Sketch) Epsilon() float64 { return s.eps }

// EffectiveEpsilon reports the rank-error bound currently guaranteed,
// accounting for merge-induced degradation.
func (s *Sketch) EffectiveEpsilon() float64 { return s.mergedEps }

// Insert implements sketch.Sketch. NaNs are ignored.
func (s *Sketch) Insert(x float64) {
	if math.IsNaN(x) {
		return
	}
	pos := sort.Search(len(s.tuples), func(i int) bool { return s.tuples[i].v >= x })
	var delta int64
	if pos != 0 && pos != len(s.tuples) {
		delta = int64(2*s.eps*float64(s.count)) - 1
		if delta < 0 {
			delta = 0
		}
	}
	s.tuples = append(s.tuples, tuple{})
	copy(s.tuples[pos+1:], s.tuples[pos:])
	s.tuples[pos] = tuple{v: x, g: 1, delta: delta}
	s.count++
	s.inserted++
	if s.inserted >= int64(1/(2*s.eps)) {
		s.compress()
		s.inserted = 0
	}
}

// compress merges adjacent tuples while preserving g + Δ ≤ 2εn.
func (s *Sketch) compress() {
	if len(s.tuples) < 3 {
		return
	}
	bound := int64(2 * s.mergedEps * float64(s.count))
	out := s.tuples[:0]
	out = append(out, s.tuples[0])
	for i := 1; i < len(s.tuples)-1; i++ {
		t := s.tuples[i]
		last := &out[len(out)-1]
		// Try to fold t into its successor (standard GK folds forward;
		// folding into the last emitted tuple is equivalent bookkeeping).
		if len(out) > 1 && last.g+t.g+t.delta <= bound {
			t.g += last.g
			out[len(out)-1] = t
		} else {
			out = append(out, t)
		}
	}
	out = append(out, s.tuples[len(s.tuples)-1])
	s.tuples = out
}

// Count implements sketch.Sketch.
func (s *Sketch) Count() uint64 { return uint64(s.count) }

// Quantile implements sketch.Sketch: the value whose rank bounds bracket
// ⌈qN⌉ within εn.
func (s *Sketch) Quantile(q float64) (float64, error) {
	if err := sketch.CheckQuantile(q); err != nil {
		return 0, err
	}
	if s.count == 0 {
		return 0, sketch.ErrEmpty
	}
	target := int64(math.Ceil(q * float64(s.count)))
	margin := int64(math.Ceil(s.mergedEps * float64(s.count)))
	var rmin int64
	for i, t := range s.tuples {
		rmin += t.g
		rmax := rmin + t.delta
		if target-rmin <= margin && rmax-target <= margin {
			return t.v, nil
		}
		if i == len(s.tuples)-1 {
			break
		}
	}
	return s.tuples[len(s.tuples)-1].v, nil
}

// Rank implements sketch.Sketch.
func (s *Sketch) Rank(x float64) (float64, error) {
	if s.count == 0 {
		return 0, sketch.ErrEmpty
	}
	if math.IsNaN(x) {
		return 0, nil
	}
	var rmin int64
	for _, t := range s.tuples {
		if t.v > x {
			break
		}
		rmin += t.g
	}
	return float64(rmin) / float64(s.count), nil
}

// Merge implements sketch.Sketch by merging the sorted tuple lists and
// compressing. The effective error bound becomes the sum of both inputs'
// bounds — GK's lack of lossless mergeability is precisely why the study
// focuses on the five newer sketches (Sec 5.1).
func (s *Sketch) Merge(other sketch.Sketch) error {
	o, ok := other.(*Sketch)
	if !ok {
		return fmt.Errorf("%w: cannot merge %s into gk", sketch.ErrIncompatible, other.Name())
	}
	merged := make([]tuple, 0, len(s.tuples)+len(o.tuples))
	i, j := 0, 0
	for i < len(s.tuples) && j < len(o.tuples) {
		if s.tuples[i].v <= o.tuples[j].v {
			merged = append(merged, s.tuples[i])
			i++
		} else {
			merged = append(merged, o.tuples[j])
			j++
		}
	}
	merged = append(merged, s.tuples[i:]...)
	merged = append(merged, o.tuples[j:]...)
	s.tuples = merged
	s.count += o.count
	if o.mergedEps > s.mergedEps {
		s.mergedEps = o.mergedEps
	}
	s.mergedEps = math.Min(0.5, s.mergedEps+o.mergedEps) // bound degradation
	s.compress()
	return nil
}

// Tuples reports the summary size.
func (s *Sketch) Tuples() int { return len(s.tuples) }

// MemoryBytes implements sketch.Sketch: three numbers per tuple.
func (s *Sketch) MemoryBytes() int { return 8 * (3*len(s.tuples) + 4) }

// Reset implements sketch.Sketch.
func (s *Sketch) Reset() { *s = *New(s.eps) }

// MarshalBinary implements encoding.BinaryMarshaler.
func (s *Sketch) MarshalBinary() ([]byte, error) {
	w := sketch.NewWriter(40 + 24*len(s.tuples))
	w.Header(sketch.TagGK)
	w.F64(s.eps)
	w.F64(s.mergedEps)
	w.I64(s.count)
	w.U32(uint32(len(s.tuples)))
	for _, t := range s.tuples {
		w.F64(t.v)
		w.I64(t.g)
		w.I64(t.delta)
	}
	return w.Bytes(), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (s *Sketch) UnmarshalBinary(data []byte) error {
	r := sketch.NewReader(data)
	if err := r.Header(sketch.TagGK); err != nil {
		return err
	}
	eps := r.F64()
	mergedEps := r.F64()
	count := r.I64()
	n := int(r.U32())
	if r.Err() != nil {
		return r.Err()
	}
	if !(eps > 0 && eps < 1) || n < 0 || n > r.Remaining()/24 {
		return sketch.ErrCorrupt
	}
	ns := New(eps)
	ns.mergedEps = mergedEps
	ns.count = count
	ns.tuples = make([]tuple, n)
	for i := range ns.tuples {
		ns.tuples[i] = tuple{v: r.F64(), g: r.I64(), delta: r.I64()}
	}
	if r.Err() != nil {
		return r.Err()
	}
	if r.Remaining() != 0 {
		return sketch.ErrCorrupt
	}
	*s = *ns
	return nil
}
