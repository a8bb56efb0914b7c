package moments

import (
	"math"

	"repro/internal/sketch"
)

var _ sketch.CountScaler = (*Sketch)(nil)

// ScaleCount implements sketch.CountScaler exactly: every power sum
// Σ yⁱ is linear in the input multiset, so weighting each item by g is
// precisely multiplying each sum (including the count in powerSums[0])
// by g — no rounding, no structural change. The transformed-domain
// min/max stay as-is (the support of the decayed distribution is
// unchanged), and the cached max-entropy solution is discarded because
// the moment vector changed.
func (s *Sketch) ScaleCount(g float64) {
	if math.IsNaN(g) || g >= 1 {
		return
	}
	if g <= 0 {
		s.Reset()
		return
	}
	for i := range s.powerSums {
		s.powerSums[i] *= g
	}
	s.discardWarmStarts()
}

// MergeScaled implements sketch.CountScaler without a clone:
// powerSums[i] += o.powerSums[i]·g performs the same two float
// operations, in the same order, as scaling a clone and merging it (the
// explicit conversion rounds the product, so no platform may fuse the
// pair into one FMA), and o's min/max merge as they would from the
// clone. g ≤ 0 merges an empty sketch: nothing changes.
func (s *Sketch) MergeScaled(other sketch.Sketch, g float64) error {
	if math.IsNaN(g) || g >= 1 {
		return s.Merge(other)
	}
	o, err := s.mergeable(other)
	if err != nil || g <= 0 {
		return err
	}
	mergedCount := s.powerSums[0] + float64(o.powerSums[0]*g)
	for i := range s.powerSums {
		s.powerSums[i] += float64(o.powerSums[i] * g)
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
