package uddsketch

import (
	"math"

	"repro/internal/sketch"
)

var _ sketch.CountScaler = (*Sketch)(nil)

// ScaleCount implements sketch.CountScaler by rounded bucket scaling:
// every bucket count c becomes round(c·g) (buckets rounding to 0 are
// dropped — valid sketches never hold empty buckets), the zero counter
// scales the same way, and the total count is recomputed as the sum of
// the scaled parts so Σ buckets + zeroCnt == count holds exactly. Each
// bucket transforms independently of every other, so the result does
// not depend on the order a store yields its buckets in. Scaling only
// removes buckets, so the maxBuckets budget and the current collapse
// level are untouched; min/max are kept as conservative bounds. If
// every count rounds away the sketch resets.
func (s *Sketch) ScaleCount(g float64) {
	if math.IsNaN(g) || g >= 1 {
		return
	}
	if g <= 0 {
		s.Reset()
		return
	}
	dense := s.dense()
	scaled := func(st store) (store, int64) {
		out := newStore(dense, st.len())
		return out, st.addTo(out, g, 0)
	}
	pos, posTotal := scaled(s.positive)
	neg, negTotal := scaled(s.negative)
	zero := int64(math.Round(float64(s.zeroCnt) * g))
	count := posTotal + negTotal + zero
	if count == 0 {
		s.Reset()
		return
	}
	s.positive = pos
	s.negative = neg
	s.zeroCnt = zero
	s.count = count
}

// MergeScaled implements sketch.CountScaler in one pass over o's
// buckets, adding round(c·g) of each (buckets rounding to 0 skipped) —
// exactly the counts a ScaleCount(g) clone of o would bring into Merge.
// It is Merge's fusion path (fuse) at weight g.
func (s *Sketch) MergeScaled(other sketch.Sketch, g float64) error {
	if math.IsNaN(g) || g >= 1 {
		return s.Merge(other)
	}
	o, err := s.mergeable(other)
	if err != nil || g <= 0 {
		return err
	}
	s.fuse(o, g)
	return nil
}
