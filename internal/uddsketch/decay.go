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
// not depend on map iteration order. Scaling only removes buckets, so
// the maxBuckets budget and the current collapse level are untouched;
// min/max are kept as conservative bounds. If every count rounds away
// the sketch resets.
func (s *Sketch) ScaleCount(g float64) {
	if math.IsNaN(g) || g >= 1 {
		return
	}
	if g <= 0 {
		s.Reset()
		return
	}
	scaleMap := func(m map[int]int64) (map[int]int64, int64) {
		out := make(map[int]int64, len(m))
		return out, addScaled(out, m, g, 0)
	}
	pos, posTotal := scaleMap(s.positive)
	neg, negTotal := scaleMap(s.negative)
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
// The fusion rule is unchanged: the receiver collapses up to o's level
// first, and o's buckets are re-indexed up to the receiver's level as
// they are added, which sums the same counts into the same buckets as
// collapsing a copy would. If every count rounds away the clone would
// have reset, so nothing happens — not even the collapse alignment.
func (s *Sketch) MergeScaled(other sketch.Sketch, g float64) error {
	if math.IsNaN(g) || g >= 1 {
		return s.Merge(other)
	}
	o, err := s.mergeable(other)
	if err != nil || g <= 0 {
		return err
	}
	zero := int64(math.Round(float64(o.zeroCnt) * g))
	if zero == 0 && !anySurvives(o.positive, g) && !anySurvives(o.negative, g) {
		return nil
	}
	before := s.count
	for s.collapses < o.collapses {
		s.uniformCollapse()
	}
	shift := s.collapses - o.collapses
	added := addScaled(s.positive, o.positive, g, shift) + addScaled(s.negative, o.negative, g, shift) + zero
	s.zeroCnt += zero
	s.count += added
	if o.min < s.min {
		s.min = o.min
	}
	if o.max > s.max {
		s.max = o.max
	}
	for len(s.positive)+len(s.negative) > s.maxBuckets {
		s.uniformCollapse()
	}
	if metrics != nil {
		metrics.PeakBytes.Max(int64(s.MemoryBytes()))
	}
	s.assertCount("merge", before+added)
	return nil
}

// anySurvives reports whether some count in m is still positive after
// rounding c·g.
func anySurvives(m map[int]int64, g float64) bool {
	for _, c := range m {
		if math.Round(float64(c)*g) > 0 {
			return true
		}
	}
	return false
}

// addScaled adds round(c·g) of every bucket of src into dst, skipping
// those that round to 0, with each index collapsed shift levels up
// (⌈i/2⌉ per level). It returns the total added.
func addScaled(dst, src map[int]int64, g float64, shift int) int64 {
	var total int64
	for i, c := range src {
		sc := int64(math.Round(float64(c) * g))
		if sc <= 0 {
			continue
		}
		for range shift {
			i = ceilDiv2(i)
		}
		dst[i] += sc
		total += sc
	}
	return total
}
