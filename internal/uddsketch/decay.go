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

// addScaled adds round(c·g) of every bucket of src into dst — c itself
// at g = 1 — skipping those that round to 0, with each index collapsed
// shift levels up (⌈i/2^shift⌉). It returns the total added. A plain
// merge of sketches at one collapse level takes the first loop, which
// neither scales nor moves an index.
func addScaled(dst, src map[int]int64, g float64, shift int) int64 {
	var total int64
	if g == 1 && shift == 0 {
		for i, c := range src {
			dst[i] += c
			total += c
		}
		return total
	}
	for i, c := range src {
		if g != 1 {
			c = int64(math.Round(float64(c) * g))
			if c <= 0 {
				continue
			}
		}
		dst[ceilShift(i, shift)] += c
		total += c
	}
	return total
}
