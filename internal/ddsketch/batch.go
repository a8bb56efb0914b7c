package ddsketch

import (
	"math"

	"repro/internal/fastlog"
	"repro/internal/sketch"
)

var (
	_ sketch.BatchInserter  = (*Sketch)(nil)
	_ sketch.MultiQuantiler = (*Sketch)(nil)
)

// InsertBatch implements sketch.BatchInserter with a tight
// key-computation loop: the mapping is devirtualized by a one-time type
// switch so the per-value cost of the default cubic mapping is a
// handful of float multiply-adds (fastlog.Log2Cubic) with no interface
// call, bucket indices are staged in per-sign scratch slices, and the
// store absorbs each sign's indices in one bulk increment
// (Store.AddOnes) that grows its backing storage at most once per
// batch. Bucket counts are order-independent and staging preserves
// per-store arrival order (the only order the collapsing store's
// collapse decisions depend on), so the resulting state is identical to
// per-element insertion.
//
//sketch:hotpath
func (s *Sketch) InsertBatch(xs []float64) {
	if len(xs) == 0 {
		return
	}
	pos := s.posScratch[:0]
	neg := s.negScratch[:0]
	minV, maxV := s.min, s.max
	var zero int64
	var nans int
	switch m := s.mapping.(type) {
	case Cubic:
		mult := m.multiplier
		for _, x := range xs {
			if math.IsNaN(x) {
				nans++
				continue
			}
			switch {
			case x >= fastlog.MinIndexable:
				pos = append(pos, int(math.Ceil(fastlog.Log2Cubic(x)*mult)))
			case x < 0 && -x >= fastlog.MinIndexable:
				neg = append(neg, int(math.Ceil(fastlog.Log2Cubic(-x)*mult)))
			default:
				zero++
			}
			if x < minV {
				minV = x
			}
			if x > maxV {
				maxV = x
			}
		}
	case Linear:
		mult := m.multiplier
		for _, x := range xs {
			if math.IsNaN(x) {
				nans++
				continue
			}
			switch {
			case x >= fastlog.MinIndexable:
				pos = append(pos, int(math.Ceil(fastlog.Log2Linear(x)*mult)))
			case x < 0 && -x >= fastlog.MinIndexable:
				neg = append(neg, int(math.Ceil(fastlog.Log2Linear(-x)*mult)))
			default:
				zero++
			}
			if x < minV {
				minV = x
			}
			if x > maxV {
				maxV = x
			}
		}
	case Logarithmic:
		logGamma := m.logGamma
		minIndexable := m.MinIndexable()
		for _, x := range xs {
			if math.IsNaN(x) {
				nans++
				continue
			}
			switch {
			case x > 0 && x >= minIndexable:
				pos = append(pos, int(math.Ceil(math.Log(x)/logGamma)))
			case x < 0 && -x >= minIndexable:
				neg = append(neg, int(math.Ceil(math.Log(-x)/logGamma)))
			default:
				zero++
			}
			if x < minV {
				minV = x
			}
			if x > maxV {
				maxV = x
			}
		}
	default:
		minIndexable := m.MinIndexable()
		for _, x := range xs {
			if math.IsNaN(x) {
				nans++
				continue
			}
			switch {
			case x > 0 && x >= minIndexable:
				pos = append(pos, m.Index(x))
			case x < 0 && -x >= minIndexable:
				neg = append(neg, m.Index(-x))
			default:
				zero++
			}
			if x < minV {
				minV = x
			}
			if x > maxV {
				maxV = x
			}
		}
	}
	s.positive.AddOnes(pos)
	s.negative.AddOnes(neg)
	s.posScratch = pos[:0]
	s.negScratch = neg[:0]
	s.zeroCnt += zero
	s.min, s.max = minV, maxV
	if metrics != nil {
		metrics.Inserts.Add(int64(len(xs) - nans))
		metrics.PeakBytes.Max(int64(s.MemoryBytes()))
	}
}
