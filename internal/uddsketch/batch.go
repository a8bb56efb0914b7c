package uddsketch

import (
	"math"

	"repro/internal/fastlog"
	"repro/internal/sketch"
)

var (
	_ sketch.BatchInserter  = (*Sketch)(nil)
	_ sketch.MultiQuantiler = (*Sketch)(nil)
)

// InsertBatch implements sketch.BatchInserter: one branch on the
// indexer kind outside the loop, then the index computation — the cubic
// float-bit approximation with its multiplier hoisted, or the legacy
// log-gamma divide — runs in a tight loop with the live bucket counts,
// bounds and count in locals. The bucket-budget check stays per-element
// — a collapse changes every subsequent index — so collapses trigger at
// exactly the scalar path's points; the hoisted mapping state is
// refreshed after each collapse. Stores collapse in place, so the
// kernel keeps adding to the same two stores throughout.
//
//sketch:hotpath
func (s *Sketch) InsertBatch(xs []float64) {
	if len(xs) == 0 {
		return
	}
	if s.indexer == indexerCubic {
		s.insertBatchCubic(xs)
	} else {
		s.insertBatchLog(xs)
	}
}

//sketch:hotpath
func (s *Sketch) insertBatchCubic(xs []float64) {
	pos, neg := s.positive, s.negative
	nPos, nNeg := pos.len(), neg.len()
	mult := s.multiplier
	budget := s.maxBuckets
	count := s.count
	startCount := count
	minV, maxV := s.min, s.max
	var zero int64
	for _, x := range xs {
		if math.IsNaN(x) {
			continue
		}
		switch {
		case x >= fastlog.MinIndexable:
			if pos.add(int(math.Ceil(fastlog.Log2Cubic(x)*mult)), 1) {
				nPos++
			}
		case x < 0 && -x >= fastlog.MinIndexable:
			if neg.add(int(math.Ceil(fastlog.Log2Cubic(-x)*mult)), 1) {
				nNeg++
			}
		default:
			zero++
		}
		count++
		if x < minV {
			minV = x
		}
		if x > maxV {
			maxV = x
		}
		if nPos+nNeg > budget {
			s.count = count
			s.zeroCnt += zero
			zero = 0
			s.min, s.max = minV, maxV
			s.collapseToBudget()
			nPos, nNeg = pos.len(), neg.len()
			mult = s.multiplier
		}
	}
	if metrics != nil {
		metrics.Inserts.Add(int64(count - startCount))
	}
	s.count = count
	s.zeroCnt += zero
	s.min, s.max = minV, maxV
}

//sketch:hotpath
func (s *Sketch) insertBatchLog(xs []float64) {
	pos, neg := s.positive, s.negative
	nPos, nNeg := pos.len(), neg.len()
	logGamma := s.logGamma
	minIndexable := s.minIndexable()
	budget := s.maxBuckets
	count := s.count
	startCount := count
	minV, maxV := s.min, s.max
	var zero int64
	for _, x := range xs {
		if math.IsNaN(x) {
			continue
		}
		switch {
		case x > 0 && x >= minIndexable:
			if pos.add(int(math.Ceil(math.Log(x)/logGamma)), 1) {
				nPos++
			}
		case x < 0 && -x >= minIndexable:
			if neg.add(int(math.Ceil(math.Log(-x)/logGamma)), 1) {
				nNeg++
			}
		default:
			zero++
		}
		count++
		if x < minV {
			minV = x
		}
		if x > maxV {
			maxV = x
		}
		if nPos+nNeg > budget {
			s.count = count
			s.zeroCnt += zero
			zero = 0
			s.min, s.max = minV, maxV
			s.collapseToBudget()
			nPos, nNeg = pos.len(), neg.len()
			logGamma = s.logGamma
			minIndexable = s.minIndexable()
		}
	}
	if metrics != nil {
		metrics.Inserts.Add(int64(count - startCount))
	}
	s.count = count
	s.zeroCnt += zero
	s.min, s.max = minV, maxV
}
