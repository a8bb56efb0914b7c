package moments

import (
	"math"

	"repro/internal/sketch"
)

var _ sketch.BatchInserter = (*Sketch)(nil)

// InsertBatch implements sketch.BatchInserter: a fused power-sum
// accumulation loop. The transform dispatch, moment count and bounds
// are hoisted out of the per-element work; each element still adds its
// powers directly into s.powerSums in stream order (power-sum addition
// is not associative in floating point, so accumulating into a local
// and adding once would change the result).
//
//sketch:hotpath
func (s *Sketch) InsertBatch(xs []float64) {
	if len(xs) == 0 {
		return
	}
	k := s.k
	tr := s.transform
	sums := s.powerSums
	minV, maxV := s.min, s.max
	var skipped int
	for _, x := range xs {
		if math.IsNaN(x) {
			skipped++
			continue
		}
		if tr == TransformLog && x <= 0 {
			skipped++
			continue
		}
		y := x
		switch tr {
		case TransformLog:
			y = math.Log(x)
		case TransformArcsinh:
			y = math.Asinh(x)
		}
		cur := 1.0
		for i := 0; i < k; i++ {
			sums[i] += cur
			cur *= y
		}
		if y < minV {
			minV = y
		}
		if y > maxV {
			maxV = y
		}
	}
	if metrics != nil {
		metrics.Inserts.Add(int64(len(xs) - skipped))
	}
	s.min, s.max = minV, maxV
	s.solved = nil
	s.assertInvariants("insert-batch")
}
