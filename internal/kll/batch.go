package kll

import (
	"math"

	"repro/internal/sketch"
)

var _ sketch.BatchInserter = (*Sketch)(nil)

// InsertBatch implements sketch.BatchInserter: equivalent to inserting
// every value of xs in order, but with the level-0 buffer, count and
// bounds kept in locals so the hot append loop carries no pointer
// re-loads. Compaction triggers at exactly the same points as the
// scalar path — state is written back before every compress and the
// buffer/capacity are re-read after, since compaction empties level 0
// and growing the hierarchy reshapes the capacity schedule.
//
//sketch:hotpath
func (s *Sketch) InsertBatch(xs []float64) {
	if len(xs) == 0 {
		return
	}
	s.view.Invalidate()
	buf := s.levels[0]
	cap0 := s.capacity(0)
	count := s.count
	startCount := count
	minV, maxV := s.min, s.max
	for _, x := range xs {
		if math.IsNaN(x) {
			continue
		}
		buf = append(buf, float32(x))
		count++
		if x < minV {
			minV = x
		}
		if x > maxV {
			maxV = x
		}
		if len(buf) >= cap0 {
			s.levels[0] = buf
			s.count = count
			s.min, s.max = minV, maxV
			s.compress()
			buf = s.levels[0]
			cap0 = s.capacity(0)
		}
	}
	s.levels[0] = buf
	if metrics != nil {
		metrics.Inserts.Add(int64(count - startCount))
	}
	s.count = count
	s.min, s.max = minV, maxV
}
