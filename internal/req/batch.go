package req

import (
	"math"

	"repro/internal/sketch"
)

var _ sketch.BatchInserter = (*Sketch)(nil)

// InsertBatch implements sketch.BatchInserter: equivalent to inserting
// every value of xs in order, with the level-0 buffer, count and bounds
// held in locals across the hot append loop. Compaction triggers at
// exactly the scalar path's points — state is written back before every
// compress and the buffer/capacity re-read after, since compacting
// shrinks the buffer and may advance the section schedule (changing the
// capacity). The bottom compactor pointer is stable: compress never
// replaces compactors[0], only appends higher levels.
//
//sketch:hotpath
func (s *Sketch) InsertBatch(xs []float64) {
	if len(xs) == 0 {
		return
	}
	s.view.Invalidate()
	c0 := s.compactors[0]
	buf := c0.buf
	capc := c0.capacity()
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
		if len(buf) >= capc {
			c0.buf = buf
			s.count = count
			s.min, s.max = minV, maxV
			s.compress()
			buf = c0.buf
			capc = c0.capacity()
		}
	}
	c0.buf = buf
	if metrics != nil {
		metrics.Inserts.Add(int64(count - startCount))
	}
	s.count = count
	s.min, s.max = minV, maxV
}
