package req

import (
	"math"

	"repro/internal/sketch"
)

var _ sketch.CountScaler = (*Sketch)(nil)

// ScaleCount implements sketch.CountScaler through
// sketch.ScaleLevels, the binary re-decomposition KLL uses: each item in
// the height-h compactor is re-placed into the compactor at every set
// bit of round(g·2^h). Each compactor keeps its section configuration
// and compaction-schedule state; only its buffer contents are rebuilt
// (unsorted, sortedLen reset). Coin flips happen only in the final
// compress, from the sketch's own PCG stream. If everything rounds away
// the sketch resets. min/max are kept as conservative bounds.
func (s *Sketch) ScaleCount(g float64) {
	if math.IsNaN(g) || g >= 1 {
		return
	}
	bufs := make([][]float32, len(s.compactors))
	for h, c := range s.compactors {
		bufs[h] = c.buf
	}
	newBufs, count := sketch.ScaleLevels(bufs, g)
	if count == 0 {
		s.Reset()
		return
	}
	for h, c := range s.compactors {
		c.buf = append(c.buf[:0], newBufs[h]...)
		c.sortedLen = 0
	}
	s.count = count
	s.view.Invalidate()
	s.compress()
}
