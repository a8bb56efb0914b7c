package req

import (
	"math"

	"repro/internal/sketch"
)

var _ sketch.CountScaler = (*Sketch)(nil)

// ScaleCount implements sketch.CountScaler through the stack's Scale,
// the binary re-decomposition KLL uses: each item in the height-h
// compactor is re-placed into the compactor at every set bit of
// round(g·2^h). Each compactor keeps its section configuration and
// compaction-schedule state; only its items are rebuilt. Coin flips
// happen only in the final compress, from the sketch's own PCG stream.
// If everything rounds away the sketch resets. min/max are kept as
// conservative bounds.
func (s *Sketch) ScaleCount(g float64) {
	if math.IsNaN(g) || g >= 1 {
		return
	}
	if !s.Scale(g) {
		s.Reset()
		return
	}
	recordCompactions(s.compress())
}

// MergeScaled implements sketch.CountScaler the reference way: scale a
// clone of o (its coin-flip RNG state included, so the compactions
// match a decoded copy's) and merge it. ReqSketch's rescaling re-places
// and recompacts items, so there is no cheaper fused form.
func (s *Sketch) MergeScaled(other sketch.Sketch, g float64) error {
	if math.IsNaN(g) || g >= 1 {
		return s.Merge(other)
	}
	o, ok := other.(*Sketch)
	if !ok {
		return s.Merge(other) // reports the incompatibility
	}
	c := o.Clone()
	c.ScaleCount(g)
	return s.Merge(c)
}
