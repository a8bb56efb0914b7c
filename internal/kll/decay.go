package kll

import (
	"math"

	"repro/internal/sketch"
)

var _ sketch.CountScaler = (*Sketch)(nil)

// ScaleCount implements sketch.CountScaler through the stack's Scale:
// each sample at level h is re-placed at every set bit of round(g·2^h),
// conserving weight exactly for the new count. There is no randomness
// until the final capacity-restoring compress, whose coin flips come
// from the sketch's own deterministic PCG stream. If everything rounds
// away the sketch resets. min/max are kept: surviving samples are a
// subset of the old ones, so the bounds stay ordered (they become
// conservative, not exact).
func (s *Sketch) ScaleCount(g float64) {
	if math.IsNaN(g) || g >= 1 {
		return
	}
	if !s.Scale(g) {
		s.Reset()
		return
	}
	s.fits = false
	recordCompactions(s.compress())
}

// MergeScaled implements sketch.CountScaler the reference way: scale a
// Clone of o (its compaction RNG state included, so the coin flips
// match a decoded copy's) and merge it. KLL's rescaling re-places and
// recompacts samples, so there is no cheaper fused form.
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
