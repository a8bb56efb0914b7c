package req

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"

	"repro/internal/sketch"
)

var _ sketch.CountScaler = (*Sketch)(nil)

// ScaleCount implements sketch.CountScaler through
// sketch.ScaleLevels, the binary re-decomposition KLL uses: each item in
// the height-h compactor is re-placed into the compactor at every set
// bit of round(g·2^h). Each compactor keeps its section configuration
// and compaction-schedule state; only its buffer contents are rebuilt
// (and sortedLen re-derived). Coin flips happen only in the final
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
		c.markSorted(0)
	}
	s.count = count
	s.view.Invalidate()
	s.compress()
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
	c, err := o.clone()
	if err != nil {
		return err
	}
	c.ScaleCount(g)
	return s.Merge(c)
}

// clone returns a deep copy of s that continues bit-identically to it:
// compactor buffers and schedule state are copied, and the RNG resumes
// from s's PCG state. Scratch and the query view are not copied.
func (s *Sketch) clone() (*Sketch, error) {
	state, err := s.pcg.MarshalBinary()
	if err != nil {
		return nil, fmt.Errorf("req: clone: %w", err)
	}
	pcg := rand.NewPCG(s.seed, s.seed^0xbf58476d1ce4e5b9)
	if err := pcg.UnmarshalBinary(state); err != nil {
		return nil, fmt.Errorf("req: clone: %w", err)
	}
	c := &Sketch{
		k:          s.k,
		hra:        s.hra,
		compactors: make([]*compactor, len(s.compactors)),
		count:      s.count,
		min:        s.min,
		max:        s.max,
		rng:        rand.New(pcg),
		pcg:        pcg,
		seed:       s.seed,
	}
	for h, oc := range s.compactors {
		cc := *oc
		cc.buf = slices.Clone(oc.buf)
		cc.scratch = nil
		c.compactors[h] = &cc
	}
	return c, nil
}
