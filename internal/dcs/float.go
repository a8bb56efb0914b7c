package dcs

import (
	"fmt"
	"math"

	"repro/internal/ddsketch"
	"repro/internal/sketch"
)

// FloatSketch adapts DCS to float64 streams by quantizing positive
// values through a γ-logarithmic mapping (the DDSketch mapping) into the
// integer universe. It exists so DCS can run in the same harness as the
// study's five sketches; the quantization contributes relative error α
// on top of DCS's own rank error — and makes concrete the paper's point
// that DCS "requires prior knowledge of size" (here: the value range the
// universe must cover).
type FloatSketch struct {
	dcs     *Sketch
	mapping ddsketch.Mapping
	offset  int64 // mapping index of the smallest representable value
	zeroCnt int64
	minSeen float64
	maxSeen float64
	alpha   float64
}

var _ sketch.Sketch = (*FloatSketch)(nil)

// NewFloat returns a DCS over positive floats quantized at relative
// accuracy alpha. logU must be large enough that γ^(2^logU) covers the
// expected data range above minValue; out-of-range values clamp.
func NewFloat(alpha float64, minValue float64, logU, depth, width int, seed uint64) (*FloatSketch, error) {
	m, err := ddsketch.NewMapping(alpha)
	if err != nil {
		return nil, err
	}
	if !(minValue > 0) {
		return nil, fmt.Errorf("dcs: minValue must be positive, got %v", minValue)
	}
	d, err := New(logU, depth, width, seed)
	if err != nil {
		return nil, err
	}
	return &FloatSketch{
		dcs:     d,
		mapping: m,
		offset:  int64(m.Index(minValue)),
		minSeen: math.Inf(1),
		maxSeen: math.Inf(-1),
		alpha:   alpha,
	}, nil
}

// Name implements sketch.Sketch.
func (f *FloatSketch) Name() string { return "dcs" }

func (f *FloatSketch) key(x float64) uint64 {
	idx := int64(f.mapping.Index(x)) - f.offset
	if idx < 0 {
		idx = 0
	}
	return uint64(idx)
}

// Insert implements sketch.Sketch. Non-positive values and NaNs count as
// the minimum representable value.
func (f *FloatSketch) Insert(x float64) {
	if math.IsNaN(x) {
		return
	}
	if x <= 0 {
		f.zeroCnt++ // tracked exactly, reported at the bottom of the order
		f.dcs.Insert(0)
	} else {
		f.dcs.Insert(f.key(x))
	}
	if x < f.minSeen {
		f.minSeen = x
	}
	if x > f.maxSeen {
		f.maxSeen = x
	}
}

// Delete removes one occurrence (DCS is turnstile).
func (f *FloatSketch) Delete(x float64) {
	if math.IsNaN(x) {
		return
	}
	if x <= 0 {
		f.zeroCnt--
		f.dcs.Delete(0)
	} else {
		f.dcs.Delete(f.key(x))
	}
}

// Count implements sketch.Sketch.
func (f *FloatSketch) Count() uint64 { return f.dcs.Count() }

// Quantile implements sketch.Sketch.
func (f *FloatSketch) Quantile(q float64) (float64, error) {
	block, err := f.dcs.Quantile(q)
	if err != nil {
		return 0, err
	}
	v := f.mapping.Value(int(int64(block) + f.offset))
	if v < f.minSeen {
		v = f.minSeen
	}
	if v > f.maxSeen {
		v = f.maxSeen
	}
	return v, nil
}

// Rank implements sketch.Sketch.
func (f *FloatSketch) Rank(x float64) (float64, error) {
	if f.dcs.Count() == 0 {
		return 0, sketch.ErrEmpty
	}
	switch {
	case x >= f.maxSeen:
		// Exact, and key(+Inf) is out of the quantizer's range.
		return 1, nil
	case !(x > 0): // NaN, −Inf, and the zero bucket
		return 0, nil
	}
	return f.dcs.Rank(f.key(x))
}

// Merge implements sketch.Sketch.
func (f *FloatSketch) Merge(other sketch.Sketch) error {
	o, ok := other.(*FloatSketch)
	if !ok {
		return fmt.Errorf("%w: cannot merge %s into dcs", sketch.ErrIncompatible, other.Name())
	}
	if math.Float64bits(o.alpha) != math.Float64bits(f.alpha) || o.offset != f.offset {
		return fmt.Errorf("%w: dcs quantizer mismatch", sketch.ErrIncompatible)
	}
	if err := f.dcs.Merge(o.dcs); err != nil {
		return err
	}
	f.zeroCnt += o.zeroCnt
	if o.minSeen < f.minSeen {
		f.minSeen = o.minSeen
	}
	if o.maxSeen > f.maxSeen {
		f.maxSeen = o.maxSeen
	}
	return nil
}

// MemoryBytes implements sketch.Sketch.
func (f *FloatSketch) MemoryBytes() int { return f.dcs.MemoryBytes() + 5*8 }

// Reset implements sketch.Sketch.
func (f *FloatSketch) Reset() {
	f.dcs.Reset()
	f.zeroCnt = 0
	f.minSeen = math.Inf(1)
	f.maxSeen = math.Inf(-1)
}

// MarshalBinary implements encoding.BinaryMarshaler. DCS state is large
// and rebuildable; serialization is intentionally unsupported, matching
// its exclusion from the shipping workflows.
func (f *FloatSketch) MarshalBinary() ([]byte, error) {
	return nil, fmt.Errorf("dcs: serialization not supported")
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (f *FloatSketch) UnmarshalBinary([]byte) error {
	return fmt.Errorf("dcs: serialization not supported")
}
