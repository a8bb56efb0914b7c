package harness

import (
	"fmt"
	"sort"

	"repro/internal/sketch"
)

// multiSketch fans every insert/merge out to one child sketch per
// algorithm so a single engine pass (event generation, delay simulation,
// windowing, ground-truth collection) evaluates all five algorithms on
// exactly the same event sequence — the uniform-setting requirement of
// the study. It is query-opaque: callers evaluate the named children.
type multiSketch struct {
	order    []string
	builders map[string]sketch.Builder
	children map[string]sketch.Sketch
}

var (
	_ sketch.Sketch      = (*multiSketch)(nil)
	_ sketch.CountScaler = (*multiSketch)(nil)
	_ sketch.Footprinter = (*multiSketch)(nil)
	_ sketch.Degrader    = (*multiSketch)(nil)
)

// newMultiBuilder wraps per-algorithm builders into a single builder for
// the stream engine.
func newMultiBuilder(order []string, builders map[string]sketch.Builder) sketch.Builder {
	return func() sketch.Sketch {
		m := &multiSketch{order: order, builders: builders, children: make(map[string]sketch.Sketch, len(order))}
		for _, name := range order {
			m.children[name] = builders[name]()
		}
		return m
	}
}

// child returns the named child sketch.
func (m *multiSketch) child(name string) sketch.Sketch { return m.children[name] }

// Insert implements sketch.Sketch.
func (m *multiSketch) Insert(x float64) {
	for _, name := range m.order {
		m.children[name].Insert(x)
	}
}

// InsertBatch implements sketch.BatchInserter by forwarding the batch
// to every child through its own batch kernel (when it has one), so the
// stream engine's batched path benefits all algorithms under test.
func (m *multiSketch) InsertBatch(xs []float64) {
	for _, name := range m.order {
		sketch.InsertAll(m.children[name], xs)
	}
}

// Merge implements sketch.Sketch.
func (m *multiSketch) Merge(other sketch.Sketch) error {
	o, ok := other.(*multiSketch)
	if !ok {
		return fmt.Errorf("%w: cannot merge %s into multi", sketch.ErrIncompatible, other.Name())
	}
	for _, name := range m.order {
		oc := o.children[name]
		if oc == nil {
			return fmt.Errorf("%w: missing child %s", sketch.ErrIncompatible, name)
		}
		if err := m.children[name].Merge(oc); err != nil {
			return err
		}
	}
	return nil
}

// Quantile implements sketch.Sketch; the multiplexer is query-opaque.
func (m *multiSketch) Quantile(float64) (float64, error) {
	return 0, fmt.Errorf("harness: query the multi sketch's children, not the multiplexer")
}

// Rank implements sketch.Sketch; the multiplexer is query-opaque.
func (m *multiSketch) Rank(float64) (float64, error) {
	return 0, fmt.Errorf("harness: query the multi sketch's children, not the multiplexer")
}

// Count implements sketch.Sketch.
func (m *multiSketch) Count() uint64 {
	if len(m.order) == 0 {
		return 0
	}
	return m.children[m.order[0]].Count()
}

// MemoryBytes implements sketch.Sketch.
func (m *multiSketch) MemoryBytes() int {
	total := 0
	for _, c := range m.children {
		total += c.MemoryBytes()
	}
	return total
}

// Name implements sketch.Sketch.
func (m *multiSketch) Name() string { return "multi" }

// Footprint implements sketch.Footprinter: the sum of the children's
// live footprints, so a memory-budget governor charges the multiplexer
// by what it actually holds.
func (m *multiSketch) Footprint() int {
	total := 0
	for _, name := range m.order {
		total += sketch.FootprintOf(m.children[name])
	}
	return total
}

// Degrade implements sketch.Degrader by degrading the currently
// largest degradable child (ties by algorithm order), so a budgeted
// multi-algorithm run sheds memory where it is actually spent. Children
// at their floor fall through to the next largest; ErrNotDegradable
// only when every child refuses.
func (m *multiSketch) Degrade() (int, error) {
	type cand struct {
		name string
		foot int
	}
	cands := make([]cand, 0, len(m.order))
	for _, name := range m.order {
		if _, ok := m.children[name].(sketch.Degrader); ok {
			cands = append(cands, cand{name, sketch.FootprintOf(m.children[name])})
		}
	}
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].foot > cands[j].foot })
	for _, c := range cands {
		if freed, err := m.children[c.name].(sketch.Degrader).Degrade(); err == nil {
			return freed, nil
		}
	}
	return 0, sketch.ErrNotDegradable
}

// Reset implements sketch.Sketch.
func (m *multiSketch) Reset() {
	for _, c := range m.children {
		c.Reset()
	}
}

// ScaleCount implements sketch.CountScaler by forwarding to every
// child in deterministic algorithm order, so the engine's exponential
// decay applies to all algorithms under test at once. All five study
// sketches implement CountScaler; a child that does not is a
// configuration error surfaced at engine construction via the builder
// probe, so the assertion here cannot fire in a validated run.
func (m *multiSketch) ScaleCount(g float64) {
	for _, name := range m.order {
		m.children[name].(sketch.CountScaler).ScaleCount(g)
	}
}

// MergeScaled implements sketch.CountScaler by forwarding to every
// child in algorithm order, each merging its counterpart in other
// through its own fused form.
func (m *multiSketch) MergeScaled(other sketch.Sketch, g float64) error {
	o, ok := other.(*multiSketch)
	if !ok {
		return fmt.Errorf("%w: cannot merge %s into multi", sketch.ErrIncompatible, other.Name())
	}
	for _, name := range m.order {
		oc := o.children[name]
		if oc == nil {
			return fmt.Errorf("%w: missing child %s", sketch.ErrIncompatible, name)
		}
		if err := m.children[name].(sketch.CountScaler).MergeScaled(oc, g); err != nil {
			return err
		}
	}
	return nil
}

// multiTag is the type tag of the multiplexer's own wire format. It is
// harness-local (not in sketch's shared tag space) because multi blobs
// only ever live inside checkpoint envelopes written and read by the
// harness itself.
const multiTag byte = 0x7E

// MarshalBinary implements encoding.BinaryMarshaler: each child's
// serialized state, name-prefixed, in deterministic algorithm order.
// Checkpointed harness runs persist the multiplexer through this.
func (m *multiSketch) MarshalBinary() ([]byte, error) {
	w := sketch.NewWriter(64)
	w.Byte(multiTag)
	w.Byte(sketch.SerdeVersion)
	w.U32(uint32(len(m.order)))
	for _, name := range m.order {
		blob, err := m.children[name].MarshalBinary()
		if err != nil {
			return nil, fmt.Errorf("harness: multi child %s: %w", name, err)
		}
		w.Blob([]byte(name))
		w.Blob(blob)
	}
	return w.Bytes(), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler. Decoding is
// atomic: every child blob is decoded into a freshly built child first,
// and the receiver adopts the new children only if all of them succeed.
func (m *multiSketch) UnmarshalBinary(data []byte) error {
	r := sketch.NewReader(data)
	if r.Byte() != multiTag || r.Byte() != sketch.SerdeVersion {
		return fmt.Errorf("harness: multi decode: %w", sketch.ErrCorrupt)
	}
	n := int(r.U32())
	if r.Err() != nil || n != len(m.order) {
		return fmt.Errorf("harness: multi decode: %d children, want %d: %w", n, len(m.order), sketch.ErrCorrupt)
	}
	fresh := make(map[string]sketch.Sketch, n)
	for i := 0; i < n; i++ {
		name := string(r.Blob())
		blob := r.Blob()
		if r.Err() != nil {
			return fmt.Errorf("harness: multi decode: %w", r.Err())
		}
		if name != m.order[i] {
			return fmt.Errorf("harness: multi decode: child %d is %q, want %q: %w", i, name, m.order[i], sketch.ErrCorrupt)
		}
		b := m.builders[name]
		if b == nil {
			return fmt.Errorf("harness: multi decode: no builder for child %q: %w", name, sketch.ErrCorrupt)
		}
		c := b()
		if err := c.UnmarshalBinary(blob); err != nil {
			return fmt.Errorf("harness: multi decode child %s: %w", name, err)
		}
		fresh[name] = c
	}
	if r.Remaining() != 0 {
		return fmt.Errorf("harness: multi decode: trailing bytes: %w", sketch.ErrCorrupt)
	}
	m.children = fresh
	return nil
}
