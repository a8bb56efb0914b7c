// Package sketch defines the common interface implemented by every
// quantile sketch in this repository, together with shared error values
// and small helpers used by more than one implementation.
//
// The interface mirrors the operations the EDBT 2023 study measures:
// Insert (stream consumption), Quantile and Rank (queries), Merge
// (distributed aggregation), and MemoryBytes (the structural space
// accounting of the paper's Table 3).
package sketch

import (
	"encoding"
	"errors"
	"fmt"
)

// Common errors returned by sketch operations.
var (
	// ErrEmpty is returned when querying a sketch that has consumed no data.
	ErrEmpty = errors.New("sketch: empty sketch")
	// ErrInvalidQuantile is returned when q is outside (0, 1].
	ErrInvalidQuantile = errors.New("sketch: quantile must be in (0, 1]")
	// ErrIncompatible is returned when merging sketches whose types or
	// parameters do not permit a lossless merge.
	ErrIncompatible = errors.New("sketch: incompatible sketches")
	// ErrUnsupportedValue is returned when a sketch cannot represent an
	// inserted value (for example NaN, or a non-positive value in a
	// log-mapped sketch configured for positive data only).
	ErrUnsupportedValue = errors.New("sketch: unsupported value")
	// ErrCorrupt is returned when deserializing malformed bytes.
	ErrCorrupt = errors.New("sketch: corrupt serialized data")
	// ErrNotDegradable is returned by Degrade when a sketch cannot shrink
	// any further: either its accuracy knob is already at the floor, or
	// the structure is fixed-size by construction (moments).
	ErrNotDegradable = errors.New("sketch: not degradable")
)

// Sketch is the uniform interface over all quantile sketches evaluated in
// the study. Implementations are single-writer: callers must provide
// external synchronization to share one sketch across goroutines.
type Sketch interface {
	// Insert adds one observation to the sketch.
	Insert(x float64)

	// Quantile returns an estimate of the q-quantile of the inserted data
	// for q in (0, 1]. It returns ErrEmpty if nothing was inserted and
	// ErrInvalidQuantile for out-of-range q.
	Quantile(q float64) (float64, error)

	// Rank returns an estimate of the fraction of inserted values that are
	// less than or equal to x. It returns ErrEmpty on an empty sketch.
	// Otherwise Rank(NaN) = 0, Rank(−Inf) = 0, and Rank(x) = 1 for every
	// x ≥ the largest inserted value, +Inf included.
	Rank(x float64) (float64, error)

	// Merge folds other into the receiver so that the receiver summarizes
	// the union of both input streams. Implementations return
	// ErrIncompatible when other has a different concrete type or
	// incompatible parameters. other is not modified.
	Merge(other Sketch) error

	// Count reports the number of values inserted (including via merges).
	Count() uint64

	// MemoryBytes reports the structural size of the sketch: the number of
	// numbers (counters, samples, moments) retained, at 8 bytes each, plus
	// fixed per-structure overhead. It deliberately measures what the
	// paper's Table 3 measures rather than process RSS.
	MemoryBytes() int

	// Name returns a short stable identifier ("kll", "ddsketch", ...).
	Name() string

	// Reset restores the sketch to its freshly-constructed state,
	// preserving configuration parameters.
	Reset()

	encoding.BinaryMarshaler
	encoding.BinaryUnmarshaler
}

// Quantiler is the read-only query surface of a sketch: everything a
// consumer needs to answer quantile and rank questions, without the
// mutating half of the Sketch interface. Every Sketch is a Quantiler.
// The concurrent layer (internal/concurrent) hands out epoch-stamped
// snapshots as Quantilers so readers cannot accidentally mutate shared
// state.
type Quantiler interface {
	// Quantile returns an estimate of the q-quantile for q in (0, 1].
	Quantile(q float64) (float64, error)
	// Rank returns an estimate of the fraction of values ≤ x.
	Rank(x float64) (float64, error)
	// Count reports the number of values summarized.
	Count() uint64
}

// CheckQuantile validates q, returning ErrInvalidQuantile when q lies
// outside (0, 1]. Shared by all implementations so the boundary behaviour
// is identical across sketches.
func CheckQuantile(q float64) error {
	if !(q > 0 && q <= 1) {
		return fmt.Errorf("%w: got %v", ErrInvalidQuantile, q)
	}
	return nil
}

// Builder constructs a fresh sketch with fixed configuration. The harness
// uses builders so every window/run starts from an identically configured
// empty sketch.
type Builder func() Sketch

// Quantiles evaluates s at each q in qs, returning estimates in the same
// order. It stops at the first error. Sketches implementing
// MultiQuantiler answer the whole batch through their native kernel;
// everything else falls back to one Quantile call per q. It accepts any
// Quantiler (full sketches and read-only concurrent snapshots alike).
func Quantiles(s Quantiler, qs []float64) ([]float64, error) {
	if m, ok := s.(MultiQuantiler); ok {
		return m.QuantileAll(qs)
	}
	out := make([]float64, len(qs))
	for i, q := range qs {
		v, err := s.Quantile(q)
		if err != nil {
			return nil, fmt.Errorf("quantile %v: %w", q, err)
		}
		out[i] = v
	}
	return out, nil
}

// MultiQuantiler is implemented by sketches with a native batched query
// kernel that answers a whole quantile set in one pass: DDSketch and
// UDDSketch satisfy every target in a single cumulative sweep of their
// stores instead of one sweep per quantile. Sketches that cache their
// query view or solve between mutations (KLL, REQ, moments) gain
// nothing from a kernel and answer through the per-q loop.
//
// Contract: QuantileAll(qs) must be indistinguishable from calling
// Quantile(q) for each q in order — bitwise-identical estimates, and on
// failure the same first error (wrapped with its offending quantile,
// exactly as the Quantiles fallback loop wraps it). Only invisible
// scratch state (cached sorted views, solver warm starts, spare slice
// capacity) may differ afterwards. TestQuantileAllEquivalence enforces
// this for every implementation.
type MultiQuantiler interface {
	// QuantileAll returns the estimates for every q of qs in order,
	// equivalent to querying them one at a time.
	QuantileAll(qs []float64) ([]float64, error)
}

// ValidateQuantiles reproduces the error behaviour of a per-q scalar
// query loop for a batched kernel: each q is validated in slice order,
// and an empty sketch fails at the first (valid) q. The returned error
// is wrapped exactly like the Quantiles fallback wraps it, so callers
// cannot distinguish the native path from the loop.
func ValidateQuantiles(qs []float64, empty bool) error {
	for _, q := range qs {
		if err := CheckQuantile(q); err != nil {
			return fmt.Errorf("quantile %v: %w", q, err)
		}
		if empty {
			return fmt.Errorf("quantile %v: %w", q, ErrEmpty)
		}
	}
	return nil
}

// InsertAll inserts every value of xs into s, using the sketch's native
// batch kernel when it implements BatchInserter.
func InsertAll(s Sketch, xs []float64) {
	if b, ok := s.(BatchInserter); ok {
		b.InsertBatch(xs)
		return
	}
	for _, x := range xs {
		s.Insert(x)
	}
}

// BatchInserter is implemented by sketches with a native batched insert
// kernel that amortizes per-element interface-call, bookkeeping and
// bounds-check overhead across a slice of observations.
//
// Contract: InsertBatch(xs) must be indistinguishable from calling
// Insert(x) for each x in order — identical serialized form, count,
// retained samples and query answers, which requires the same
// compaction/collapse trigger points, the same floating-point
// accumulation order, and the same treatment of NaN and unrepresentable
// values. Only invisible scratch state (e.g. a backing array's spare
// capacity) may differ. The stream engine inserts in batches on every
// path and relies on this equivalence for its answers to match
// per-event insertion (internal/stream), and TestInsertBatchEquivalence
// enforces it for every implementation.
//
// On KLL and REQ InsertBatch is no kernel: it runs the scalar insert
// body per value and saves only the metrics, which it publishes as one
// delta per batch instead of one per value.
type BatchInserter interface {
	// InsertBatch adds every value of xs, equivalent to inserting them
	// one at a time in order.
	InsertBatch(xs []float64)
}

// CountScaler is implemented by sketches that can rescale their total
// weight by a factor g in [0, 1] — the primitive behind exponential
// time decay, where a window merge down-weights older panes by
// exp(-λ·age) before folding them in (internal/stream).
//
// Contract: after ScaleCount(g) the sketch summarizes approximately the
// same distribution with Count() ≈ g·oldCount, all structural
// invariants intact, and the result is a pure function of the prior
// state and g (no randomness, no iteration-order dependence), so that
// decayed engine runs stay bit-deterministic. g values outside (0, 1)
// are clamped: g ≥ 1 or NaN is a no-op, g ≤ 0 resets the sketch. The
// exact mechanism is per-sketch (sample re-placement for samplers,
// rounded bucket scaling for histograms, exact moment scaling) and
// documented on each implementation.
//
// MergeScaled is the fused form the engine's window assembly uses:
// s.MergeScaled(o, g) leaves s byte-identical (MarshalBinary) to
// cloning o through a MarshalBinary/UnmarshalBinary round-trip into a
// fresh sketch of the same configuration, calling ScaleCount(g) on the
// clone and merging the clone into s — without building the clone
// where the sketch can fold the scaling into the merge. o is never
// modified, so an immutable pane can enter many windows at different
// weights. ScaleCount stays the reference primitive the fused form is
// tested against (TestMergeScaledEquivalence).
type CountScaler interface {
	// ScaleCount multiplies the sketch's effective weight by g.
	ScaleCount(g float64)
	// MergeScaled merges other, down-weighted by g, into the receiver.
	MergeScaled(other Sketch, g float64) error
}

// Footprinter is implemented by sketches that can report their live
// memory footprint — the bytes actually held right now, including
// allocated-but-unused buffer capacity and reusable scratch — as
// opposed to MemoryBytes, which reports the paper's structural Table 3
// accounting. The memory-budget governor (internal/budget) charges
// sketches by Footprint when available and falls back to MemoryBytes;
// use FootprintOf for that dispatch.
type Footprinter interface {
	// Footprint reports the sketch's current live size in bytes.
	Footprint() int
}

// FootprintOf charges s by its live footprint when it reports one and
// by its structural MemoryBytes otherwise.
func FootprintOf(s Sketch) int {
	if f, ok := s.(Footprinter); ok {
		return f.Footprint()
	}
	return s.MemoryBytes()
}

// Degrader is implemented by sketches that can trade accuracy for
// memory on demand — the per-sketch knob behind the memory-budget
// governor's degradation ladder (internal/budget). Each call performs
// one degradation step: KLL and REQ force-compact to a smaller k,
// DDSketch collapses the lowest-value region of its store, UDDSketch
// runs one extra uniform collapse (α-deterioration, Epicoco et al.),
// and moments — fixed-size by construction — always refuses.
//
// Contract: Degrade either strictly shrinks the sketch and returns the
// bytes freed (freedBytes ≥ 0 as measured by FootprintOf before/after),
// or returns ErrNotDegradable leaving the sketch untouched. Count() is
// conserved exactly, every structural invariant holds afterwards, and
// the result remains mergeable with undegraded sketches of the same
// configuration family (documented per implementation). The step is a
// pure function of the prior state, so budgeted engine runs stay
// deterministic.
type Degrader interface {
	// Degrade performs one accuracy-for-memory degradation step.
	Degrade() (freedBytes int, err error)
}

// Trimmer is implemented by sketches whose stores keep spare capacity
// for growth — UDDSketch's maps keep their fullest size through its
// in-place collapses — and can give it back. Ranging over that
// capacity slows every later read, so a sketch that has stopped
// growing and will be merged many times is worth trimming first, as
// the fig5c and ablation-uddstore merge loops do with their filled
// sources.
//
// Contract: Trim changes no observable state — count, answers and
// serialized bytes stay identical — and is a pure function of the
// prior state.
type Trimmer interface {
	// Trim releases the sketch's spare capacity.
	Trim()
}

// Trim trims s when it is a Trimmer and does nothing otherwise.
func Trim(s Sketch) {
	if t, ok := s.(Trimmer); ok {
		t.Trim()
	}
}

// AccuracyBounder is implemented by sketches that can report their
// current error guarantee as a single dimensionless number: relative
// value error α for the histogram sketches, an empirical normalized
// rank-error scale for the samplers. The bound grows monotonically as
// the sketch degrades, which is what the stream engine surfaces on
// each WindowResult so consumers can see exactly how much accuracy a
// budget-constrained window gave up.
type AccuracyBounder interface {
	// AccuracyBound reports the sketch's current error bound.
	AccuracyBound() float64
}
