// Package quantiles is the public API of this repository: streaming
// quantile sketches with a uniform interface, reproducing the five
// algorithms evaluated in "An Experimental Analysis of Quantile Sketches
// over Data Streams" (EDBT 2023) — KLL Sketch, Moments Sketch, DDSketch,
// UDDSketch and ReqSketch — together with the study's recommended
// configurations.
//
// All sketches implement the Sketch interface: single-pass Insert,
// Quantile/Rank queries, lossless Merge for distributed aggregation, and
// binary serialization. Pick by workload:
//
//   - DDSketch: best all-round runtime with a hard relative-error
//     guarantee α on every quantile; the study's default recommendation.
//   - UDDSketch: the best accuracy of the five (tighter-than-requested α
//     until its collapse budget is spent), at slower inserts and merges.
//   - KLL: additive rank-error guarantee; estimates are actual stream
//     values; strong on non-skewed data.
//   - ReqSketch: multiplicative rank-error guarantee biased toward the
//     upper (HRA) or lower (LRA) quantiles; the sharpest p99 estimates.
//   - Moments: ~150 bytes of state and merges an order of magnitude
//     faster than anything else; accuracy depends on the data resembling
//     a smooth distribution.
//
// Quickstart:
//
//	sk := quantiles.NewDDSketch(0.01) // ≤1% relative error
//	for _, v := range latencies {
//		sk.Insert(v)
//	}
//	p99, err := sk.Quantile(0.99)
//
// The internal packages additionally provide the paper's full benchmark
// harness (internal/harness, cmd/quantbench), a simulated stream
// processing engine with event-time windows and late-data semantics
// (internal/stream), and the workload generators (internal/datagen).
package quantiles

import (
	"repro/internal/concurrent"
	"repro/internal/ddsketch"
	"repro/internal/gk"
	"repro/internal/kll"
	"repro/internal/kllpm"
	"repro/internal/moments"
	"repro/internal/req"
	"repro/internal/sketch"
	"repro/internal/tdigest"
	"repro/internal/uddsketch"
)

// Sketch is the uniform interface implemented by every quantile sketch.
// See internal/sketch for the full contract.
type Sketch = sketch.Sketch

// Builder constructs fresh, identically configured sketches (for
// per-window or per-partition use).
type Builder = sketch.Builder

// Common errors, re-exported for errors.Is checks.
var (
	// ErrEmpty is returned when querying a sketch with no data.
	ErrEmpty = sketch.ErrEmpty
	// ErrInvalidQuantile is returned for q outside (0, 1].
	ErrInvalidQuantile = sketch.ErrInvalidQuantile
	// ErrIncompatible is returned when merging mismatched sketches.
	ErrIncompatible = sketch.ErrIncompatible
	// ErrCorrupt is returned when deserializing malformed bytes.
	ErrCorrupt = sketch.ErrCorrupt
)

// MomentsTransform selects the input transform of a Moments sketch.
type MomentsTransform = moments.Transform

// Moments sketch input transforms. Use MomentsLog for positive data
// spanning many orders of magnitude, MomentsArcsinh for signed data.
const (
	MomentsNone    = moments.TransformNone
	MomentsLog     = moments.TransformLog
	MomentsArcsinh = moments.TransformArcsinh
)

// NewDDSketch returns a DDSketch with relative accuracy alpha (0 < alpha
// < 1) and an unbounded dense store. Every estimate x̂ of a true quantile
// value x satisfies |x̂−x| ≤ alpha·|x|. The default index mapping is the
// cubically-interpolated one (no log() call per insert; ~1% more buckets
// than exact); use NewDDSketchWithMapping with NewLogarithmicMapping for
// the exact mapping. Panics on invalid alpha.
func NewDDSketch(alpha float64) *ddsketch.Sketch { return ddsketch.New(alpha) }

// NewDDSketchCollapsing returns a DDSketch bounded at maxBuckets buckets;
// when the range outgrows the budget, the lowest buckets collapse and
// only low-quantile accuracy degrades.
func NewDDSketchCollapsing(alpha float64, maxBuckets int) *ddsketch.Sketch {
	return ddsketch.NewCollapsing(alpha, maxBuckets)
}

// NewDDSketchPaginated returns a DDSketch over the buffered-paginated
// store: same O(1) amortized inserts as the dense store, with memory
// proportional to the touched bucket-index pages rather than the full
// index span — the better default when bucket ranges cluster.
func NewDDSketchPaginated(alpha float64) *ddsketch.Sketch { return ddsketch.NewPaginated(alpha) }

// NewUDDSketch returns a UDDSketch with initial accuracy alpha0 and a
// bucket budget; when the budget is exhausted all bucket pairs collapse
// uniformly and the guarantee degrades to 2α/(1+α²) per collapse.
func NewUDDSketch(alpha0 float64, maxBuckets int) (*uddsketch.Sketch, error) {
	return uddsketch.NewChecked(alpha0, maxBuckets)
}

// NewUDDSketchWithBudget returns a UDDSketch that still guarantees
// alphaK after numCollapses−1 collapses (the study's configuration is
// alphaK=0.01, maxBuckets=1024, numCollapses=12).
func NewUDDSketchWithBudget(alphaK float64, maxBuckets, numCollapses int) (*uddsketch.Sketch, error) {
	return uddsketch.NewWithBudget(alphaK, maxBuckets, numCollapses)
}

// NewKLL returns a KLL sketch with max compactor size k (the study uses
// 350 for ≈0.97% expected rank error).
func NewKLL(k int) *kll.Sketch { return kll.New(k) }

// NewKLLWithSeed is NewKLL with explicit compaction-randomness seeding.
func NewKLLWithSeed(k int, seed uint64) *kll.Sketch { return kll.NewWithSeed(k, seed) }

// NewReqSketch returns a ReqSketch with section size k (the study uses
// 30). hra selects high-rank-accuracy mode (sharp upper quantiles);
// otherwise low ranks are favoured.
func NewReqSketch(k int, hra bool) *req.Sketch { return req.New(k, hra) }

// NewReqSketchWithSeed is NewReqSketch with explicit seeding.
func NewReqSketchWithSeed(k int, hra bool, seed uint64) *req.Sketch {
	return req.NewWithSeed(k, hra, seed)
}

// NewMoments returns a Moments sketch holding k power sums (the study
// uses 12; more than ~15 is numerically unstable).
func NewMoments(k int) *moments.Sketch { return moments.New(k) }

// NewMomentsWithTransform is NewMoments with an input transform applied
// before accumulation (estimates are mapped back automatically).
func NewMomentsWithTransform(k int, tr MomentsTransform) *moments.Sketch {
	return moments.NewWithTransform(k, tr)
}

// MultiQuantiler is implemented by sketches that answer a whole set of
// quantile queries in one pass over their state (DDSketch and
// UDDSketch); Quantiles uses it automatically.
type MultiQuantiler = sketch.MultiQuantiler

// Quantiles evaluates sk at each q in qs. When sk implements
// MultiQuantiler the batch kernel answers all quantiles in a single pass
// over the sketch state; results are bit-identical to per-q Quantile
// calls either way.
func Quantiles(sk Sketch, qs []float64) ([]float64, error) { return sketch.Quantiles(sk, qs) }

// InsertAll inserts every value of xs into sk.
func InsertAll(sk Sketch, xs []float64) { sketch.InsertAll(sk, xs) }

// IndexMapping is DDSketch's pluggable value→bucket mapping (see
// NewDDSketchWithMapping).
type IndexMapping = ddsketch.IndexMapping

// NewLogarithmicMapping returns DDSketch's exact log_γ mapping: fewest
// buckets, one log() call per insert.
func NewLogarithmicMapping(alpha float64) (IndexMapping, error) {
	return ddsketch.NewLogarithmic(alpha)
}

// NewCubicMapping returns DDSketch's cubically-interpolated mapping —
// the default of NewDDSketch: ~1% more buckets, no transcendental call
// per insert (≈2x faster indexing).
func NewCubicMapping(alpha float64) (IndexMapping, error) {
	return ddsketch.NewCubicMapping(alpha)
}

// NewLinearMapping returns DDSketch's linearly-interpolated mapping:
// the cheapest indexing at ~44% more buckets.
func NewLinearMapping(alpha float64) (IndexMapping, error) {
	return ddsketch.NewLinearMapping(alpha)
}

// NewDDSketchWithMapping returns a DDSketch over an unbounded dense
// store using the given index mapping.
func NewDDSketchWithMapping(m IndexMapping) (*ddsketch.Sketch, error) {
	return ddsketch.NewWithMapping(m, func() ddsketch.Store { return ddsketch.NewDenseStore() })
}

// NewTDigest returns a t-digest with compression δ (tail-accurate
// clustering; no hard error bound — see the study's Sec 5.2.4 caveats).
func NewTDigest(compression float64) *tdigest.Sketch { return tdigest.New(compression) }

// NewGK returns a Greenwald-Khanna summary with additive rank error eps
// (the classic deterministic baseline; merges degrade its bound).
func NewGK(eps float64) *gk.Sketch { return gk.New(eps) }

// NewKLLPlusMinus returns a KLL± sketch: KLL extended with deletions
// (Zhao et al.). Its error guarantee scales with the total operation
// count (inserts + deletes), and its footprint is twice plain KLL's.
func NewKLLPlusMinus(k int) *kllpm.Sketch { return kllpm.New(k) }

// NewMomentsFull returns the full Moments Sketch variant that maintains
// standard AND log power sums and solves them jointly — the original
// design, handling heavy-tailed positive data without a manual
// transform. Twice the (still tiny) state of NewMoments.
func NewMomentsFull(k int) *moments.FullSketch { return moments.NewFull(k) }

// Quantiler is the read-only query side of a sketch — what a
// concurrent snapshot exposes.
type Quantiler = sketch.Quantiler

// ConcurrentSketch is a sketch ingesting from multiple goroutines at
// once: each writer goroutine owns a Writer handle (buffered, no
// shared-state touches until handoff) and any goroutine may take a
// non-blocking Snapshot that trails the writers by at most
// NumWriters()×BufferSize() values. See internal/concurrent and
// DESIGN.md §14.
type ConcurrentSketch = concurrent.Shared

// ConcurrentWriter is one goroutine's insert handle of a
// ConcurrentSketch.
type ConcurrentWriter = concurrent.Writer

// NewConcurrentKLL returns a KLL sketch shared by writers goroutines,
// each buffering bufSize values per handoff (1024 when bufSize <= 0).
// Handoffs publish immutable sketch versions by compare-and-swap.
func NewConcurrentKLL(k, writers, bufSize int) *concurrent.SharedKLL {
	return concurrent.NewKLL(k, writers, bufSize)
}

// NewConcurrentDDSketch returns a DDSketch with relative accuracy
// alpha shared by writers goroutines, each buffering bufSize values
// per handoff (1024 when bufSize <= 0). Handoffs aggregate into atomic
// bucket counters, wait-free per bucket.
func NewConcurrentDDSketch(alpha float64, writers, bufSize int) (*concurrent.SharedDDSketch, error) {
	return concurrent.NewDDSketch(alpha, writers, bufSize)
}
