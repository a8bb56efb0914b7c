// Package concurrent is the shared-sketch ingestion layer: many writer
// goroutines feed one logical sketch while readers take consistent
// point-in-time snapshots, without a lock on the insert hot path.
//
// The architecture follows Rinberg et al. ("Fast Concurrent Data
// Sketches", PPoPP 2020) and Quancurrent: each writer owns a local
// buffer of capacity B and appends to it with zero shared-state
// touches; when the buffer fills, the whole batch is propagated into
// the shared sketch in one handoff (an epoch-advancing CAS publication
// for KLL, atomic bin-counter additions for DDSketch). Readers call
// Snapshot and get an epoch-stamped sketch.Quantiler that is immutable
// and private to them.
//
// The price of lock-freedom is relaxed semantics with a provable bound:
// a snapshot taken while writers are active reflects every handoff that
// completed before the snapshot and may miss values still sitting in
// writer-local buffers — at most B per writer, so at most
// NumWriters × BufferSize values in total (MaxRelaxation). After every
// writer flushes and quiesces, snapshots are exact. The relaxation
// property test in this package and the derivation in DESIGN.md §14
// pin this bound.
//
// Writer handles are single-goroutine: each of the NumWriters handles
// must be used by at most one goroutine at a time (ownership may move
// between goroutines only across a happens-before edge). Any number of
// goroutines may call Snapshot, Epoch and Count concurrently with the
// writers.
package concurrent

import (
	"math"

	"repro/internal/sketch"
)

// DefaultBufferSize is the per-writer buffer capacity used when callers
// pass bufSize <= 0: large enough to amortize handoff cost (a KLL
// handoff at k=350 copies the level headers and the levels its
// compactions write, ~50 samples on average between 1M and 3M items,
// and shares the other few hundred), small enough that the relaxation
// bound NumWriters × B stays a negligible fraction of any realistic
// stream.
const DefaultBufferSize = 1024

// Shared is a sketch ingested by NumWriters concurrent writers and
// readable at any time through relaxed snapshots.
type Shared interface {
	// Writer returns handle i in [0, NumWriters). Each handle is
	// single-goroutine; distinct handles may be used concurrently.
	Writer(i int) *Writer
	// NumWriters reports the number of writer handles.
	NumWriters() int
	// BufferSize reports the per-writer buffer capacity B.
	BufferSize() int
	// Snapshot returns an epoch-stamped, immutable point-in-time view
	// (concretely a *Snapshot). It may trail the writers by at most
	// MaxRelaxation unpropagated values and is exact at quiescence
	// after Flush.
	Snapshot() sketch.Quantiler
	// Epoch reports the number of completed handoffs — it increases
	// monotonically, and a snapshot's Epoch tells a reader how fresh
	// its view is.
	Epoch() uint64
	// Count reports the number of values propagated into the shared
	// sketch so far (excluding values still in writer buffers).
	Count() uint64
	// MaxRelaxation reports the worst-case number of inserted values a
	// snapshot may be missing while writers are active:
	// NumWriters × BufferSize.
	MaxRelaxation() uint64
	// Flush propagates every writer's buffered values. It touches all
	// writer buffers and is therefore only safe when no writer is
	// concurrently inserting (a quiescent point: end of stream, end of
	// test, checkpoint barrier).
	Flush()
	// Footprint estimates the shared sketch's resident heap bytes —
	// the published sketch state plus every writer's buffer capacity —
	// so a memory-budget governor can account for shared ingestion
	// alongside the per-window sketches. Safe to call concurrently with
	// writers; the estimate is a relaxed read like Snapshot.
	Footprint() int
}

// bufSink absorbs one writer's full buffer into the shared sketch.
type bufSink interface {
	flushBuffer(vals []float64)
}

// Writer is a single-goroutine ingestion handle: a local buffer plus
// the shared sketch it hands off to. The zero value is not usable;
// obtain handles from a Shared implementation.
type Writer struct {
	buf  []float64
	sink bufSink
}

func newWriter(sink bufSink, bufSize int) *Writer {
	return &Writer{buf: make([]float64, 0, bufSize), sink: sink}
}

// Insert adds one observation. NaN and ±Inf payloads are rejected
// before reaching the buffer (counted in ConcurrentMetrics.
// RejectedInput when metrics are wired), mirroring the stream engine's
// input validation: a buffered Inf would otherwise survive until the
// handoff and poison the shared sketch's summary. The hot path is a
// bounds-checked append into the writer-local buffer; the shared
// sketch is touched only on the handoff when the buffer fills (once
// per BufferSize inserts).
//
//sketch:hotpath
func (w *Writer) Insert(x float64) {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		recordRejected()
		return
	}
	w.buf = append(w.buf, x)
	if len(w.buf) == cap(w.buf) {
		w.sink.flushBuffer(w.buf)
		w.buf = w.buf[:0]
	}
}

// InsertBatch adds every value of xs, equivalent to inserting them one
// at a time in order. It takes xs in runs of the buffer's free space:
// one pass over a run checks it for NaN and ±Inf, and a run without
// them is copied into the buffer whole. A run with them goes through
// Insert value by value, which counts each reject.
func (w *Writer) InsertBatch(xs []float64) {
	for len(xs) > 0 {
		run := xs[:min(len(xs), cap(w.buf)-len(w.buf))]
		xs = xs[len(run):]
		if !allFinite(run) {
			for _, x := range run {
				w.Insert(x)
			}
			continue
		}
		w.buf = append(w.buf, run...)
		if len(w.buf) == cap(w.buf) {
			w.sink.flushBuffer(w.buf)
			w.buf = w.buf[:0]
		}
	}
}

// allFinite reports whether xs holds neither NaN nor ±Inf: x − x is 0
// for every finite x and NaN otherwise.
func allFinite(xs []float64) bool {
	for _, x := range xs {
		if x-x != 0 {
			return false
		}
	}
	return true
}

// Flush propagates the buffered values now instead of waiting for the
// buffer to fill. Call it when the owning goroutine finishes its input
// (stream end, worker shutdown) so the shared sketch converges to the
// exact serial state.
func (w *Writer) Flush() {
	if len(w.buf) > 0 {
		w.sink.flushBuffer(w.buf)
		w.buf = w.buf[:0]
	}
}

// Buffered reports the number of values currently held locally — this
// writer's contribution to the relaxation bound.
func (w *Writer) Buffered() int { return len(w.buf) }

// Snapshot is an epoch-stamped, immutable point-in-time view of a
// shared sketch. It embeds the query surface, so a *Snapshot is a
// sketch.Quantiler; Epoch orders it against other snapshots of the
// same shared sketch.
type Snapshot struct {
	sketch.Quantiler
	epoch uint64
}

// Epoch reports how many handoffs the view includes. Snapshots of the
// same shared sketch with equal epochs summarize identical data.
func (s *Snapshot) Epoch() uint64 { return s.epoch }

// recordHandoff updates the package metrics for one buffer handoff.
func recordHandoff(values int) {
	if metrics != nil {
		metrics.Handoffs.Inc()
		metrics.HandoffValues.Add(int64(values))
	}
}

// recordSnapshot updates the package metrics for one snapshot read.
func recordSnapshot() {
	if metrics != nil {
		metrics.Snapshots.Inc()
	}
}

// recordCASRetry updates the package metrics for one lost CAS race.
func recordCASRetry() {
	if metrics != nil {
		metrics.CASRetries.Inc()
	}
}

// recordRejected updates the package metrics for one rejected payload.
func recordRejected() {
	if metrics != nil {
		metrics.RejectedInput.Inc()
	}
}
