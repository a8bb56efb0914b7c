// Package obs is the repo's zero-dependency observability layer: atomic
// counters and gauges the sketches and the stream engine increment at
// their structural events (inserts, compactions, collapses, window
// fires, late drops, …), aggregated in a Registry that can be dumped as
// Prometheus text, published through expvar, or snapshotted for test
// assertions.
//
// The layer is disabled by default. Every instrumented package holds a
// nil *SketchMetrics (or a nil Config.Metrics in the stream engine), and
// every recording method nil-checks its receiver, so the disabled cost
// is a single predictable branch per recording site. No recording site
// sits inside a per-element loop: a scalar Insert records its own
// insert, every batch kernel counts in locals and records one delta per
// batch, and the stream engine counts its per-event totals in its Stats
// and publishes them at batch hand-offs and barriers. Production
// systems built on these sketches (Rinberg et al.'s concurrent sketches,
// UDDSketch deployments where the collapse count is the accuracy
// diagnostic) treat these counters as first-class; here they also make
// the engine's accounting provable: the stats identity
// Generated == Accepted + DroppedLate + RejectedInput is asserted
// against these counters in tests.
//
// Enabling is a wiring decision made at process start (see
// core.EnableMetrics and the quantbench -metrics/-http flags). The
// Set*Metrics functions of the instrumented packages must be called
// while no sketch or engine of that package is running; after that,
// recording is safe from any number of goroutines.
package obs

import (
	"expvar"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. All methods are
// safe on a nil receiver (no-ops / zero), which is the disabled state.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Load returns the current value (0 on nil).
func (c *Counter) Load() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value. All methods are safe on a nil
// receiver.
type Gauge struct {
	v atomic.Int64
}

// Set stores n.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Max raises the gauge to n if n exceeds the current value — a
// high-water mark. Lock-free via CAS.
func (g *Gauge) Max(n int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if n <= cur || g.v.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Load returns the current value (0 on nil).
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// SketchMetrics aggregates the structural events of every sketch
// instance a package builds (all windows, all partitions). A nil
// *SketchMetrics is the disabled state; the instrumented packages guard
// every recording site with a nil check on the package-level pointer.
type SketchMetrics struct {
	// Inserts counts accepted values (batch kernels add their length).
	Inserts Counter
	// Compactions counts compactor-level compaction operations
	// (KLL/REQ).
	Compactions Counter
	// Collapses counts bucket-store collapse operations (DDSketch
	// collapsing stores, UDDSketch uniform collapses).
	Collapses Counter
	// AlphaDeteriorations counts guarantee degradations: UDDSketch's
	// α ← 2α/(1+α²) steps. DDSketch collapses do not degrade α and so
	// never increment this.
	AlphaDeteriorations Counter
	// NewtonIterations counts max-entropy solver Newton steps
	// (Moments).
	NewtonIterations Counter
	// ColdStarts counts solver cold starts, including warm-start
	// fallbacks (Moments).
	ColdStarts Counter
	// PeakBytes is the high-water-mark MemoryBytes() of any single
	// instance, sampled at structural events (compaction, collapse,
	// merge, solve) — "space actually resident" as opposed to the
	// footprint the sketch reports at query time.
	PeakBytes Gauge
}

// sketchFields enumerates the SketchMetrics values for rendering.
func (m *SketchMetrics) fields() []field {
	return []field{
		{"inserts_total", counterKind, m.Inserts.Load()},
		{"compactions_total", counterKind, m.Compactions.Load()},
		{"collapses_total", counterKind, m.Collapses.Load()},
		{"alpha_deteriorations_total", counterKind, m.AlphaDeteriorations.Load()},
		{"newton_iterations_total", counterKind, m.NewtonIterations.Load()},
		{"cold_starts_total", counterKind, m.ColdStarts.Load()},
		{"peak_bytes", gaugeKind, m.PeakBytes.Load()},
	}
}

// EngineMetrics aggregates stream-engine counters across runs. A nil
// *EngineMetrics disables recording (stream.Config.Metrics defaults to
// nil).
type EngineMetrics struct {
	// Generated counts events produced by the source inside the
	// measured run (grace-period events past the final window are
	// excluded, matching Stats.Generated).
	Generated Counter
	// Inserted counts events routed into a window's sketch.
	Inserted Counter
	// DroppedLate counts events discarded because their window had
	// already fired.
	DroppedLate Counter
	// RejectedInput counts events discarded for invalid payloads
	// (NaN/±Inf) before reaching any sketch.
	RejectedInput Counter
	// WindowFires counts emitted windows.
	WindowFires Counter
	// PanesOpen is the number of panes the pane-sharing sliding engine
	// currently buffers (unsealed panes still accepting events plus
	// sealed panes retained for windows that have not fired yet).
	// Tumbling runs leave it at 0.
	PanesOpen Gauge
	// PaneMerges counts pane sketches folded into fired sliding
	// windows — the work the pane-sharing engine does instead of
	// re-inserting every event once per overlapping window.
	PaneMerges Counter
	// MaxWatermarkLagNS is the high-water mark of (event arrival time −
	// watermark) observed while processing, in nanoseconds: how far
	// arrival order ran ahead of event time.
	MaxWatermarkLagNS Gauge
	// MaxBatchQueueDepth is the high-water mark of any parallel
	// worker's channel depth (queued batch/fire messages).
	MaxBatchQueueDepth Gauge
	// SnapshotsTaken counts engine checkpoints persisted to the
	// configured store.
	SnapshotsTaken Counter
	// SnapshotBytes totals the sealed size of persisted checkpoints.
	SnapshotBytes Counter
	// Restores counts successful resume-from-checkpoint operations.
	Restores Counter
	// ReplayedEvents counts source draws fast-forwarded during resumes
	// (events re-generated to reach the checkpointed source offset).
	ReplayedEvents Counter
	// RecoveredPanics counts engine/worker panics converted into a
	// restore-and-replay cycle by RunRecovering.
	RecoveredPanics Counter
	// WorkersClamped counts engine constructions whose Config.Workers
	// exceeded Config.Partitions and was clamped down (each worker owns
	// whole partitions, so extra workers would sit idle). The clamp is
	// also reported once per process on stderr; this counter makes it
	// visible to scrapes and tests.
	WorkersClamped Counter
	// Degradations counts in-place sketch degradations applied by the
	// memory-budget governor (rung 1 of the degradation ladder).
	Degradations Counter
	// BudgetEvictions counts sealed panes coarsened (merged into their
	// successor early) to reclaim memory (rung 2).
	BudgetEvictions Counter
	// BudgetShed counts events dropped because the budget was exhausted
	// past every degradation rung (rung 3). These extend the accounting
	// identity: Generated == Accepted + DroppedLate + RejectedInput +
	// ShedBudget.
	BudgetShed Counter
	// BudgetBytes is the governor's tracked footprint after the most
	// recent enforcement pass (0 when no budget is configured).
	BudgetBytes Gauge
	// CheckpointRetries counts transient checkpoint-store failures
	// absorbed by retry (checkpoint.RetryStore).
	CheckpointRetries Counter
}

func (m *EngineMetrics) fields() []field {
	return []field{
		{"generated_total", counterKind, m.Generated.Load()},
		{"inserted_total", counterKind, m.Inserted.Load()},
		{"dropped_late_total", counterKind, m.DroppedLate.Load()},
		{"rejected_input_total", counterKind, m.RejectedInput.Load()},
		{"window_fires_total", counterKind, m.WindowFires.Load()},
		{"panes_open", gaugeKind, m.PanesOpen.Load()},
		{"pane_merges_total", counterKind, m.PaneMerges.Load()},
		{"max_watermark_lag_ns", gaugeKind, m.MaxWatermarkLagNS.Load()},
		{"max_batch_queue_depth", gaugeKind, m.MaxBatchQueueDepth.Load()},
		{"snapshots_total", counterKind, m.SnapshotsTaken.Load()},
		{"snapshot_bytes_total", counterKind, m.SnapshotBytes.Load()},
		{"restores_total", counterKind, m.Restores.Load()},
		{"replayed_events_total", counterKind, m.ReplayedEvents.Load()},
		{"recovered_panics_total", counterKind, m.RecoveredPanics.Load()},
		{"workers_clamped_total", counterKind, m.WorkersClamped.Load()},
		{"degradations_total", counterKind, m.Degradations.Load()},
		{"budget_evictions_total", counterKind, m.BudgetEvictions.Load()},
		{"budget_shed_total", counterKind, m.BudgetShed.Load()},
		{"budget_bytes", gaugeKind, m.BudgetBytes.Load()},
		{"checkpoint_retries_total", counterKind, m.CheckpointRetries.Load()},
	}
}

// ConcurrentMetrics aggregates the structural events of the concurrent
// shared-sketch layer (internal/concurrent): buffer handoffs from
// writer-local buffers into the shared sketch, CAS publication retries
// under contention, and snapshot reads. A nil *ConcurrentMetrics is the
// disabled state.
type ConcurrentMetrics struct {
	// Handoffs counts writer buffer flushes into the shared sketch.
	Handoffs Counter
	// HandoffValues totals the values propagated across all handoffs.
	HandoffValues Counter
	// CASRetries counts failed compare-and-swap attempts during
	// propagation (state pointer publication or lazily installed
	// counter pages lost to a concurrent writer).
	CASRetries Counter
	// Snapshots counts point-in-time snapshot reads taken while
	// writers were free to keep inserting.
	Snapshots Counter
	// RejectedInput counts values a writer handle refused (NaN/±Inf)
	// before they reached any buffer — the shared-sketch counterpart
	// of EngineMetrics.RejectedInput.
	RejectedInput Counter
}

func (m *ConcurrentMetrics) fields() []field {
	return []field{
		{"handoffs_total", counterKind, m.Handoffs.Load()},
		{"handoff_values_total", counterKind, m.HandoffValues.Load()},
		{"cas_retries_total", counterKind, m.CASRetries.Load()},
		{"snapshots_total", counterKind, m.Snapshots.Load()},
		{"rejected_input_total", counterKind, m.RejectedInput.Load()},
	}
}

type metricKind int

const (
	counterKind metricKind = iota
	gaugeKind
)

func (k metricKind) String() string {
	if k == counterKind {
		return "counter"
	}
	return "gauge"
}

// field is one rendered metric value.
type field struct {
	name string
	kind metricKind
	v    int64
}

// Registry owns the process's metric sets: one SketchMetrics per sketch
// name and one shared EngineMetrics. It is safe for concurrent use.
type Registry struct {
	mu         sync.Mutex
	sketches   map[string]*SketchMetrics
	engine     EngineMetrics
	concurrent ConcurrentMetrics
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{sketches: make(map[string]*SketchMetrics)}
}

// Sketch returns (creating on first use) the metrics set for the named
// sketch.
func (r *Registry) Sketch(name string) *SketchMetrics {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.sketches[name]
	if m == nil {
		m = &SketchMetrics{}
		r.sketches[name] = m
	}
	return m
}

// Engine returns the registry's engine metrics set.
func (r *Registry) Engine() *EngineMetrics { return &r.engine }

// Concurrent returns the registry's concurrent-sketch metrics set.
func (r *Registry) Concurrent() *ConcurrentMetrics { return &r.concurrent }

// sketchNames returns the registered sketch names, sorted.
func (r *Registry) sketchNames() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.sketches))
	for n := range r.sketches {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Snapshot returns every metric as a flat map: "engine.<name>" for
// engine counters and "sketch.<sketch>.<name>" for sketch counters.
// Values are read atomically per metric (the snapshot as a whole is not
// a consistent cut, which is fine for monotone counters at quiescence —
// the state tests read them in).
func (r *Registry) Snapshot() map[string]int64 {
	out := make(map[string]int64)
	for _, f := range r.engine.fields() {
		out["engine."+trimSuffix(f.name)] = f.v
	}
	for _, f := range r.concurrent.fields() {
		out["concurrent."+trimSuffix(f.name)] = f.v
	}
	for _, name := range r.sketchNames() {
		m := r.Sketch(name)
		for _, f := range m.fields() {
			out["sketch."+name+"."+trimSuffix(f.name)] = f.v
		}
	}
	return out
}

// trimSuffix drops the Prometheus "_total" suffix for snapshot keys.
func trimSuffix(s string) string {
	const suf = "_total"
	if len(s) > len(suf) && s[len(s)-len(suf):] == suf {
		return s[:len(s)-len(suf)]
	}
	return s
}

// WriteText renders the registry in the Prometheus text exposition
// format (one TYPE line per family, sketch families labeled by sketch
// name).
func (r *Registry) WriteText(w io.Writer) error {
	for _, f := range r.engine.fields() {
		if _, err := fmt.Fprintf(w, "# TYPE quantstream_engine_%s %s\nquantstream_engine_%s %d\n",
			f.name, f.kind, f.name, f.v); err != nil {
			return err
		}
	}
	for _, f := range r.concurrent.fields() {
		if _, err := fmt.Fprintf(w, "# TYPE quantstream_concurrent_%s %s\nquantstream_concurrent_%s %d\n",
			f.name, f.kind, f.name, f.v); err != nil {
			return err
		}
	}
	names := r.sketchNames()
	if len(names) == 0 {
		return nil
	}
	// Families across sketches share TYPE lines; emit family-major.
	families := r.Sketch(names[0]).fields()
	for fi := range families {
		f := families[fi]
		if _, err := fmt.Fprintf(w, "# TYPE quantstream_sketch_%s %s\n", f.name, f.kind); err != nil {
			return err
		}
		for _, name := range names {
			v := r.Sketch(name).fields()[fi].v
			if _, err := fmt.Fprintf(w, "quantstream_sketch_%s{sketch=%q} %d\n", f.name, name, v); err != nil {
				return err
			}
		}
	}
	return nil
}

// Handler returns an http.Handler serving WriteText — a Prometheus
// scrape endpoint.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WriteText(w)
	})
}

// PublishExpvar exposes the registry's Snapshot under the given expvar
// name (visible at /debug/vars). Publishing twice under one name panics
// in expvar, so call once per process.
func (r *Registry) PublishExpvar(name string) {
	expvar.Publish(name, expvar.Func(func() any { return r.Snapshot() }))
}
