package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/concurrent"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sketch"
)

// Span names: the coarse boundaries the traced run records. Per-event
// calls are never timed in place; a clock pair costs more than most of
// them.
const (
	spanWindow          = "window"           // emit to emit
	spanWindowQuantiles = "window.quantiles" // the emit callback's Quantiles call
	spanCheckpointPut   = "checkpoint.put"   // Store.Put of one snapshot
	spanReaderQuery     = "reader.query"     // scheduled time to answer
	spanReaderSnapshot  = "reader.snapshot"  // Shared.Snapshot
	spanReaderQuantiles = "reader.quantiles" // sketch.Quantiles on the snapshot
	spanHarnessRun      = "harness.run"      // one harness.RunAccuracy call
)

// span is one recorded interval; parent indexes the same goroutine's
// span list (-1 for none).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}

// tracer keeps one goroutine's spans in memory, plus the exact counts
// read from the obs registry after the rep.
type tracer struct {
	epoch  time.Time
	spans  []span
	counts map[string]float64
}

func newTracer(epoch time.Time) *tracer { return &tracer{epoch: epoch} }

// span records [start, end) and returns its index.
func (t *tracer) span(name string, start, end time.Time, parent int) int {
	t.spans = append(t.spans, span{Name: name, Start: start.Sub(t.epoch).Nanoseconds(),
		End: end.Sub(t.epoch).Nanoseconds(), Parent: parent})
	return len(t.spans) - 1
}

// durations returns the durations of every span with the given name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

// writeSpans writes spans as JSON to path.
func writeSpans(path string, spans []span) error {
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// readCounts copies the exact counts of one rep from the registry.
func (t *tracer) readCounts(reg *obs.Registry) {
	if reg == nil {
		return
	}
	e := reg.Engine()
	c := reg.Concurrent()
	snaps := e.SnapshotsTaken.Load()
	perSnap := 0.0
	if snaps > 0 {
		perSnap = float64(e.SnapshotBytes.Load()) / float64(snaps)
	}
	t.counts = map[string]float64{
		"stream.generated":              float64(e.Generated.Load()),
		"stream.late_dropped":           float64(e.DroppedLate.Load()),
		"stream.window_fires":           float64(e.WindowFires.Load()),
		"stream.pane_merges":            float64(e.PaneMerges.Load()),
		"stream.max_watermark_lag_ms":   float64(e.MaxWatermarkLagNS.Load()) / 1e6,
		"stream.max_batch_queue_depth":  float64(e.MaxBatchQueueDepth.Load()),
		"checkpoint.snapshots":          float64(snaps),
		"checkpoint.bytes_per_snapshot": perSnap,
		"budget.degradations":           float64(e.Degradations.Load()),
		"budget.bytes_peak":             float64(e.BudgetBytes.Load()),
		"concurrent.handoffs":           float64(c.Handoffs.Load()),
		"concurrent.cas_retries":        float64(c.CASRetries.Load()),
		"kll.compactions":               float64(reg.Sketch(core.AlgKLL).Compactions.Load()),
		"uddsketch.collapses":           float64(reg.Sketch(core.AlgUDD).Collapses.Load()),
		"moments.newton_iterations":     float64(reg.Sketch(core.AlgMoments).NewtonIterations.Load()),
	}
}

// timedStore wraps a checkpoint.Store and records a span per Put. The
// engine calls Put on its own goroutine, so it shares that tracer.
type timedStore struct {
	inner checkpoint.Store
	tr    *tracer
}

func (s *timedStore) Put(seq uint64, data []byte) error {
	start := time.Now()
	err := s.inner.Put(seq, data)
	s.tr.span(spanCheckpointPut, start, time.Now(), -1)
	return err
}

func (s *timedStore) Get(seq uint64) ([]byte, error) { return s.inner.Get(seq) }

func (s *timedStore) Seqs() ([]uint64, error) { return s.inner.Seqs() }

// reader is the live-query workload's open-loop client: it queries the
// shared sketch on a fixed schedule whether or not the engine keeps up,
// and times each query from when it was due.
type reader struct {
	shared concurrent.Shared
	every  time.Duration
	tr     *tracer // own span list; nil when untraced
	stop   chan struct{}
	done   chan struct{}

	lat    []time.Duration
	lagMax time.Duration // how late the schedule ran
	tl     tally
}

func newReader(shared concurrent.Shared, every time.Duration, tr *tracer) *reader {
	r := &reader{shared: shared, every: every, stop: make(chan struct{}), done: make(chan struct{})}
	if tr != nil {
		r.tr = newTracer(tr.epoch)
	}
	return r
}

// readerQuantiles are the quantiles every live query asks for.
var readerQuantiles = []float64{0.5, 0.9, 0.99}

// run issues query i at start + i·every until halt.
func (r *reader) run(start time.Time) {
	defer close(r.done)
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * r.every)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		select {
		case <-r.stop:
			return
		default:
		}
		began := time.Now()
		if lag := began.Sub(due); lag > r.lagMax {
			r.lagMax = lag
		}
		snap := r.shared.Snapshot()
		snapped := time.Now()
		if snap.Count() > 0 {
			ans, err := sketch.Quantiles(snap, readerQuantiles)
			if r.tl.check(err == nil, "live query: %v", err) {
				ok := checkAnswers(&r.tl, "live query", ans)
				if ok {
					r.tl.check(ans[0] >= 1 && ans[len(ans)-1] <= 1000, "live query answers %v outside the source's [1, 1000]", ans)
				}
			}
		} else {
			r.tl.check(true, "") // nothing handed off yet: an empty answer is correct
		}
		end := time.Now()
		r.lat = append(r.lat, end.Sub(due))
		if r.tr != nil {
			q := r.tr.span(spanReaderQuery, due, end, -1)
			r.tr.span(spanReaderSnapshot, began, snapped, q)
			r.tr.span(spanReaderQuantiles, snapped, end, q)
		}
	}
}

// halt stops the reader and waits for it to exit.
func (r *reader) halt() {
	close(r.stop)
	<-r.done
}

// heapSampler samples the live heap every few milliseconds and keeps
// the largest value. The live heap only changes when a GC cycle ends,
// so a fixed cadence sees every peak that lasts beyond one period.
type heapSampler struct {
	mu   sync.Mutex
	peak uint64
	stop chan struct{}
	done chan struct{}
}

const heapSampleEvery = 5 * time.Millisecond

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		t := time.NewTicker(heapSampleEvery)
		defer t.Stop()
		for {
			h.sample()
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

func (h *heapSampler) sample() {
	v := heapLive()
	h.mu.Lock()
	if v > h.peak {
		h.peak = v
	}
	h.mu.Unlock()
}

// halt stops the sampler, takes a last sample and returns the peak.
func (h *heapSampler) halt() uint64 {
	close(h.stop)
	<-h.done
	h.sample()
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.peak
}
