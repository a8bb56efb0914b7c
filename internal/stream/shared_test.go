package stream

import (
	"math"
	"testing"
	"time"

	"repro/internal/concurrent"
	"repro/internal/datagen"
	"repro/internal/faultinject"
	"repro/internal/kll"
	"repro/internal/obs"
)

// sharedRunConfig is the common job for the shared-sketch tests: 5 s of
// 1000 ev/s over 4 partitions, zero delay so Accepted is exact.
func sharedRunConfig(workers int, shared concurrent.Shared) Config {
	return Config{
		WindowSize:   time.Second,
		Rate:         1000,
		NumWindows:   5,
		Partitions:   4,
		Workers:      workers,
		Values:       datagen.NewUniform(1, 100, 7),
		Builder:      ddBuilder,
		SharedSketch: shared,
	}
}

// TestSharedSketchSerialRun: on the serial path the engine goroutine
// feeds writer 0; after the run the shared sketch must hold exactly
// the accepted events, and its quantiles must agree with a windowed
// DDSketch merged over the whole run (both summarize the identical
// multiset, and DDSketch is order-insensitive).
func TestSharedSketchSerialRun(t *testing.T) {
	sh, err := concurrent.NewDDSketch(0.01, 1, 128)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(sharedRunConfig(1, sh))
	if err != nil {
		t.Fatal(err)
	}
	results, st, err := eng.RunCollect()
	if err != nil {
		t.Fatal(err)
	}
	if got := sh.Count(); got != uint64(st.Accepted) {
		t.Fatalf("shared count %d, accepted %d", got, st.Accepted)
	}
	merged := ddBuilder()
	for _, r := range results {
		if err := merged.Merge(r.Sketch); err != nil {
			t.Fatal(err)
		}
	}
	snap := sh.Snapshot()
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99} {
		got, err := snap.Quantile(q)
		if err != nil {
			t.Fatal(err)
		}
		want, err := merged.Quantile(q)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("quantile(%v): shared %v, windowed-merged %v", q, got, want)
		}
	}
}

// TestSharedSketchParallelRun: with Workers > 1 each worker feeds its
// own handle; after the run (workers flush at shutdown) the shared
// sketch again holds exactly the accepted events.
func TestSharedSketchParallelRun(t *testing.T) {
	sh := concurrent.NewKLL(kll.DefaultK, 4, 128)
	eng, err := NewEngine(sharedRunConfig(4, sh))
	if err != nil {
		t.Fatal(err)
	}
	_, st, err := eng.RunCollect()
	if err != nil {
		t.Fatal(err)
	}
	if got := sh.Count(); got != uint64(st.Accepted) {
		t.Fatalf("shared count %d, accepted %d", got, st.Accepted)
	}
	if med, err := sh.Snapshot().Quantile(0.5); err != nil {
		t.Fatal(err)
	} else if med < 1 || med > 100 {
		t.Errorf("median %v outside the data range [1, 100]", med)
	}
}

// TestSharedSketchRejectsNonFinite poisons every 10th payload with an
// alternating ±Inf or NaN: the engine rejects them before the shared
// writer (and the writer's own validation would catch any that slipped
// through), so after the run the shared sketch holds exactly the
// accepted finite events and its count proves no poison reached it.
func TestSharedSketchRejectsNonFinite(t *testing.T) {
	sh, err := concurrent.NewDDSketch(0.01, 1, 128)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sharedRunConfig(1, sh)
	clean := datagen.NewUniform(1, 100, 7)
	n := 0
	cfg.Values = datagen.SourceFunc(func() float64 {
		n++
		switch {
		case n%30 == 0:
			return math.NaN()
		case n%20 == 0:
			return math.Inf(-1)
		case n%10 == 0:
			return math.Inf(1)
		}
		return clean.Next()
	})
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, st, err := eng.RunCollect()
	if err != nil {
		t.Fatal(err)
	}
	if st.RejectedInput == 0 {
		t.Fatal("poisoned source produced no rejections")
	}
	if got := sh.Count(); got != uint64(st.Accepted) {
		t.Fatalf("shared count %d, accepted %d (non-finite payloads leaked)", got, st.Accepted)
	}
	if med, err := sh.Snapshot().Quantile(0.5); err != nil {
		t.Fatal(err)
	} else if math.IsNaN(med) || math.IsInf(med, 0) {
		t.Errorf("median %v: shared sketch was poisoned", med)
	}
}

// TestSharedSketchLiveQueries queries the shared sketch from the emit
// callback — mid-run, between windows — exercising the live-read path
// the layer exists for. Each snapshot must be within the relaxation
// bound of the events accepted so far.
func TestSharedSketchLiveQueries(t *testing.T) {
	sh := concurrent.NewKLL(kll.DefaultK, 1, 64)
	cfg := sharedRunConfig(1, sh)
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var acceptedSoFar int64
	snaps := 0
	_, err = eng.Run(func(r WindowResult) {
		acceptedSoFar += r.Accepted
		snap := sh.Snapshot()
		c := snap.Count()
		if c > uint64(acceptedSoFar) {
			t.Errorf("window %d: snapshot count %d exceeds accepted %d", r.Index, c, acceptedSoFar)
		}
		if c+sh.MaxRelaxation() < uint64(acceptedSoFar) {
			t.Errorf("window %d: snapshot count %d trails accepted %d beyond the bound %d",
				r.Index, c, acceptedSoFar, sh.MaxRelaxation())
		}
		if c > 0 {
			if _, err := snap.Quantile(0.5); err != nil {
				t.Errorf("window %d: live quantile: %v", r.Index, err)
			}
		}
		snaps++
	})
	if err != nil {
		t.Fatal(err)
	}
	if snaps != cfg.NumWindows {
		t.Fatalf("took %d snapshots, want %d", snaps, cfg.NumWindows)
	}
}

// TestSharedSketchWriterValidation: a shared sketch with fewer writer
// handles than (clamped) workers must be rejected at construction.
func TestSharedSketchWriterValidation(t *testing.T) {
	sh := concurrent.NewKLL(kll.DefaultK, 2, 64)
	if _, err := NewEngine(sharedRunConfig(4, sh)); err == nil {
		t.Fatal("engine accepted SharedSketch with 2 writers for 4 workers")
	}
	// Clamping can rescue it: 8 workers over 4 partitions clamp to 4,
	// so 4 handles suffice.
	sh4 := concurrent.NewKLL(kll.DefaultK, 4, 64)
	if _, err := NewEngine(sharedRunConfig(8, sh4)); err != nil {
		t.Fatalf("engine rejected SharedSketch after clamp: %v", err)
	}
}

// TestWorkersClampedCounter pins the satellite behavior: a Workers >
// Partitions construction increments Metrics.WorkersClamped (once per
// construction), while an unclamped one does not.
func TestWorkersClampedCounter(t *testing.T) {
	met := &obs.EngineMetrics{}
	cfg := sharedRunConfig(8, nil)
	cfg.Metrics = met
	if _, err := NewEngine(cfg); err != nil {
		t.Fatal(err)
	}
	if got := met.WorkersClamped.Load(); got != 1 {
		t.Fatalf("WorkersClamped = %d after one clamped construction, want 1", got)
	}
	cfg.Workers = 4
	if _, err := NewEngine(cfg); err != nil {
		t.Fatal(err)
	}
	if got := met.WorkersClamped.Load(); got != 1 {
		t.Fatalf("WorkersClamped = %d after an unclamped construction, want 1", got)
	}
}

// TestSharedSketchDuplicateBatch: a duplicated batch is dropped by the
// worker's sequence-number dedupe before it reaches the shared-sketch
// writer, so the shared sketch still counts every accepted event
// exactly once.
func TestSharedSketchDuplicateBatch(t *testing.T) {
	for _, workers := range []int{2, 4} {
		sh, err := concurrent.NewDDSketch(0.01, workers, 128)
		if err != nil {
			t.Fatal(err)
		}
		cfg := sharedRunConfig(workers, sh)
		cfg.Faults = faultinject.New().WithDuplicateBatch(3)
		_, st := mustRunCollect(t, cfg)
		if cfg.Faults.DuplicateBatch(3) {
			t.Fatalf("workers=%d: the duplicate batch was never delivered", workers)
		}
		if got := sh.Count(); got != uint64(st.Accepted) {
			t.Errorf("workers=%d: shared count %d, accepted %d", workers, got, st.Accepted)
		}
	}
}
