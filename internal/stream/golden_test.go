package stream

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/datagen"
	"repro/internal/faultinject"
	"repro/internal/kll"
	"repro/internal/moments"
	"repro/internal/obs"
	"repro/internal/sketch"
)

// goldenCfg is the base of the tumbling golden runs: KLL with a fixed
// seed, whose compaction coin flips make the serialized sketch depend on
// the exact insert sequence and on the exact number and order of
// Builder calls, and collected values, so a digest covers each window's
// membership as well as its summary.
func goldenCfg(workers, partitions int, delay bool) Config {
	cfg := Config{
		WindowSize:    time.Second,
		Rate:          5000,
		NumWindows:    4,
		Partitions:    partitions,
		Workers:       workers,
		NewValues:     func() datagen.Source { return datagen.NewPareto(1, 1, 71) },
		Builder:       func() sketch.Sketch { return kll.NewWithSeed(128, 73) },
		CollectValues: true,
	}
	if delay {
		cfg.NewDelay = func() DelayModel { return NewExponentialDelay(150*time.Millisecond, 79) }
	}
	return cfg
}

// digestRun folds every field of every window result, then the run's
// Stats, into one FNV-64a digest.
func digestRun(t *testing.T, results []WindowResult, st Stats) string {
	t.Helper()
	h := fnv.New64a()
	put := func(v int64) {
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	for _, r := range results {
		put(int64(r.Index))
		put(int64(r.Start))
		put(int64(r.End))
		put(r.Accepted)
		put(r.DroppedLate)
		put(int64(r.Degradations))
		put(int64(math.Float64bits(r.AccuracyBound)))
		put(int64(len(r.PaneCounts)))
		writeSketch(t, h, r.Sketch)
		put(int64(len(r.Values)))
		for _, v := range r.Values {
			put(int64(math.Float64bits(v)))
		}
	}
	put(st.Generated)
	put(st.Accepted)
	put(st.DroppedLate)
	put(st.RejectedInput)
	put(st.ShedBudget)
	return fmt.Sprintf("%016x", h.Sum64())
}

func writeSketch(t *testing.T, h hash.Hash64, sk sketch.Sketch) {
	t.Helper()
	blob, err := sk.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(len(blob)))
	h.Write(buf[:])
	h.Write(blob)
}

// TestTumblingGolden pins the tumbling engine's complete output — every
// WindowResult field, the sketch bytes and the run Stats — to digests
// recorded before tumbling windows became the one-pane case of the pane
// path. The configurations cover the serial and parallel paths, zero
// and exponential delay, allowed lateness, ingestion time, poisoned
// payloads, degrading and shedding memory budgets and a crash-recovered
// run. Runs that the engine's contracts make equal share a digest:
// serial ≡ parallel, Slide == WindowSize ≡ Slide 0, and resume ≡
// uninterrupted.
func TestTumblingGolden(t *testing.T) {
	type run struct {
		name string
		cfg  Config
		// recover runs the config through RunRecovering.
		recover bool
		// check asserts the config exercised what it is named for.
		check func(results []WindowResult, st Stats) bool
	}
	var runs []run
	for _, delay := range []bool{false, true} {
		for _, partitions := range []int{1, 4} {
			for _, workers := range []int{1, 4} {
				name := fmt.Sprintf("w%d-p%d-delay=%v", workers, partitions, delay)
				runs = append(runs, run{name: name, cfg: goldenCfg(workers, partitions, delay)})
			}
		}
	}
	slideWindow := goldenCfg(1, 4, true)
	slideWindow.Slide = slideWindow.WindowSize
	lateness := goldenCfg(1, 4, true)
	lateness.AllowedLateness = 100 * time.Millisecond
	latenessPar := goldenCfg(4, 4, true)
	latenessPar.AllowedLateness = 100 * time.Millisecond
	ingestion := goldenCfg(1, 4, true)
	ingestion.UseIngestionTime = true
	ingestionPar := goldenCfg(4, 4, true)
	ingestionPar.UseIngestionTime = true
	poison := goldenCfg(1, 4, true)
	poison.NewValues = func() datagen.Source {
		return &poisonSource{src: datagen.NewPareto(1, 1, 71), poison: map[int]float64{
			10: math.NaN(), 4999: math.Inf(1), 5000: math.Inf(-1), 12000: math.NaN()}}
	}
	degraded := func(results []WindowResult, _ Stats) bool {
		for _, r := range results {
			if r.Degradations > 0 {
				return true
			}
		}
		return false
	}
	// Four ~16 KiB KLL partition sketches per window against 24 KiB
	// serially, and 8 KiB per worker after the parallel path's 4-way
	// split: both budgets bind.
	budgetSerial := goldenCfg(1, 4, true)
	budgetSerial.Rate = 20000
	budgetSerial.Builder = func() sketch.Sketch { return kll.NewWithSeed(1024, 73) }
	budgetSerial.MemoryBudget = 24 << 10
	budgetPar := budgetSerial
	budgetPar.Workers = 4
	budgetPar.MemoryBudget = 32 << 10
	shed := goldenCfg(1, 2, true)
	shed.Builder = func() sketch.Sketch { return moments.New(10) }
	shed.MemoryBudget = 64
	recovering := func(workers, partitions int) Config {
		cfg := goldenCfg(workers, partitions, true)
		cfg.CheckpointStore = checkpoint.NewMemStore()
		worker := 0
		if workers > 1 {
			worker = 1
		}
		cfg.Faults = faultinject.New().WithPanic(worker, 2500)
		cfg.Metrics = obs.NewRegistry().Engine()
		return cfg
	}
	recovered := func(cfg Config) func([]WindowResult, Stats) bool {
		return func([]WindowResult, Stats) bool { return cfg.Metrics.RecoveredPanics.Load() > 0 }
	}
	recSerial, recPar := recovering(1, 4), recovering(4, 4)
	runs = append(runs,
		run{name: "slide=window", cfg: slideWindow},
		run{name: "lateness", cfg: lateness},
		run{name: "lateness-parallel", cfg: latenessPar},
		run{name: "ingestion", cfg: ingestion},
		run{name: "ingestion-parallel", cfg: ingestionPar},
		run{name: "poison", cfg: poison, check: func(_ []WindowResult, st Stats) bool { return st.RejectedInput == 4 }},
		run{name: "budget-serial", cfg: budgetSerial, check: degraded},
		run{name: "budget-parallel", cfg: budgetPar, check: degraded},
		run{name: "budget-shed", cfg: shed, check: func(_ []WindowResult, st Stats) bool { return st.ShedBudget > 0 }},
		run{name: "recovering", cfg: recSerial, recover: true, check: recovered(recSerial)},
		run{name: "recovering-parallel", cfg: recPar, recover: true, check: recovered(recPar)},
	)
	want := map[string]string{
		"w1-p1-delay=false":   "291429f4f184975c",
		"w4-p1-delay=false":   "291429f4f184975c",
		"w1-p4-delay=false":   "ad446e8fe021248a",
		"w4-p4-delay=false":   "ad446e8fe021248a",
		"w1-p1-delay=true":    "667f142c5958b791",
		"w4-p1-delay=true":    "667f142c5958b791",
		"w1-p4-delay=true":    "18855e7bb18d4bc1",
		"w4-p4-delay=true":    "18855e7bb18d4bc1",
		"slide=window":        "18855e7bb18d4bc1",
		"lateness":            "fa54a4e91def271e",
		"lateness-parallel":   "fa54a4e91def271e",
		"ingestion":           "5cf5d2dbfcccc61f",
		"ingestion-parallel":  "5cf5d2dbfcccc61f",
		"poison":              "4033a33f15a0420b",
		"budget-serial":       "cc39b940d3ee9b60",
		"budget-parallel":     "7226cea97f9d559b",
		"budget-shed":         "3ba0abb4529c6fdd",
		"recovering":          "18855e7bb18d4bc1",
		"recovering-parallel": "18855e7bb18d4bc1",
	}
	for _, r := range runs {
		var results []WindowResult
		var st Stats
		if r.recover {
			var err error
			results, st, err = RunRecovering(r.cfg)
			if err != nil {
				t.Fatalf("%s: %v", r.name, err)
			}
		} else {
			results, st = mustRunCollect(t, r.cfg)
		}
		checkShedIdentity(t, st)
		if len(results) != r.cfg.NumWindows {
			t.Fatalf("%s: %d windows, want %d", r.name, len(results), r.cfg.NumWindows)
		}
		if r.check != nil && !r.check(results, st) {
			t.Errorf("%s: run did not exercise its feature (stats %+v)", r.name, st)
		}
		if got := digestRun(t, results, st); got != want[r.name] {
			t.Errorf("%s: digest %s, want %s", r.name, got, want[r.name])
		}
	}
}
