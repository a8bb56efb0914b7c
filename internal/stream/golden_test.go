package stream

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"slices"
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
	var runs []goldenRun
	for _, delay := range []bool{false, true} {
		for _, partitions := range []int{1, 4} {
			for _, workers := range []int{1, 4} {
				name := fmt.Sprintf("w%d-p%d-delay=%v", workers, partitions, delay)
				runs = append(runs, goldenRun{name: name, cfg: goldenCfg(workers, partitions, delay)})
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
	recSerial, recPar := withPanic(goldenCfg(1, 4, true), 2500), withPanic(goldenCfg(4, 4, true), 2500)
	runs = append(runs,
		goldenRun{name: "slide=window", cfg: slideWindow},
		goldenRun{name: "lateness", cfg: lateness},
		goldenRun{name: "lateness-parallel", cfg: latenessPar},
		goldenRun{name: "ingestion", cfg: ingestion},
		goldenRun{name: "ingestion-parallel", cfg: ingestionPar},
		goldenRun{name: "poison", cfg: poison, check: func(_ []WindowResult, st Stats) bool { return st.RejectedInput == 4 }},
		goldenRun{name: "budget-serial", cfg: budgetSerial, check: degraded},
		goldenRun{name: "budget-parallel", cfg: budgetPar, check: degraded},
		goldenRun{name: "budget-shed", cfg: shed, check: func(_ []WindowResult, st Stats) bool { return st.ShedBudget > 0 }},
		goldenRun{name: "recovering", cfg: recSerial, recover: true, check: recovered(recSerial)},
		goldenRun{name: "recovering-parallel", cfg: recPar, recover: true, check: recovered(recPar)},
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
	checkGoldens(t, runs, want)
}

// goldenRun is one configuration of a golden test.
type goldenRun struct {
	name string
	cfg  Config
	// recover runs the config through RunRecovering.
	recover bool
	// check asserts the config exercised what it is named for.
	check func(results []WindowResult, st Stats) bool
}

// checkGoldens runs every configuration and compares its digestRun
// digest with want[name].
func checkGoldens(t *testing.T, runs []goldenRun, want map[string]string) {
	t.Helper()
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
		if r.cfg.SessionGap == 0 && len(results) != r.cfg.NumWindows {
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

// degraded reports whether any window carries a budget degradation.
func degraded(results []WindowResult, _ Stats) bool {
	for _, r := range results {
		if r.Degradations > 0 {
			return true
		}
	}
	return false
}

// withPanic arms cfg for RunRecovering: a checkpoint store, fresh
// metrics, and one injected panic at insert number event of worker 1
// (worker 0, the engine goroutine, on the serial path).
func withPanic(cfg Config, event int64) Config {
	cfg.CheckpointStore = checkpoint.NewMemStore()
	worker := 0
	if cfg.Workers > 1 {
		worker = 1
	}
	cfg.Faults = faultinject.New().WithPanic(worker, event)
	cfg.Metrics = obs.NewRegistry().Engine()
	return cfg
}

// recovered reports whether cfg's run recovered from a panic.
func recovered(cfg Config) func([]WindowResult, Stats) bool {
	return func([]WindowResult, Stats) bool { return cfg.Metrics.RecoveredPanics.Load() > 0 }
}

// slidingGoldenCfg is goldenCfg over sliding windows: Slide = W/4 over
// four partitions with exponential delay, eight windows, so the run
// covers the clamped ramp-up windows and four full ones.
func slidingGoldenCfg(workers int) Config {
	cfg := goldenCfg(workers, 4, true)
	cfg.Slide = cfg.WindowSize / 4
	cfg.NumWindows = 8
	return cfg
}

// TestSlidingGolden pins the sliding engine's complete output the way
// TestTumblingGolden pins the tumbling one: serial and parallel runs,
// time decay, a serial budget that climbs to rung 2 (coarsening), one
// that sheds, a parallel budget, crash-recovered runs and duplicate
// batch delivery. Runs the engine's contracts make equal share a
// digest: serial ≡ parallel, resume ≡ uninterrupted, deduplicated ≡
// clean.
func TestSlidingGolden(t *testing.T) {
	var runs []goldenRun
	for _, workers := range []int{1, 4} {
		runs = append(runs, goldenRun{name: fmt.Sprintf("w%d", workers), cfg: slidingGoldenCfg(workers)})
	}
	decayed := func(results []WindowResult, _ Stats) bool {
		for _, r := range results {
			if r.Sketch.Count() < uint64(r.Accepted) {
				return true
			}
		}
		return false
	}
	for _, workers := range []int{1, 4} {
		cfg := slidingGoldenCfg(workers)
		cfg.DecayLambda = 0.5
		runs = append(runs, goldenRun{name: fmt.Sprintf("decay-w%d", workers), cfg: cfg, check: decayed})
	}
	// KLL k=128 floors out under 1,900 bytes for four partitions and
	// the resident sealed panes, so the ladder climbs past rung 1 and
	// coarsens panes without shedding.
	coarsen := slidingGoldenCfg(1)
	coarsen.Rate = 20000
	coarsen.MemoryBudget = 1900
	coarsen.Metrics = obs.NewRegistry().Engine()
	shed := slidingGoldenCfg(1)
	shed.Builder = func() sketch.Sketch { return moments.New(10) }
	shed.MemoryBudget = 64
	budgetPar := slidingGoldenCfg(4)
	budgetPar.Rate = 20000
	budgetPar.Builder = func() sketch.Sketch { return kll.NewWithSeed(1024, 73) }
	budgetPar.MemoryBudget = 32 << 10
	recSerial, recPar := withPanic(slidingGoldenCfg(1), 1000), withPanic(slidingGoldenCfg(4), 1000)
	dup := slidingGoldenCfg(4)
	dup.Faults = faultinject.New().WithDuplicateBatch(5)
	runs = append(runs,
		goldenRun{name: "budget-coarsen", cfg: coarsen, check: func(results []WindowResult, st Stats) bool {
			return coarsen.Metrics.BudgetEvictions.Load() > 0 && degraded(results, st)
		}},
		goldenRun{name: "budget-shed", cfg: shed, check: func(_ []WindowResult, st Stats) bool { return st.ShedBudget > 0 }},
		goldenRun{name: "budget-parallel", cfg: budgetPar, check: degraded},
		goldenRun{name: "recovering", cfg: recSerial, recover: true, check: recovered(recSerial)},
		goldenRun{name: "recovering-parallel", cfg: recPar, recover: true, check: recovered(recPar)},
		// DuplicateBatch reports false once the plan's one duplicate
		// has been delivered.
		goldenRun{name: "duplicate-batch", cfg: dup, check: func([]WindowResult, Stats) bool { return !dup.Faults.DuplicateBatch(5) }},
	)
	want := map[string]string{
		"w1":                  "98678a0cb886f66b",
		"w4":                  "98678a0cb886f66b",
		"decay-w1":            "89846740f33044b6",
		"decay-w4":            "89846740f33044b6",
		"budget-coarsen":      "3bb50afdebfbad49",
		"budget-shed":         "439c62b518b0d593",
		"budget-parallel":     "ca9fde7b71aa6781",
		"recovering":          "98678a0cb886f66b",
		"recovering-parallel": "98678a0cb886f66b",
		"duplicate-batch":     "98678a0cb886f66b",
	}
	checkGoldens(t, runs, want)
}

// sessionGoldenCfg is goldenCfg over session windows: a 500 µs gap
// (2.5 event spacings) with 1 ms mean exponential delay and 2 ms of
// allowed lateness splits the 20,000 events into about a hundred
// sessions of up to ~1,000 events, a few of them dropped late.
func sessionGoldenCfg(workers int) Config {
	cfg := goldenCfg(workers, 4, true)
	cfg.SessionGap = 500 * time.Microsecond
	cfg.AllowedLateness = 2 * time.Millisecond
	cfg.NewDelay = func() DelayModel { return NewExponentialDelay(time.Millisecond, 79) }
	return cfg
}

// TestSessionGolden pins the session engine's complete output: serial
// and parallel runs (one digest), a binding budget on both paths, and a
// crash-recovered run (the unbudgeted digest).
func TestSessionGolden(t *testing.T) {
	sessions := func(results []WindowResult, _ Stats) bool { return len(results) >= 2 }
	var runs []goldenRun
	for _, workers := range []int{1, 4} {
		runs = append(runs, goldenRun{name: fmt.Sprintf("w%d", workers), cfg: sessionGoldenCfg(workers), check: sessions})
	}
	for _, workers := range []int{1, 4} {
		cfg := sessionGoldenCfg(workers)
		cfg.MemoryBudget = 1536
		runs = append(runs, goldenRun{name: fmt.Sprintf("budget-w%d", workers), cfg: cfg, check: degraded})
	}
	rec := withPanic(sessionGoldenCfg(1), 2500)
	runs = append(runs, goldenRun{name: "recovering", cfg: rec, recover: true, check: recovered(rec)})
	want := map[string]string{
		"w1":         "885761be8b40e72c",
		"w4":         "885761be8b40e72c",
		"budget-w1":  "e8df152b49cd4430",
		"budget-w4":  "df0e952de2d7e980",
		"recovering": "885761be8b40e72c",
	}
	checkGoldens(t, runs, want)
}

// TestCallbackOwnsValues pins the WindowResult.Values contract: the
// receiver owns the slice, so a callback that scrambles it in place —
// as the accuracy harness sorts it — changes nothing the engine emits
// afterwards. A tumbling window hands over its pane's own slice and a
// sliding one a fresh concatenation of several panes; both runs must
// digest exactly as the same run with an untouched callback.
func TestCallbackOwnsValues(t *testing.T) {
	run := func(cfg Config, scramble bool) string {
		eng, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var results []WindowResult
		st, err := eng.Run(func(r WindowResult) {
			kept := r
			kept.Values = slices.Clone(r.Values)
			results = append(results, kept)
			if scramble {
				slices.Reverse(r.Values)
				for i := range r.Values {
					r.Values[i] = -r.Values[i] - 1
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return digestRun(t, results, st)
	}
	for name, cfg := range map[string]Config{
		"tumbling":         goldenCfg(1, 4, true),
		"sliding-parallel": slidingGoldenCfg(4),
	} {
		if got, want := run(cfg, true), run(cfg, false); got != want {
			t.Errorf("%s: a scrambling callback changed the run's digest: %s, untouched %s", name, got, want)
		}
	}
}
