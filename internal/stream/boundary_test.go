package stream

import (
	"math"
	"os"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/kll"
	"repro/internal/obs"
)

// testMetrics is live for the whole stream test package: every engine
// run and every KLL sketch in these tests records into it, so the
// determinism and race guarantees (TestParallelBitIdentical,
// TestParallelManyWindows under -race) are proven to hold with metrics
// ENABLED, not just on the nil fast path.
var testMetrics *obs.Registry

func TestMain(m *testing.M) {
	testMetrics = obs.NewRegistry()
	kll.SetMetrics(testMetrics.Sketch("kll"))
	os.Exit(m.Run())
}

// rampSource emits 0, 1, 2, ... — the value identifies the event's
// generation index, so window membership is directly observable.
type rampSource struct{ i float64 }

func (r *rampSource) Next() float64 { v := r.i; r.i++; return v }

// scriptedDelay returns a fixed delay per generation index (zero when
// unlisted), making arrival order fully deterministic in tests.
type scriptedDelay struct {
	i      int
	delays map[int]time.Duration
}

func (s *scriptedDelay) Delay() time.Duration {
	d := s.delays[s.i]
	s.i++
	return d
}

// poisonSource wraps a source, replacing listed generation indices with
// a poisoned payload (NaN or ±Inf).
type poisonSource struct {
	src    datagen.Source
	i      int
	poison map[int]float64
}

func (p *poisonSource) Next() float64 {
	v := p.src.Next()
	if pv, ok := p.poison[p.i]; ok {
		v = pv
	}
	p.i++
	return v
}

// checkIdentity asserts the Stats accounting identity the engine
// guarantees on every path.
func checkIdentity(t *testing.T, st Stats) {
	t.Helper()
	if st.Generated != st.Accepted+st.DroppedLate+st.RejectedInput {
		t.Errorf("stats identity violated: Generated=%d != Accepted=%d + DroppedLate=%d + RejectedInput=%d",
			st.Generated, st.Accepted, st.DroppedLate, st.RejectedInput)
	}
}

// TestWindowBoundarySemantics pins the [start, end) window contract on
// the serial and parallel paths: an event with GenTime exactly equal to
// a window's end belongs to the NEXT window, and the window fires
// exactly when the watermark reaches its end. Rate 1000 → 1 ms between
// events, windows of 10 ms, so event index 10 falls precisely on the
// first boundary; the ramp payload makes membership visible.
func TestWindowBoundarySemantics(t *testing.T) {
	for _, tc := range []struct{ partitions, workers int }{
		{1, 1}, // serial store
		{2, 2}, // parallel workerPool
	} {
		eng, err := NewEngine(Config{
			WindowSize: 10 * time.Millisecond,
			Rate:       1000,
			NumWindows: 2,
			Partitions: tc.partitions,
			Workers:    tc.workers,
			Values:     &rampSource{},
			// Index 5 (GenTime 5 ms) arrives at 10.5 ms — after the
			// watermark hits 10 ms and fires window 0 — so it is late.
			Delay:         &scriptedDelay{delays: map[int]time.Duration{5: 5500 * time.Microsecond}},
			Builder:       ddBuilder,
			CollectValues: true,
			Metrics:       testMetrics.Engine(),
		})
		if err != nil {
			t.Fatal(err)
		}
		results, st, err := eng.RunCollect()
		if err != nil {
			t.Fatal(err)
		}
		if len(results) != 2 {
			t.Fatalf("partitions=%d workers=%d: got %d windows, want 2", tc.partitions, tc.workers, len(results))
		}
		w0, w1 := results[0], results[1]
		if w0.Start != 0 || w0.End != 10*time.Millisecond || w1.Start != 10*time.Millisecond || w1.End != 20*time.Millisecond {
			t.Fatalf("window spans wrong: [%v,%v) and [%v,%v)", w0.Start, w0.End, w1.Start, w1.End)
		}
		// Window 0 holds indices 0..9 minus the late index 5.
		wantW0 := []float64{0, 1, 2, 3, 4, 6, 7, 8, 9}
		if len(w0.Values) != len(wantW0) {
			t.Fatalf("window 0 values %v, want %v", w0.Values, wantW0)
		}
		for i, v := range wantW0 {
			if w0.Values[i] != v {
				t.Fatalf("window 0 values %v, want %v", w0.Values, wantW0)
			}
		}
		// Index 10 (GenTime == 10 ms == window 0's end) must open window
		// 1, never close out window 0: [start, end).
		for _, v := range w1.Values {
			if v < 10 || v >= 20 {
				t.Errorf("window 1 contains value %v outside [10,20)", v)
			}
		}
		if w1.Accepted != 10 {
			t.Errorf("window 1 accepted %d, want 10 (indices 10..19)", w1.Accepted)
		}
		if w0.DroppedLate != 1 {
			t.Errorf("window 0 DroppedLate %d, want 1", w0.DroppedLate)
		}
		if st.Generated != 20 || st.Accepted != 19 || st.DroppedLate != 1 || st.RejectedInput != 0 {
			t.Errorf("stats %+v, want Generated=20 Accepted=19 DroppedLate=1 RejectedInput=0", st)
		}
		checkIdentity(t, st)
	}
}

// TestGenericWindowBoundarySemantics pins the same [start, end)
// contract with AllowedLateness: a late event arriving while the
// largest event time is below end+lateness is re-admitted, one arriving
// at or after that horizon is dropped — so `end+lateness` is itself
// exclusive (TestLatenessBoundary repeats this on every window type).
func TestGenericWindowBoundarySemantics(t *testing.T) {
	eng, err := NewEngine(Config{
		WindowSize:      10 * time.Millisecond,
		Rate:            1000,
		NumWindows:      2,
		AllowedLateness: 5 * time.Millisecond,
		Values:          &rampSource{},
		Delay: &scriptedDelay{delays: map[int]time.Duration{
			// Index 9 arrives at 14.5 ms: watermark is 14 ms < 15 ms, so
			// window [0,10) is still open and re-admits it.
			9: 5500 * time.Microsecond,
			// Index 7 arrives at 15.5 ms: index 15 (on time, GenTime
			// 15 ms) has already pushed the watermark to exactly
			// end+lateness = 15 ms, firing the window, so it is dropped.
			7: 8500 * time.Microsecond,
		}},
		Builder:       ddBuilder,
		CollectValues: true,
		Metrics:       testMetrics.Engine(),
	})
	if err != nil {
		t.Fatal(err)
	}
	var results []WindowResult
	st, err := eng.Run(func(r WindowResult) { results = append(results, r) })
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("got %d windows, want 2", len(results))
	}
	w0, w1 := results[0], results[1]
	if w0.Start != 0 || w0.End != 10*time.Millisecond {
		t.Fatalf("first window [%v,%v), want [0,10ms)", w0.Start, w0.End)
	}
	// Window [0,10): indices 0..9 minus dropped index 7; the re-admitted
	// index 9 lands last (it arrived after indices 10..14 were processed).
	wantW0 := []float64{0, 1, 2, 3, 4, 5, 6, 8, 9}
	if len(w0.Values) != len(wantW0) {
		t.Fatalf("window 0 values %v, want %v", w0.Values, wantW0)
	}
	for i, v := range wantW0 {
		if w0.Values[i] != v {
			t.Fatalf("window 0 values %v, want %v", w0.Values, wantW0)
		}
	}
	// Index 10 (GenTime == 10 ms) belongs to [10,20).
	for _, v := range w1.Values {
		if v < 10 || v >= 20 {
			t.Errorf("window [10,20) contains value %v", v)
		}
	}
	if st.Generated != 20 || st.Accepted != 19 || st.DroppedLate != 1 || st.RejectedInput != 0 {
		t.Errorf("stats %+v, want Generated=20 Accepted=19 DroppedLate=1 RejectedInput=0", st)
	}
	checkIdentity(t, st)
}

// TestRejectedInput feeds a poisoned source (NaN, ±Inf payloads) through
// the serial engine: the poison must be counted in RejectedInput, reach
// no sketch and no collected values, and leave the accounting identity
// exact.
func TestRejectedInput(t *testing.T) {
	poison := map[int]float64{
		3:  math.NaN(),
		11: math.Inf(1),
		17: math.Inf(-1),
	}
	eng, err := NewEngine(Config{
		WindowSize:    10 * time.Millisecond,
		Rate:          1000,
		NumWindows:    2,
		Values:        &poisonSource{src: &rampSource{}, poison: poison},
		Builder:       ddBuilder,
		CollectValues: true,
		Metrics:       testMetrics.Engine(),
	})
	if err != nil {
		t.Fatal(err)
	}
	results, st, err := eng.RunCollect()
	if err != nil {
		t.Fatal(err)
	}
	if st.RejectedInput != 3 {
		t.Errorf("RejectedInput %d, want 3", st.RejectedInput)
	}
	if st.Generated != 20 || st.Accepted != 17 || st.DroppedLate != 0 {
		t.Errorf("stats %+v, want Generated=20 Accepted=17 DroppedLate=0", st)
	}
	checkIdentity(t, st)
	for _, r := range results {
		if uint64(len(r.Values)) != r.Sketch.Count() {
			t.Errorf("window %d: %d values vs sketch count %d", r.Index, len(r.Values), r.Sketch.Count())
		}
		for _, v := range r.Values {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("window %d: poisoned value %v reached the window", r.Index, v)
			}
		}
	}
}

// TestGenericRejectedInput is TestRejectedInput on sliding and session
// windows.
func TestGenericRejectedInput(t *testing.T) {
	for _, mut := range []func(*Config){
		func(c *Config) { c.Slide = 5 * time.Millisecond; c.NumWindows = 4 },
		func(c *Config) { c.SessionGap = 5 * time.Millisecond },
	} {
		poison := map[int]float64{2: math.NaN(), 12: math.Inf(1)}
		cfg := Config{
			WindowSize:    10 * time.Millisecond,
			Rate:          1000,
			NumWindows:    2,
			Values:        &poisonSource{src: &rampSource{}, poison: poison},
			Builder:       ddBuilder,
			CollectValues: true,
			Metrics:       testMetrics.Engine(),
		}
		mut(&cfg)
		eng, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		st, err := eng.Run(func(r WindowResult) {
			for _, v := range r.Values {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("poisoned value %v reached window [%v,%v)", v, r.Start, r.End)
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if st.RejectedInput != 2 {
			t.Errorf("RejectedInput %d, want 2", st.RejectedInput)
		}
		if st.Generated != 20 || st.Accepted != 18 || st.DroppedLate != 0 {
			t.Errorf("stats %+v, want Generated=20 Accepted=18 DroppedLate=0", st)
		}
		checkIdentity(t, st)
	}
}

// TestParallelDrainLosesNothing is the no-event-left-behind regression
// test: under late drops AND poisoned inputs, every generated event must
// be accounted for exactly once at every worker count, and the whole
// Stats struct must match the serial reference bit for bit. Run under
// -race by scripts/verify.sh.
func TestParallelDrainLosesNothing(t *testing.T) {
	poison := map[int]float64{97: math.NaN(), 501: math.Inf(1), 1303: math.Inf(-1), 2999: math.NaN()}
	run := func(workers, partitions int) Stats {
		eng, err := NewEngine(Config{
			WindowSize: 100 * time.Millisecond,
			Rate:       10000,
			NumWindows: 4,
			Partitions: partitions,
			Workers:    workers,
			Values:     &poisonSource{src: datagen.NewPareto(1, 1, 77), poison: poison},
			Delay:      NewExponentialDelay(15*time.Millisecond, 79),
			Builder:    ddBuilder,
			Metrics:    testMetrics.Engine(),
		})
		if err != nil {
			t.Fatal(err)
		}
		_, st, err := eng.RunCollect()
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	for _, partitions := range []int{4, 5} {
		serial := run(1, partitions)
		if serial.DroppedLate == 0 {
			t.Fatal("want late drops so the drain is tested under pressure")
		}
		if serial.RejectedInput != 4 {
			t.Fatalf("serial RejectedInput %d, want 4", serial.RejectedInput)
		}
		checkIdentity(t, serial)
		for _, workers := range []int{2, 4, 8} {
			st := run(workers, partitions)
			checkIdentity(t, st)
			if st != serial {
				t.Errorf("partitions=%d workers=%d: stats %+v differ from serial %+v", partitions, workers, st, serial)
			}
		}
	}
}

// TestDroppedLateContract enforces the WindowResult.DroppedLate
// contract: streaming Run callbacks always observe zero (late events
// surface after their window was emitted), RunCollect patches the
// per-window counts afterwards, and those patched counts sum exactly to
// Stats.DroppedLate.
func TestDroppedLateContract(t *testing.T) {
	// Source and delay model are stateful; build a fresh config per run
	// so both runs see identical streams.
	newCfg := func() Config {
		return Config{
			WindowSize: 100 * time.Millisecond,
			Rate:       5000,
			NumWindows: 5,
			Values:     datagen.NewUniform(1, 2, 31),
			Delay:      NewExponentialDelay(20*time.Millisecond, 37),
			Builder:    ddBuilder,
			Metrics:    testMetrics.Engine(),
		}
	}
	eng, err := NewEngine(newCfg())
	if err != nil {
		t.Fatal(err)
	}
	stStream, err := eng.Run(func(r WindowResult) {
		if r.DroppedLate != 0 {
			t.Errorf("streaming Run callback saw DroppedLate=%d on window %d; contract says 0", r.DroppedLate, r.Index)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if stStream.DroppedLate == 0 {
		t.Fatal("want late drops for the contract to be meaningful")
	}
	checkIdentity(t, stStream)

	eng2, err := NewEngine(newCfg())
	if err != nil {
		t.Fatal(err)
	}
	results, st, err := eng2.RunCollect()
	if err != nil {
		t.Fatal(err)
	}
	if st != stStream {
		t.Fatalf("RunCollect stats %+v differ from Run stats %+v on identical config", st, stStream)
	}
	var sum int64
	for _, r := range results {
		sum += r.DroppedLate
	}
	if sum != st.DroppedLate {
		t.Errorf("per-window DroppedLate sums to %d, Stats.DroppedLate is %d; must be exact", sum, st.DroppedLate)
	}
	checkIdentity(t, st)
}

// TestEngineMetricsMatchStats proves the obs counters are not a second
// bookkeeping that can drift: after a run with drops and rejections, a
// fresh EngineMetrics must agree exactly with the returned Stats.
func TestEngineMetricsMatchStats(t *testing.T) {
	reg := obs.NewRegistry()
	eng, err := NewEngine(Config{
		WindowSize: 100 * time.Millisecond,
		Rate:       5000,
		NumWindows: 3,
		Partitions: 2,
		Workers:    2,
		Values:     &poisonSource{src: datagen.NewUniform(1, 2, 51), poison: map[int]float64{10: math.NaN()}},
		Delay:      NewExponentialDelay(20*time.Millisecond, 53),
		Builder:    ddBuilder,
		Metrics:    reg.Engine(),
	})
	if err != nil {
		t.Fatal(err)
	}
	_, st, err := eng.RunCollect()
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	for key, want := range map[string]int64{
		"engine.generated":      st.Generated,
		"engine.inserted":       st.Accepted,
		"engine.dropped_late":   st.DroppedLate,
		"engine.rejected_input": st.RejectedInput,
		"engine.window_fires":   3,
	} {
		if got := snap[key]; got != want {
			t.Errorf("%s = %d, want %d (stats %+v)", key, got, want, st)
		}
	}
	checkIdentity(t, st)
}
