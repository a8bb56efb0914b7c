package stream

import (
	"math"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/ddsketch"
	"repro/internal/sketch"
)

// Window-type and Sec 2.5 option tests: sliding coverage, session
// windows, AllowedLateness and UseIngestionTime.

// TestSlidingAssigner pins sliding-window assignment mid-stream: with
// size 10s and slide 2s every event belongs to exactly 5 windows, each
// containing it, spanning the full size and starting on the slide
// lattice; near the stream start no window starts before the origin.
func TestSlidingAssigner(t *testing.T) {
	results, _ := mustRunCollect(t, Config{
		WindowSize:    10 * time.Second,
		Slide:         2 * time.Second,
		Rate:          1,
		NumWindows:    15,
		Values:        &rampSource{},
		Builder:       ddBuilder,
		CollectValues: true,
	})
	const at = 21 * time.Second
	var wins []WindowResult
	for _, r := range results {
		if slices.Contains(r.Values, at.Seconds()) {
			wins = append(wins, r)
		}
	}
	if len(wins) != 5 {
		t.Fatalf("%d windows, want 5", len(wins))
	}
	for _, w := range wins {
		if at < w.Start || at >= w.End {
			t.Errorf("window [%v,%v) does not contain the event", w.Start, w.End)
		}
		if w.End-w.Start != 10*time.Second {
			t.Errorf("window [%v,%v) has wrong size", w.Start, w.End)
		}
		if w.Start%(2*time.Second) != 0 {
			t.Errorf("window [%v,%v) not slide-aligned", w.Start, w.End)
		}
	}
	// Near stream start, early windows are clipped (no negative starts).
	for _, r := range results {
		if r.Start < 0 {
			t.Errorf("negative window start %v", r.Start)
		}
	}
}

func TestGenericSlidingCoverage(t *testing.T) {
	// With size=2s slide=1s every event (after warmup) lands in exactly
	// 2 windows; window event counts must be ≈ 2× the tumbling count.
	eng, err := NewEngine(Config{
		WindowSize: 2 * time.Second,
		Slide:      time.Second,
		Rate:       1000,
		NumWindows: 6,
		Values:     datagen.NewUniform(0, 1, 5),
		Builder:    ddBuilder,
	})
	if err != nil {
		t.Fatal(err)
	}
	var results []WindowResult
	if _, err := eng.Run(func(r WindowResult) { results = append(results, r) }); err != nil {
		t.Fatal(err)
	}
	if len(results) < 5 {
		t.Fatalf("%d windows", len(results))
	}
	// Interior full windows hold 2000 events (2 s × 1000/s).
	full := 0
	for _, r := range results {
		if r.Start >= time.Second && r.End <= 5*time.Second {
			if r.Accepted != 2000 {
				t.Errorf("window [%v,%v) holds %d events, want 2000", r.Start, r.End, r.Accepted)
			}
			full++
		}
	}
	if full == 0 {
		t.Error("no interior windows checked")
	}
	// Windows fire in end order.
	for i := 1; i < len(results); i++ {
		if results[i].End < results[i-1].End {
			t.Error("windows fired out of order")
		}
	}
}

func TestGenericSessionMerging(t *testing.T) {
	// Continuous events 100ms apart with a 2s gap: one big session.
	eng, err := NewEngine(Config{
		SessionGap: 2 * time.Second,
		WindowSize: time.Second,
		NumWindows: 3,
		Rate:       10,
		Values:     datagen.NewUniform(0, 1, 6),
		Builder:    ddBuilder,
	})
	if err != nil {
		t.Fatal(err)
	}
	var results []WindowResult
	if _, err := eng.Run(func(r WindowResult) { results = append(results, r) }); err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 {
		t.Fatalf("%d sessions, want 1 (continuous stream)", len(results))
	}
	r := results[0]
	if r.Accepted != 30 {
		t.Errorf("session holds %d events, want 30", r.Accepted)
	}
	if r.Start != 0 {
		t.Errorf("session start %v", r.Start)
	}
	// End = last event time + gap.
	if r.End != 2900*time.Millisecond+2*time.Second {
		t.Errorf("session end %v, want last event + gap", r.End)
	}
}

func TestGenericSessionSplit(t *testing.T) {
	// A gap smaller than the inter-event spacing: every event becomes
	// its own session.
	eng, err := NewEngine(Config{
		SessionGap: 50 * time.Millisecond,
		WindowSize: time.Second,
		NumWindows: 1,
		Rate:       10, // events every 100ms > gap
		Values:     datagen.NewUniform(0, 1, 7),
		Builder:    ddBuilder,
	})
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	if _, err := eng.Run(func(r WindowResult) {
		count++
		if r.Accepted != 1 {
			t.Errorf("session holds %d events, want 1", r.Accepted)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if count != 10 {
		t.Errorf("%d sessions, want 10", count)
	}
}

// mergeCounter counts sketch constructions and merges across goroutines.
type mergeCounter struct{ builds, merges atomic.Int64 }

// countingSketch wraps a DDSketch, counting the merges into it both
// globally and on the sketch itself.
type countingSketch struct {
	*ddsketch.Sketch
	c      *mergeCounter
	merges int64
}

func (s *countingSketch) Merge(o sketch.Sketch) error {
	s.c.merges.Add(1)
	s.merges++
	return s.Sketch.Merge(o.(*countingSketch).Sketch)
}

func (c *mergeCounter) builder() sketch.Sketch {
	c.builds.Add(1)
	return &countingSketch{Sketch: ddsketch.New(0.01), c: c}
}

// TestSessionMergesOnlyAtFire pins the cost of extending a session: an
// in-order continuous session grows in place, so every sketch merge of
// the run lands in the emitted sketch at the fire barrier (at most one
// per partition of the session's single sink key), and the builder runs
// at most Partitions times for that key plus once for the output.
func TestSessionMergesOnlyAtFire(t *testing.T) {
	const partitions = 4
	for _, workers := range []int{1, 2} {
		var c mergeCounter
		eng, err := NewEngine(Config{
			SessionGap: 5 * time.Millisecond,
			WindowSize: 100 * time.Millisecond,
			NumWindows: 2,
			Rate:       1000,
			Partitions: partitions,
			Workers:    workers,
			Values:     datagen.NewUniform(0, 1, 3),
			Builder:    c.builder,
		})
		if err != nil {
			t.Fatal(err)
		}
		var sessions []WindowResult
		var buildsAtFire, mergesAtFire int64
		st, err := eng.Run(func(r WindowResult) {
			sessions = append(sessions, r)
			buildsAtFire, mergesAtFire = c.builds.Load(), c.merges.Load()
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(sessions) != 1 || st.Accepted != 200 {
			t.Fatalf("workers=%d: %d sessions over %d events, want 1 over 200", workers, len(sessions), st.Accepted)
		}
		if own := sessions[0].Sketch.(*countingSketch).merges; mergesAtFire != own || own > partitions {
			t.Errorf("workers=%d: %d merges before the fire, %d of them into the emitted sketch; want all, at most %d",
				workers, mergesAtFire, own, partitions)
		}
		if got := c.merges.Load(); got != mergesAtFire {
			t.Errorf("workers=%d: %d merges after the fire", workers, got-mergesAtFire)
		}
		if buildsAtFire > partitions+1 {
			t.Errorf("workers=%d: builder ran %d times for one session key, want <= %d partitions + 1 output",
				workers, buildsAtFire, partitions)
		}
	}
}

// sessionMixCfg produces sessions of every shape: a gap between one and
// two event spacings chains on-time events, the exponential delay
// reorders them so proto-windows open separate sessions that later
// arrivals bridge (AllowedLateness keeps the older one open long enough
// to be bridged), and the delay tail drops events late, splitting the
// stream into many sessions.
func sessionMixCfg(workers int) Config {
	return Config{
		SessionGap:      1500 * time.Microsecond,
		AllowedLateness: 3 * time.Millisecond,
		WindowSize:      100 * time.Millisecond,
		NumWindows:      5,
		Rate:            1000,
		Partitions:      4,
		Workers:         workers,
		NewValues:       func() datagen.Source { return datagen.NewPareto(1, 1, 53) },
		NewDelay:        func() DelayModel { return NewExponentialDelay(2*time.Millisecond, 59) },
		Builder:         ddBuilder,
		CollectValues:   true,
		Metrics:         testMetrics.Engine(),
	}
}

// TestSessionParallelBitIdentical is serial ≡ parallel for sessions:
// with merges, late drops and four partitions, two workers produce
// bit-identical sessions and stats.
func TestSessionParallelBitIdentical(t *testing.T) {
	want, wantStats := mustRunCollect(t, sessionMixCfg(1))
	if wantStats.DroppedLate == 0 || len(want) < 10 {
		t.Fatalf("want many sessions and late drops, got %d sessions, stats %+v", len(want), wantStats)
	}
	multi := 0
	for _, r := range want {
		if r.Accepted > 1 {
			multi++
		}
	}
	if multi == 0 {
		t.Fatal("no multi-event session")
	}
	got, gotStats := mustRunCollect(t, sessionMixCfg(2))
	assertSameRun(t, "workers=2", got, gotStats, want, wantStats)
}

// TestLatenessBoundary pins the `end + lateness` boundary on every
// window type: with AllowedLateness 5 ms, an event arriving while the
// largest event time is below its window's end + 5 ms is admitted; one
// arriving just after an on-time event at exactly end + 5 ms is
// dropped, because that event fires the window — end + lateness is
// exclusive. Rate 1000 makes event i's generation time i ms and the
// ramp payload i, so membership is visible in the collected values.
func TestLatenessBoundary(t *testing.T) {
	for _, tc := range []struct {
		name          string
		mut           func(*Config)
		admit, drop   int           // event indices
		admitD, dropD time.Duration // their delays
	}{
		// Window [0,10): event 9 arrives at 14.5 ms (in), event 7 at
		// 15.5 ms, after event 15 fired the window.
		{"tumbling", func(*Config) {}, 9, 7, 5500 * time.Microsecond, 8500 * time.Microsecond},
		// First sliding window [0,5) seals pane [0,5) when event 10
		// arrives: event 4 at 9.5 ms is in, event 2 at 10.5 ms is out.
		{"paned", func(c *Config) { c.Slide = 5 * time.Millisecond; c.NumWindows = 4 },
			4, 2, 5500 * time.Microsecond, 8500 * time.Microsecond},
		// A 1 ms gap makes every event its own session [i, i+1): event
		// 9 at 14.5 ms opens [9,10) while the watermark is 9; event 7 at
		// 13.5 ms finds the watermark at 8, the end of [7,8).
		{"session", func(c *Config) { c.SessionGap = time.Millisecond },
			9, 7, 5500 * time.Microsecond, 6500 * time.Microsecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{
				WindowSize:      10 * time.Millisecond,
				NumWindows:      2,
				Rate:            1000,
				AllowedLateness: 5 * time.Millisecond,
				Values:          &rampSource{},
				Delay:           &scriptedDelay{delays: map[int]time.Duration{tc.admit: tc.admitD, tc.drop: tc.dropD}},
				Builder:         ddBuilder,
				CollectValues:   true,
			}
			tc.mut(&cfg)
			results, st := mustRunCollect(t, cfg)
			admitted := false
			for _, r := range results {
				admitted = admitted || slices.Contains(r.Values, float64(tc.admit))
			}
			if !admitted {
				t.Errorf("event %d (arrived before end + lateness) was not admitted", tc.admit)
			}
			for _, r := range results {
				if slices.Contains(r.Values, float64(tc.drop)) {
					t.Errorf("event %d (arrived at end + lateness) reached window [%v,%v)", tc.drop, r.Start, r.End)
				}
			}
			if st.Generated != 20 || st.DroppedLate != 1 || st.Accepted != 19 {
				t.Errorf("stats %+v, want Generated=20 Accepted=19 DroppedLate=1", st)
			}
			checkIdentity(t, st)
		})
	}
}

func TestAllowedLatenessReadmits(t *testing.T) {
	run := func(lateness time.Duration) int64 {
		eng, err := NewEngine(Config{
			WindowSize:      time.Second,
			NumWindows:      5,
			Rate:            5000,
			AllowedLateness: lateness,
			Values:          datagen.NewUniform(0, 1, 8),
			Delay:           NewExponentialDelay(60*time.Millisecond, 9),
			Builder:         ddBuilder,
		})
		if err != nil {
			t.Fatal(err)
		}
		st, err := eng.Run(func(WindowResult) {})
		if err != nil {
			t.Fatal(err)
		}
		return st.DroppedLate
	}
	strict := run(0)
	lenient := run(500 * time.Millisecond)
	if strict == 0 {
		t.Fatal("expected drops without lateness allowance")
	}
	if lenient >= strict {
		t.Errorf("allowed lateness should reduce drops: %d -> %d", strict, lenient)
	}
}

// TestGenericConfigValidation rejects invalid session-window
// configurations at construction.
func TestGenericConfigValidation(t *testing.T) {
	base := Config{
		SessionGap: time.Second,
		WindowSize: time.Second,
		NumWindows: 1,
		Rate:       10,
		Values:     datagen.NewUniform(0, 1, 1),
		Builder:    ddBuilder,
	}
	for _, mut := range []func(*Config){
		func(c *Config) { c.SessionGap = -time.Second },
		func(c *Config) { c.Slide = c.WindowSize / 2 },
		func(c *Config) { c.AllowedLateness = -time.Second },
		func(c *Config) { c.Rate = 0 },
		func(c *Config) { c.NumWindows = 0 },
		func(c *Config) { c.Values = nil },
		func(c *Config) { c.Builder = nil },
	} {
		bad := base
		mut(&bad)
		if _, err := NewEngine(bad); err == nil {
			t.Error("invalid config accepted")
		}
	}
}

// Ingestion-time windows never drop events: arrival order is watermark
// order, so lateness cannot occur (the Sec 2.5 trade-off).
func TestIngestionTimeNeverLate(t *testing.T) {
	eng, err := NewEngine(Config{
		WindowSize:       time.Second,
		NumWindows:       4,
		Rate:             2000,
		UseIngestionTime: true,
		Values:           datagen.NewUniform(0, 1, 11),
		Delay:            NewExponentialDelay(80*time.Millisecond, 12),
		Builder:          ddBuilder,
	})
	if err != nil {
		t.Fatal(err)
	}
	var accepted int64
	st, err := eng.Run(func(r WindowResult) { accepted += r.Accepted })
	if err != nil {
		t.Fatal(err)
	}
	if st.DroppedLate != 0 {
		t.Errorf("ingestion time dropped %d events", st.DroppedLate)
	}
	if accepted != st.Generated {
		t.Errorf("accepted %d of %d generated", accepted, st.Generated)
	}
}

// TestIngestionTimeIdentity pins where events generated inside the run
// but arriving after its end are counted under UseIngestionTime: the
// run end is read on the arrival clock, so they are grace-period events
// — outside Generated, like events generated after the end — and the
// accounting identity stays exact on every window type.
func TestIngestionTimeIdentity(t *testing.T) {
	const rate, mean, seed = 2000, 80 * time.Millisecond, 12
	runEnd := 4 * time.Second
	// Replay the delay sequence to count the straddlers.
	var inRun, straddlers int64
	delay := NewExponentialDelay(mean, seed)
	for gen := time.Duration(0); gen < runEnd; gen += time.Second / rate {
		if gen+delay.Delay() < runEnd {
			inRun++
		} else {
			straddlers++
		}
	}
	if straddlers == 0 {
		t.Fatal("no event straddles the run end (retune the test)")
	}
	for _, mut := range []func(*Config){
		func(*Config) {},
		func(c *Config) { c.Slide = 250 * time.Millisecond; c.NumWindows = 16 },
		func(c *Config) { c.SessionGap = 400 * time.Microsecond },
	} {
		cfg := Config{
			WindowSize:       time.Second,
			NumWindows:       4,
			Rate:             rate,
			UseIngestionTime: true,
			Values:           &poisonSource{src: datagen.NewUniform(0, 1, 11), poison: map[int]float64{5: math.Inf(-1), 7000: math.NaN()}},
			Delay:            NewExponentialDelay(mean, seed),
			Builder:          ddBuilder,
		}
		mut(&cfg)
		results, st := mustRunCollect(t, cfg)
		checkIdentity(t, st)
		if st.Generated != inRun || st.DroppedLate != 0 || st.RejectedInput != 2 {
			t.Errorf("stats %+v, want Generated=%d (%d straddlers excluded), DroppedLate=0, RejectedInput=2",
				st, inRun, straddlers)
		}
		for _, r := range results {
			if r.End > runEnd && cfg.SessionGap == 0 {
				t.Errorf("window [%v,%v) outside the run", r.Start, r.End)
			}
		}
	}
}

// A watermark lag ≥ the delay tail eliminates drops by firing late.
func TestWatermarkLagReducesDrops(t *testing.T) {
	run := func(lag time.Duration) int64 {
		eng, err := NewEngine(Config{
			WindowSize:      time.Second,
			NumWindows:      5,
			Rate:            5000,
			AllowedLateness: lag,
			Values:          datagen.NewUniform(0, 1, 13),
			Delay:           NewExponentialDelay(60*time.Millisecond, 14),
			Builder:         ddBuilder,
		})
		if err != nil {
			t.Fatal(err)
		}
		st, err := eng.Run(func(WindowResult) {})
		if err != nil {
			t.Fatal(err)
		}
		return st.DroppedLate
	}
	noLag := run(0)
	withLag := run(800 * time.Millisecond)
	if noLag == 0 {
		t.Fatal("expected drops without watermark lag")
	}
	if withLag >= noLag/2 {
		t.Errorf("watermark lag should cut drops sharply: %d -> %d", noLag, withLag)
	}
}
