package stream

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/kll"
	"repro/internal/moments"
	"repro/internal/obs"
	"repro/internal/sketch"
)

// checkShedIdentity asserts the extended accounting identity every
// budgeted run must satisfy: Generated = Accepted + DroppedLate +
// RejectedInput + ShedBudget.
func checkShedIdentity(t *testing.T, st Stats) {
	t.Helper()
	if st.Generated != st.Accepted+st.DroppedLate+st.RejectedInput+st.ShedBudget {
		t.Fatalf("accounting identity broken: %+v", st)
	}
}

// TestBudgetedRunStaysUnderBudget is the governor's core property: with
// a budget above the degradation floor, the post-enforcement footprint
// (the BudgetBytes high-water mark) never exceeds the budget, events
// are never shed, and the degraded windows carry a widened accuracy
// bound.
func TestBudgetedRunStaysUnderBudget(t *testing.T) {
	freshBound := kll.NewWithSeed(1024, 1).AccuracyBound()
	// The window's 4 partition sketches grow to ~60 KiB together, so
	// both budgets bind well above the k=8 degradation floor.
	for _, budget := range []int{24 << 10, 48 << 10} {
		met := obs.NewRegistry().Engine()
		eng, err := NewEngine(Config{
			WindowSize:   time.Second,
			Rate:         20000,
			NumWindows:   4,
			Partitions:   4,
			Values:       datagen.NewUniform(1, 1000, 21),
			Builder:      func() sketch.Sketch { return kll.NewWithSeed(1024, 31) },
			Metrics:      met,
			MemoryBudget: budget,
		})
		if err != nil {
			t.Fatal(err)
		}
		results, st, err := eng.RunCollect()
		if err != nil {
			t.Fatal(err)
		}
		checkShedIdentity(t, st)
		if st.ShedBudget != 0 {
			t.Errorf("budget %d: shed %d events despite degradable sketches", budget, st.ShedBudget)
		}
		if got := met.BudgetBytes.Load(); got > int64(budget) {
			t.Errorf("budget %d: post-enforcement high-water %d exceeds the budget", budget, got)
		}
		if met.Degradations.Load() == 0 {
			t.Errorf("budget %d: governor never degraded (budget not binding — retune the test)", budget)
		}
		degradedWindows := 0
		for _, r := range results {
			if r.Degradations > 0 {
				degradedWindows++
				if r.AccuracyBound <= freshBound {
					t.Errorf("budget %d window %d: %d degradations but bound %v not above fresh %v",
						budget, r.Index, r.Degradations, r.AccuracyBound, freshBound)
				}
			}
		}
		if degradedWindows == 0 {
			t.Errorf("budget %d: no window reported its degradations", budget)
		}
	}
}

// TestBudgetShedsWhenNotDegradable: moments sketches refuse every
// degradation step, so an impossible budget must climb the whole ladder
// to rung 3 — counted, non-panicking shedding — while the run still
// completes and every window still fires.
func TestBudgetShedsWhenNotDegradable(t *testing.T) {
	met := obs.NewRegistry().Engine()
	eng, err := NewEngine(Config{
		WindowSize:   time.Second,
		Rate:         5000,
		NumWindows:   3,
		Partitions:   2,
		Values:       datagen.NewUniform(1, 1000, 5),
		Builder:      func() sketch.Sketch { return moments.New(10) },
		Metrics:      met,
		MemoryBudget: 64, // below a single sketch's footprint
	})
	if err != nil {
		t.Fatal(err)
	}
	results, st, err := eng.RunCollect()
	if err != nil {
		t.Fatal(err)
	}
	checkShedIdentity(t, st)
	if st.ShedBudget == 0 {
		t.Fatal("impossible budget shed nothing")
	}
	if got := met.BudgetShed.Load(); got != st.ShedBudget {
		t.Errorf("BudgetShed counter %d != Stats.ShedBudget %d", got, st.ShedBudget)
	}
	if len(results) != 3 {
		t.Fatalf("%d windows fired, want 3", len(results))
	}
	// The first enforcement pass runs after budget.BaseInterval events,
	// so the run accepts some prefix before shedding begins.
	if st.Accepted == 0 {
		t.Error("shedding started before the first enforcement pass")
	}
}

// TestBudgetUnbudgetedRunsUnchanged pins the disabled path: a run with
// MemoryBudget 0 is bit-identical to the same run before the governor
// existed — no shed events, no degradations, identical sketches.
func TestBudgetUnbudgetedRunsUnchanged(t *testing.T) {
	mk := func(budget int) ([]WindowResult, Stats) {
		eng, err := NewEngine(Config{
			WindowSize:   time.Second,
			Rate:         10000,
			NumWindows:   3,
			Partitions:   4,
			Values:       datagen.NewUniform(1, 1000, 9),
			Builder:      func() sketch.Sketch { return kll.NewWithSeed(256, 13) },
			MemoryBudget: budget,
		})
		if err != nil {
			t.Fatal(err)
		}
		results, st, err := eng.RunCollect()
		if err != nil {
			t.Fatal(err)
		}
		return results, st
	}
	base, baseStats := mk(0)
	// A budget far above the workload's footprint must also change
	// nothing: the governor tracks but never degrades.
	slack, slackStats := mk(1 << 30)
	if baseStats != slackStats {
		t.Fatalf("slack budget changed stats: %+v vs %+v", slackStats, baseStats)
	}
	for i := range base {
		a, _ := base[i].Sketch.MarshalBinary()
		b, _ := slack[i].Sketch.MarshalBinary()
		if !bytes.Equal(a, b) {
			t.Fatalf("window %d: slack-budget sketch diverged from unbudgeted", i)
		}
		if base[i].Degradations != 0 || slack[i].Degradations != 0 {
			t.Fatalf("window %d: degradations on a non-binding budget", i)
		}
	}
}

// TestBudgetPaneCoarsening exercises rung 2: in pane mode with sketches
// that refuse degradation, a binding budget coarsens sealed panes
// (exact early merges) before resorting to shedding. Window totals are
// preserved: every pane's accepted count survives the fold, just
// attributed one slot later.
func TestBudgetPaneCoarsening(t *testing.T) {
	mk := func(budget int, met *obs.EngineMetrics) ([]WindowResult, Stats) {
		eng, err := NewEngine(Config{
			// Pane size gcd(5s, 2s) = 1s: each fired window leaves 3
			// sealed panes resident, so the oldest two are fold
			// candidates while the budget is binding.
			WindowSize:   5 * time.Second,
			Slide:        2 * time.Second,
			Rate:         4000,
			NumWindows:   6,
			Partitions:   2,
			Values:       datagen.NewUniform(1, 1000, 17),
			Builder:      func() sketch.Sketch { return moments.New(10) },
			Metrics:      met,
			MemoryBudget: budget,
		})
		if err != nil {
			t.Fatal(err)
		}
		results, st, err := eng.RunCollect()
		if err != nil {
			t.Fatal(err)
		}
		return results, st
	}
	base, _ := mk(0, nil)
	met := obs.NewRegistry().Engine()
	// Enough for the open panes plus a coarsened sealed population but
	// not the full one, so rung 2 must fire; moments are small, so the
	// total was tuned against their ~120-byte footprint.
	got, st := mk(750, met)
	checkShedIdentity(t, st)
	if met.BudgetEvictions.Load() == 0 {
		t.Fatal("binding pane-mode budget never coarsened a pane")
	}
	if len(got) != len(base) {
		t.Fatalf("%d windows fired, want %d", len(got), len(base))
	}
	for i, r := range got {
		var paneSum int64
		for _, c := range r.PaneCounts {
			paneSum += int64(c)
		}
		if paneSum != r.Accepted {
			t.Errorf("window %d: pane counts sum to %d, accepted %d", i, paneSum, r.Accepted)
		}
		if st.ShedBudget == 0 && r.Accepted != base[i].Accepted {
			t.Errorf("window %d: coarsening changed accepted count %d -> %d",
				i, base[i].Accepted, r.Accepted)
		}
	}
}

// TestBudgetParallelDeterministic: a budgeted parallel run is a pure
// function of the configuration — re-running it reproduces the same
// windows bit-for-bit (the per-worker budget split and batch-cadence
// enforcement are deterministic for a fixed worker count).
func TestBudgetParallelDeterministic(t *testing.T) {
	run := func() ([]WindowResult, Stats) {
		eng, err := NewEngine(Config{
			WindowSize: time.Second,
			Rate:       20000,
			NumWindows: 3,
			Partitions: 4,
			Workers:    4,
			Values:     datagen.NewUniform(1, 1000, 41),
			Builder:    func() sketch.Sketch { return kll.NewWithSeed(1024, 43) },
			// 8 KiB per worker after the 4-way split: each worker's
			// single ~16 KiB partition sketch must degrade.
			MemoryBudget: 32 << 10,
		})
		if err != nil {
			t.Fatal(err)
		}
		results, st, err := eng.RunCollect()
		if err != nil {
			t.Fatal(err)
		}
		return results, st
	}
	a, aStats := run()
	b, bStats := run()
	if aStats != bStats {
		t.Fatalf("stats diverged across identical runs: %+v vs %+v", aStats, bStats)
	}
	checkShedIdentity(t, aStats)
	sawDegrade := false
	for i := range a {
		if a[i].Degradations != b[i].Degradations {
			t.Fatalf("window %d: degradation count diverged: %d vs %d", i, a[i].Degradations, b[i].Degradations)
		}
		if a[i].Degradations > 0 {
			sawDegrade = true
		}
		ab, _ := a[i].Sketch.MarshalBinary()
		bb, _ := b[i].Sketch.MarshalBinary()
		if !bytes.Equal(ab, bb) {
			t.Fatalf("window %d: budgeted parallel run is not deterministic", i)
		}
	}
	if !sawDegrade {
		t.Error("parallel budget never bound (retune the test)")
	}
}

// TestBudgetGenericEngine wires the ladder through the sliding and
// session window types: a binding budget degrades their sketches in
// place, and an impossible one (non-degradable moments) sheds with the
// extended identity intact.
func TestBudgetGenericEngine(t *testing.T) {
	for _, mut := range []func(*Config){
		func(c *Config) { c.Slide = time.Second; c.NumWindows = 5 },
		func(c *Config) { c.SessionGap = time.Millisecond; c.NumWindows = 1 },
	} {
		met := obs.NewRegistry().Engine()
		cfg := Config{
			WindowSize:   2 * time.Second,
			Rate:         10000,
			Values:       datagen.NewUniform(1, 1000, 23),
			Builder:      func() sketch.Sketch { return kll.NewWithSeed(1024, 29) },
			Metrics:      met,
			MemoryBudget: 16 << 10,
		}
		mut(&cfg)
		eng, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var fired int
		st, err := eng.Run(func(WindowResult) { fired++ })
		if err != nil {
			t.Fatal(err)
		}
		checkShedIdentity(t, st)
		if fired == 0 {
			t.Fatal("no windows fired")
		}
		if met.Degradations.Load() == 0 {
			t.Error("governor never degraded (budget not binding — retune the test)")
		}
		if got := met.BudgetBytes.Load(); got > 16<<10 {
			t.Errorf("post-enforcement high-water %d exceeds the budget", got)
		}
	}

	met := obs.NewRegistry().Engine()
	eng, err := NewEngine(Config{
		SessionGap:   time.Millisecond,
		WindowSize:   time.Second,
		NumWindows:   3,
		Rate:         5000,
		Values:       datagen.NewUniform(1, 1000, 25),
		Builder:      func() sketch.Sketch { return moments.New(10) },
		Metrics:      met,
		MemoryBudget: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := eng.Run(func(WindowResult) {})
	if err != nil {
		t.Fatal(err)
	}
	checkShedIdentity(t, st)
	if st.ShedBudget == 0 {
		t.Error("impossible budget shed nothing")
	}
	if got := met.BudgetShed.Load(); got != st.ShedBudget {
		t.Errorf("BudgetShed counter %d != Stats.ShedBudget %d", got, st.ShedBudget)
	}
}
