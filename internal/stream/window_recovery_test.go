package stream

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/datagen"
	"repro/internal/faultinject"
	"repro/internal/kll"
	"repro/internal/obs"
	"repro/internal/sketch"
)

// brokenMergeSketch wraps a sketch and fails every Merge — the fault a
// mismatched or corrupted partial produces in production.
type brokenMergeSketch struct {
	sketch.Sketch
}

func (b *brokenMergeSketch) Merge(sketch.Sketch) error {
	return errors.New("deliberate merge failure")
}

// TestSessionMergeErrorPropagates is the regression test for the
// session-merge failure path: a sketch Merge error while assembling a
// session window must surface as the run's error — not a panic that
// kills a harness driving many configurations.
func TestSessionMergeErrorPropagates(t *testing.T) {
	eng, err := NewEngine(Config{
		SessionGap: 2 * time.Second,
		WindowSize: time.Second,
		NumWindows: 1,
		Rate:       100,
		Values:     datagen.NewUniform(1, 2, 9),
		Builder: func() sketch.Sketch {
			return &brokenMergeSketch{Sketch: kll.NewWithSeed(64, 1)}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("session merge failure escaped as a panic: %v", r)
		}
	}()
	_, err = eng.Run(func(WindowResult) {})
	if err == nil {
		t.Fatal("merge failure did not surface as a run error")
	}
	if !strings.Contains(err.Error(), "session merge") {
		t.Errorf("error %q does not identify the session merge", err)
	}
	if !strings.Contains(err.Error(), "deliberate merge failure") {
		t.Errorf("error %q does not wrap the sketch's merge error", err)
	}
}

// span keys windows by their event-time extent.
type span struct{ start, end time.Duration }

// genericRecoveryCfg drives sliding windows (every event lands in two
// windows) with late drops, so the checkpoint covers overlapping open
// windows.
func genericRecoveryCfg() Config {
	return Config{
		WindowSize:    400 * time.Millisecond,
		Slide:         200 * time.Millisecond,
		NumWindows:    24,
		Rate:          2000,
		NewValues:     func() datagen.Source { return datagen.NewPareto(1, 1, 17) },
		NewDelay:      func() DelayModel { return NewExponentialDelay(80*time.Millisecond, 19) },
		Builder:       func() sketch.Sketch { return kll.NewWithSeed(128, 23) },
		CollectValues: true,
		Metrics:       testMetrics.Engine(),
	}
}

// collectGeneric runs cfg, collecting results keyed by window span so a
// re-emission after recovery overwrites its (bit-identical) original.
func collectGeneric(t *testing.T, cfg Config, into map[span]WindowResult) (Stats, error) {
	t.Helper()
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng.Run(func(r WindowResult) { into[span{r.Start, r.End}] = r })
}

// TestGenericCrashRecoveryDeterminism is the fault-tolerance contract
// on sliding windows: crash mid-run, resume from the newest snapshot,
// and the union of pre-crash and post-resume emissions must be
// bit-identical to an uninterrupted run.
func TestGenericCrashRecoveryDeterminism(t *testing.T) {
	baseline := map[span]WindowResult{}
	baseStats, err := collectGeneric(t, genericRecoveryCfg(), baseline)
	if err != nil {
		t.Fatal(err)
	}
	if baseStats.DroppedLate == 0 {
		t.Fatal("want late drops so recovery is tested under late-accounting pressure")
	}

	cfg := genericRecoveryCfg()
	cfg.CheckpointStore = checkpoint.NewMemStore()
	cfg.Faults = faultinject.New().WithPanic(0, 6000)

	got := map[span]WindowResult{}
	_, err = collectGeneric(t, cfg, got)
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("injected fault surfaced as %v, want *PanicError", err)
	}
	stats, err := Resume(cfg, func(r WindowResult) { got[span{r.Start, r.End}] = r })
	if err != nil {
		t.Fatal(err)
	}

	if stats != baseStats {
		t.Errorf("recovered stats %+v, want %+v", stats, baseStats)
	}
	if len(got) != len(baseline) {
		t.Fatalf("recovered %d windows, want %d", len(got), len(baseline))
	}
	for win, want := range baseline {
		g, ok := got[win]
		if !ok {
			t.Errorf("window %v missing after recovery", win)
			continue
		}
		if g.Accepted != want.Accepted || len(g.Values) != len(want.Values) {
			t.Errorf("window %v: accepted=%d values=%d, want accepted=%d values=%d",
				win, g.Accepted, len(g.Values), want.Accepted, len(want.Values))
		}
		if !bytes.Equal(marshal(t, g.Sketch), marshal(t, want.Sketch)) {
			t.Errorf("window %v: sketch differs from uninterrupted run", win)
		}
	}
	if got := cfg.Metrics.Restores.Load(); got == 0 {
		t.Error("resume did not record a restore")
	}
}

// TestGenericSessionCheckpoint crashes and resumes a session-window run:
// session state (variable-span windows) must round-trip through the
// snapshot.
func TestGenericSessionCheckpoint(t *testing.T) {
	// Gap below the 5 ms generation interval, so sessions split and fire
	// throughout the run (snapshots exist before the crash), while the
	// delay model reorders arrivals and drops the stragglers late.
	cfg := Config{
		SessionGap: 4 * time.Millisecond,
		WindowSize: time.Second,
		NumWindows: 5,
		Rate:       200,
		NewValues:  func() datagen.Source { return datagen.NewUniform(1, 100, 31) },
		NewDelay:   func() DelayModel { return NewExponentialDelay(20*time.Millisecond, 37) },
		Builder:    func() sketch.Sketch { return kll.NewWithSeed(64, 41) },
	}
	baseline := map[span]WindowResult{}
	baseStats, err := collectGeneric(t, cfg, baseline)
	if err != nil {
		t.Fatal(err)
	}

	chaos := cfg
	chaos.CheckpointStore = checkpoint.NewMemStore()
	chaos.Faults = faultinject.New().WithPanic(0, 500)
	got := map[span]WindowResult{}
	_, err = collectGeneric(t, chaos, got)
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("injected fault surfaced as %v, want *PanicError", err)
	}
	stats, err := Resume(chaos, func(r WindowResult) { got[span{r.Start, r.End}] = r })
	if err != nil {
		t.Fatal(err)
	}
	if stats != baseStats {
		t.Errorf("recovered stats %+v, want %+v", stats, baseStats)
	}
	if len(got) != len(baseline) {
		t.Fatalf("recovered %d session windows, want %d", len(got), len(baseline))
	}
	for win, want := range baseline {
		g, ok := got[win]
		if !ok {
			t.Errorf("session %v missing after recovery", win)
			continue
		}
		if !bytes.Equal(marshal(t, g.Sketch), marshal(t, want.Sketch)) {
			t.Errorf("session %v: sketch differs from uninterrupted run", win)
		}
	}
}

// TestSessionCrashRecoveryParallel crashes a two-worker session run
// whose sessions merge and span several sink keys, and recovers it with
// RunRecovering: every session, its values and the stats must match
// the uninterrupted serial run bit for bit.
func TestSessionCrashRecoveryParallel(t *testing.T) {
	want, wantStats := mustRunCollect(t, sessionMixCfg(1))
	cfg := sessionMixCfg(2)
	cfg.CheckpointStore = checkpoint.NewMemStore()
	cfg.CheckpointEvery = 7
	cfg.Faults = faultinject.New().WithPanic(1, 150)
	cfg.Metrics = obs.NewRegistry().Engine()
	got, gotStats, err := RunRecovering(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Metrics.RecoveredPanics.Load() == 0 {
		t.Fatal("the injected fault never fired")
	}
	assertSameRun(t, "recovered", got, gotStats, want, wantStats)
}

// TestSessionRejectsTumblingSnapshot is TestTumblingRejectsPaneSnapshot
// for sessions: a tumbling snapshot's windows carry no session span, so
// resuming it with SessionGap set must fail as corrupt.
func TestSessionRejectsTumblingSnapshot(t *testing.T) {
	cfg := recoveryCfg(1, 4)
	cfg.CheckpointStore = checkpoint.NewMemStore()
	mustRunCollect(t, cfg)

	cfg.SessionGap = time.Millisecond
	_, err := Resume(cfg, func(WindowResult) {})
	if !errors.Is(err, checkpoint.ErrCorrupt) {
		t.Fatalf("got %v, want ErrCorrupt", err)
	}
}
