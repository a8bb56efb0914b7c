package stream

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/datagen"
	"repro/internal/ddsketch"
	"repro/internal/faultinject"
	"repro/internal/sketch"
)

// errSourceBoom is the panic value of the failing sources below.
var errSourceBoom = errors.New("source boom")

// countingValues counts Next calls and panics at draw failAt (never
// when failAt is negative).
type countingValues struct {
	src    datagen.Source
	calls  int64
	failAt int64
}

func (c *countingValues) Next() float64 {
	if c.calls == c.failAt {
		panic(errSourceBoom)
	}
	c.calls++
	return c.src.Next()
}

// countingDelay is countingValues for the delay model.
type countingDelay struct {
	d      DelayModel
	calls  int64
	failAt int64
}

func (c *countingDelay) Delay() time.Duration {
	if c.calls == c.failAt {
		panic(errSourceBoom)
	}
	c.calls++
	return c.d.Delay()
}

// sourceCfg is a small late-data run of 4,500 draws: about nine blocks,
// with a delay that keeps events in flight across block boundaries.
func sourceCfg(workers int) Config {
	return Config{
		WindowSize: 100 * time.Millisecond,
		Rate:       5000,
		NumWindows: 8,
		Partitions: 4,
		Workers:    workers,
		Builder:    func() sketch.Sketch { return ddsketch.New(0.01) },
	}
}

// TestSourcePanicForwarded pins panic forwarding from the source stage:
// a Values or Delay panic at draw k fails the run with a *PanicError
// carrying the panic value, and with exactly the Stats of inline
// drawing, which stops at draw k. The wanted Stats were recorded with
// the sources drawn inline on the engine goroutine. Draw 0 is the
// inline first draw; the others land at the start of the producer's
// first block, at a block boundary, and past the first two blocks.
func TestSourcePanicForwarded(t *testing.T) {
	want := map[int64]Stats{
		0:    {},
		1:    {Generated: 1},
		512:  {Generated: 512, Accepted: 356, DroppedLate: 2},
		1636: {Generated: 1636, Accepted: 1123, DroppedLate: 357},
	}
	for _, workers := range []int{1, 2} {
		for _, k := range []int64{0, 1, 512, 1636} {
			for _, failDelay := range []bool{false, true} {
				cfg := sourceCfg(workers)
				vals := &countingValues{src: datagen.NewUniform(1, 100, 5), failAt: -1}
				delay := &countingDelay{d: NewExponentialDelay(30*time.Millisecond, 6), failAt: -1}
				if failDelay {
					delay.failAt = k
				} else {
					vals.failAt = k
				}
				cfg.Values, cfg.Delay = vals, delay
				eng, err := NewEngine(cfg)
				if err != nil {
					t.Fatal(err)
				}
				st, err := eng.Run(func(WindowResult) {})
				var pe *PanicError
				if !errors.As(err, &pe) || pe.Value != errSourceBoom {
					t.Fatalf("w=%d k=%d delay=%v: got %v, want a *PanicError carrying the source's panic", workers, k, failDelay, err)
				}
				if st != want[k] {
					t.Errorf("w=%d k=%d delay=%v: stats %+v, want %+v", workers, k, failDelay, st, want[k])
				}
				if k > 0 && !strings.Contains(string(pe.Stack), "(*producer).fill") {
					t.Errorf("w=%d k=%d delay=%v: stack is not the producer's:\n%s", workers, k, failDelay, pe.Stack)
				}
			}
		}
	}
}

// TestSourceStageDrawCount pins the exact draw count: a clean run draws
// Values and Delay exactly as often as inline drawing does, one pair per
// generated event up to the grace period's end, and so does the run
// that completes a Resume or a RunRecovering. No instance ever draws
// past that count, not even one a crash stopped. The rate makes the
// run's end fall between two draws, so the count needs the ceiling.
func TestSourceStageDrawCount(t *testing.T) {
	cfg := sourceCfg(1)
	cfg.Rate = 3000
	cfg.NumWindows = 5
	const total = 1801 // ceil(600 ms / 333,333 ns)
	var vals []*countingValues
	var delays []*countingDelay
	cfg.NewValues = func() datagen.Source {
		v := &countingValues{src: datagen.NewUniform(1, 100, 5), failAt: -1}
		vals = append(vals, v)
		return v
	}
	cfg.NewDelay = func() DelayModel {
		d := &countingDelay{d: NewExponentialDelay(30*time.Millisecond, 6), failAt: -1}
		delays = append(delays, d)
		return d
	}
	check := func(label string) {
		t.Helper()
		last := len(vals) - 1
		if vals[last].calls != total || delays[last].calls != total {
			t.Errorf("%s: %d Next and %d Delay calls, want %d each", label, vals[last].calls, delays[last].calls, total)
		}
		for i := range vals {
			if vals[i].calls > total || delays[i].calls > total {
				t.Errorf("%s: source %d drew %d values and %d delays, past the run's %d", label, i, vals[i].calls, delays[i].calls, total)
			}
		}
		vals, delays = nil, nil
	}

	cfg.CheckpointStore = checkpoint.NewMemStore()
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(func(WindowResult) {}); err != nil {
		t.Fatal(err)
	}
	check("clean run")

	if _, err := Resume(cfg, func(WindowResult) {}); err != nil {
		t.Fatal(err)
	}
	check("resume")

	cfg.CheckpointStore = checkpoint.NewMemStore()
	cfg.Faults = faultinject.New().WithPanic(0, 700)
	if _, _, err := RunRecovering(cfg); err != nil {
		t.Fatal(err)
	}
	if len(vals) < 2 {
		t.Fatalf("recovering run used %d sources, want a crash and a resume", len(vals))
	}
	check("recovering run")
}

// TestResumeSourcePanicIsError pins that the fast-forward of a resumed
// run is under the run's panic recovery: a source that panics while
// being replayed to the checkpointed offset fails Resume and
// RunRecovering with a *PanicError instead of crashing the caller.
func TestResumeSourcePanicIsError(t *testing.T) {
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("source panic escaped: %v", r)
		}
	}()
	cfg := sourceCfg(1)
	instances := 0
	cfg.NewValues = func() datagen.Source {
		instances++
		failAt := int64(-1)
		if instances > 1 {
			failAt = 100 // every source after the first breaks early
		}
		return &countingValues{src: datagen.NewUniform(1, 100, 5), failAt: failAt}
	}
	cfg.NewDelay = func() DelayModel { return NewExponentialDelay(30*time.Millisecond, 6) }
	cfg.CheckpointStore = checkpoint.NewMemStore()
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(func(WindowResult) {}); err != nil {
		t.Fatal(err)
	}
	snap, _, _, err := checkpoint.LatestValid(cfg.CheckpointStore)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Drawn <= 100 {
		t.Fatalf("latest snapshot at draw %d, want one past the failing draw", snap.Drawn)
	}
	_, err = Resume(cfg, func(WindowResult) {})
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Value != errSourceBoom {
		t.Fatalf("Resume: got %v, want a *PanicError carrying the source's panic", err)
	}

	// The first source runs until the injected fault; every recovery
	// replays from a snapshot and hits the broken source.
	instances = 0
	cfg.CheckpointStore = checkpoint.NewMemStore()
	cfg.Faults = faultinject.New().WithPanic(0, 2000)
	_, _, err = RunRecovering(cfg)
	if !errors.As(err, &pe) || pe.Value != errSourceBoom {
		t.Fatalf("RunRecovering: got %v, want a *PanicError carrying the source's panic", err)
	}
}

// TestSourceStageGoroutines pins shutdown: the producer goroutine is gone
// when Run returns, after a clean run and after a run an injected
// serial-insert panic killed.
func TestSourceStageGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	settled := func(label string) {
		t.Helper()
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > base {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d goroutines, want %d", label, runtime.NumGoroutine(), base)
			}
			time.Sleep(time.Millisecond)
		}
	}
	cfg := sourceCfg(1)
	cfg.Values = datagen.NewUniform(1, 100, 5)
	cfg.Delay = NewExponentialDelay(30*time.Millisecond, 6)
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(func(WindowResult) {}); err != nil {
		t.Fatal(err)
	}
	settled("clean run")

	cfg.Faults = faultinject.New().WithPanic(0, 700)
	eng, err = NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = eng.Run(func(WindowResult) {})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("got %v, want the injected *PanicError", err)
	}
	settled("killed run")
}

// TestSourceStageAllocs pins that the source stage allocates per run,
// not per block: ten times the events cost no more allocations.
func TestSourceStageAllocs(t *testing.T) {
	allocs := func(rate int) float64 {
		cfg := Config{
			WindowSize: time.Second,
			Rate:       rate,
			NumWindows: 2,
			Values:     datagen.NewUniform(1, 2, 5),
			Builder:    func() sketch.Sketch { return ddsketch.New(0.01) },
		}
		eng, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(5, func() {
			if _, err := eng.Run(func(WindowResult) {}); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(5000), allocs(50000)
	if large > small {
		t.Errorf("a run of 150,000 events allocates %v times, one of 15,000 %v: allocations grow with the stream", large, small)
	}
}
