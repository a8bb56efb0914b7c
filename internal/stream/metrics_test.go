package stream

import (
	"errors"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/datagen"
	"repro/internal/faultinject"
	"repro/internal/moments"
	"repro/internal/obs"
	"repro/internal/sketch"
)

// probeSource wraps a source and records the engine's Generated counter
// at draw at: the draw after the run's first generated event, made only
// once that event has been generated (the first draw is inline, the
// source stage starts after it).
type probeSource struct {
	src  datagen.Source
	met  *obs.EngineMetrics
	at   int64
	n    int64
	seen atomic.Int64 // Generated at draw at, plus one (0: not reached)
}

func (p *probeSource) Next() float64 {
	if p.n == p.at {
		p.seen.Store(p.met.Generated.Load() + 1)
	}
	p.n++
	return p.src.Next()
}

// metricsCase is one row of TestEngineMetricsMatchStats.
type metricsCase struct {
	name string
	cfg  Config
	// resume runs cfg to completion with checkpoints, then resumes a
	// fresh run from a mid-run snapshot: its counters cover only the
	// resumed part.
	resume bool
	// fail expects the run to stop with a *PanicError.
	fail bool
}

func metricsCases() []metricsCase {
	poisoned := func(seed uint64) datagen.Source {
		return &poisonSource{src: datagen.NewUniform(1, 2, seed), poison: map[int]float64{10: math.NaN(), 777: math.Inf(1)}}
	}
	tumbling := func(workers int) Config {
		return Config{
			WindowSize: 100 * time.Millisecond,
			Rate:       5000,
			NumWindows: 3,
			Partitions: 2,
			Workers:    workers,
			Values:     poisoned(51),
			Delay:      NewExponentialDelay(20*time.Millisecond, 53),
			Builder:    ddBuilder,
		}
	}
	failing := func(workers int) Config {
		cfg := recoveryCfg(workers, 4)
		cfg.CollectValues = false
		cfg.Faults = faultinject.New().WithPanic(workers-1, 3_000)
		return cfg
	}
	return []metricsCase{
		{name: "tumbling-serial", cfg: tumbling(1)},
		{name: "tumbling-workers2", cfg: tumbling(2)},
		// Zero delay: a window fires on the first event of the next, so
		// at each callback nearly every accepted event belongs to a fired
		// window, and a counter that trailed the barrier would show.
		{name: "tumbling-nodelay", cfg: Config{
			WindowSize: 100 * time.Millisecond,
			Rate:       20000,
			NumWindows: 4,
			Partitions: 3,
			Values:     datagen.NewUniform(1, 2, 61),
			Builder:    ddBuilder,
		}},
		{name: "sliding-decay-workers2", cfg: Config{
			WindowSize:  400 * time.Millisecond,
			Slide:       50 * time.Millisecond,
			DecayLambda: 1.25,
			Rate:        10000,
			NumWindows:  8,
			Partitions:  4,
			Workers:     2,
			Values:      poisoned(63),
			Delay:       NewExponentialDelay(30*time.Millisecond, 65),
			Builder:     ddBuilder,
		}},
		// A gap below the source interval makes every event its own
		// session; the delay makes some of them late.
		{name: "sessions", cfg: Config{
			SessionGap: 400 * time.Microsecond,
			WindowSize: 100 * time.Millisecond,
			NumWindows: 3,
			Rate:       2000,
			Partitions: 2,
			Values:     poisoned(67),
			Delay:      NewExponentialDelay(2*time.Millisecond, 69),
			Builder:    ddBuilder,
		}},
		{name: "budget-sheds", cfg: Config{
			WindowSize:   time.Second,
			Rate:         5000,
			NumWindows:   3,
			Partitions:   2,
			Values:       datagen.NewUniform(1, 1000, 5),
			Builder:      func() sketch.Sketch { return moments.New(10) },
			MemoryBudget: 64, // below a single sketch's footprint
		}},
		{name: "resumed", cfg: recoveryCfg(1, 4), resume: true},
		{name: "resumed-workers2", cfg: recoveryCfg(2, 4), resume: true},
		{name: "fails-serial", cfg: failing(1), fail: true},
		{name: "fails-workers2", cfg: failing(2), fail: true},
	}
}

// TestEngineMetricsMatchStats proves the obs counters are not a second
// bookkeeping that can drift: at the end of every run shape — serial
// and parallel, tumbling, decayed sliding, sessions, a shedding budget,
// a resumed run and a failed one — a fresh EngineMetrics agrees exactly
// with the Stats the run returned (for a resumed run, with the part of
// them it added to the snapshot's). It also pins when the counters are
// published: Generated is non-zero as soon as the first event has been
// generated, and at every window callback Inserted covers every event
// of the windows fired so far.
func TestEngineMetricsMatchStats(t *testing.T) {
	for _, tc := range metricsCases() {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			var base Stats // the snapshot's counters, for a resumed run
			var skip int64 // draws the resumed run replays before its first event
			var snap *checkpoint.Snapshot
			if tc.resume {
				snap = midRunSnapshot(t, cfg)
				base = Stats{
					Generated:     snap.Generated,
					Accepted:      snap.Accepted,
					DroppedLate:   snap.DroppedLate,
					RejectedInput: snap.RejectedInput,
					ShedBudget:    snap.ShedBudget,
				}
				skip = snap.Drawn
			}
			met := obs.NewRegistry().Engine()
			cfg.Metrics = met
			probe := &probeSource{met: met, at: skip + 1}
			if cfg.NewValues != nil {
				newValues := cfg.NewValues
				cfg.NewValues = func() datagen.Source {
					probe.src = newValues()
					return probe
				}
			} else {
				probe.src = cfg.Values
				cfg.Values = probe
			}

			var fires int64
			var covered int64 // accepted events the fired windows hold
			emit := func(r WindowResult) {
				fires++
				if r.PaneCounts != nil {
					covered = r.Accepted // sliding windows overlap
				} else {
					covered += r.Accepted
				}
				if got := base.Accepted + met.Inserted.Load(); got < covered {
					t.Errorf("window %d callback: inserted %d (with the snapshot's), fired windows hold %d", r.Index, got, covered)
				}
			}
			var st Stats
			var err error
			if tc.resume {
				data, encErr := checkpoint.EncodeSnapshot(snap)
				if encErr != nil {
					t.Fatal(encErr)
				}
				store := checkpoint.NewMemStore()
				if err := store.Put(snap.Seq, data); err != nil {
					t.Fatal(err)
				}
				cfg.CheckpointStore = store
				st, err = Resume(cfg, emit)
			} else {
				var eng *Engine
				if eng, err = NewEngine(cfg); err != nil {
					t.Fatal(err)
				}
				st, err = eng.Run(emit)
			}
			var pe *PanicError
			switch {
			case tc.fail && !errors.As(err, &pe):
				t.Fatalf("got %v, want a *PanicError", err)
			case !tc.fail && err != nil:
				t.Fatal(err)
			}

			if seen := probe.seen.Load(); seen <= 1 {
				t.Errorf("Generated read %d once the first event was generated, want > 0", seen-1)
			}
			for _, c := range []struct {
				name      string
				got, want int64
			}{
				{"generated", met.Generated.Load(), st.Generated - base.Generated},
				{"inserted", met.Inserted.Load(), st.Accepted - base.Accepted},
				{"dropped_late", met.DroppedLate.Load(), st.DroppedLate - base.DroppedLate},
				{"rejected_input", met.RejectedInput.Load(), st.RejectedInput - base.RejectedInput},
				{"budget_shed", met.BudgetShed.Load(), st.ShedBudget - base.ShedBudget},
				{"window_fires", met.WindowFires.Load(), fires},
			} {
				if c.got != c.want {
					t.Errorf("%s = %d, want %d (stats %+v, snapshot %+v)", c.name, c.got, c.want, st, base)
				}
			}
			if tc.fail {
				return
			}
			if st.Generated != st.Accepted+st.DroppedLate+st.RejectedInput+st.ShedBudget {
				t.Errorf("stats identity violated: %+v", st)
			}
		})
	}
}

// handoffProbe is a partition sketch that checks, on every batch it is
// handed, that the engine's Inserted counter trails the values the run
// handed to its sketches before that batch by less than one batch per
// partition.
type handoffProbe struct {
	sketch.Sketch
	t      *testing.T
	met    *obs.EngineMetrics
	handed *int64
	parts  int64
}

func (h *handoffProbe) InsertBatch(xs []float64) {
	if got := h.met.Inserted.Load(); *h.handed-got >= batchSize*h.parts {
		h.t.Errorf("batch hand-off: inserted %d, but %d values were handed over before it", got, *h.handed)
	}
	*h.handed += int64(len(xs))
	sketch.InsertAll(h.Sketch, xs)
}

func (h *handoffProbe) Merge(o sketch.Sketch) error {
	if p, ok := o.(*handoffProbe); ok {
		o = p.Sketch
	}
	return h.Sketch.Merge(o)
}

// TestEngineMetricsTrailByOneBatch pins the mid-run staleness bound of
// Config.Metrics on the serial path: between barriers (here one window
// of 20,000 events, so there are none), Inserted is published at every
// full batch, so it trails the sketches by less than one batch per
// partition.
func TestEngineMetricsTrailByOneBatch(t *testing.T) {
	met := obs.NewRegistry().Engine()
	var handed int64
	eng, err := NewEngine(Config{
		WindowSize: time.Second,
		Rate:       20000,
		NumWindows: 1,
		Partitions: 2,
		Values:     datagen.NewUniform(1, 2, 71),
		Builder: func() sketch.Sketch {
			return &handoffProbe{Sketch: ddBuilder(), t: t, met: met, handed: &handed, parts: 2}
		},
		Metrics: met,
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := eng.Run(func(WindowResult) {})
	if err != nil {
		t.Fatal(err)
	}
	if handed != st.Accepted || met.Inserted.Load() != st.Accepted {
		t.Errorf("handed %d, inserted %d, want both %d", handed, met.Inserted.Load(), st.Accepted)
	}
}
