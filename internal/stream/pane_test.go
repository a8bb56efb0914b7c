package stream

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/kll"
	"repro/internal/moments"
	"repro/internal/obs"
	"repro/internal/sketch"
)

// paneCfg is the job for the pane-sharing recompute-reference tests:
// zero delay so nothing is late and the reference can reconstruct the
// exact accepted stream, seeded KLL so every Builder() product is
// identical and any merge-order deviation shows in the serialized
// bytes. Slide = WindowSize/4, so every window spans 4 panes and the
// first three windows are clamped to the stream origin.
func paneCfg() Config {
	return Config{
		WindowSize:    time.Second,
		Slide:         250 * time.Millisecond,
		Rate:          4000,
		NumWindows:    6,
		Partitions:    3,
		NewValues:     func() datagen.Source { return datagen.NewPareto(1, 1, 41) },
		Builder:       func() sketch.Sketch { return kll.NewWithSeed(128, 99) },
		CollectValues: true,
		Metrics:       testMetrics.Engine(),
	}
}

// refPane is one pane of the recompute reference: the accepted values
// split by partition (insert order) and concatenated (window order).
type refPane struct {
	parts  [][]float64
	values []float64
}

// paneReference recomputes every sliding window of cfg from scratch —
// no sharing, no engine — mirroring the engine's two-level merge
// structure exactly: per-partition sketches fold into a fresh pane
// sketch in partition order, pane sketches fold into a fresh window
// sketch in ascending pane order. cfg must use zero delay (the
// reference reconstructs the accepted stream as the generation
// sequence) and NewValues (the engine consumes its own source copy).
// lambda > 0 applies the engine's decay rule through the reference
// path, an oracle independent of the engine's fused MergeScaled: panes
// older than the window's newest are cloned through a Marshal/Unmarshal
// round-trip and count-scaled by exp(-lambda·age) before merging.
func paneReference(t *testing.T, cfg Config, lambda float64) []WindowResult {
	t.Helper()
	g := gcdDur(cfg.WindowSize, cfg.Slide)
	pps := int(cfg.Slide / g)
	ppw := int(cfg.WindowSize / g)
	firstOff := 1 - int((cfg.WindowSize+cfg.Slide-1)/cfg.Slide)
	paneEnd := func(k int) int { return (firstOff+k)*pps + ppw }
	paneStart := func(k int) int {
		if s := (firstOff + k) * pps; s > 0 {
			return s
		}
		return 0
	}
	numPanes := paneEnd(cfg.NumWindows - 1)
	runEnd := g * time.Duration(numPanes)

	// Reconstruct the accepted stream: partition cycles per draw, pane
	// is the generation time's slot, zero delay keeps generation order.
	interval := time.Second / time.Duration(cfg.Rate)
	src := cfg.NewValues()
	panes := make([]*refPane, numPanes)
	draw := 0
	for gen := time.Duration(0); gen < runEnd; gen += interval {
		v := src.Next()
		part := draw % cfg.Partitions
		draw++
		p := panes[gen/g]
		if p == nil {
			p = &refPane{parts: make([][]float64, cfg.Partitions)}
			panes[gen/g] = p
		}
		p.parts[part] = append(p.parts[part], v)
		p.values = append(p.values, v)
	}

	paneSk := make([]sketch.Sketch, numPanes)
	for j, p := range panes {
		if p == nil {
			continue
		}
		var sk sketch.Sketch
		for part := 0; part < cfg.Partitions; part++ {
			if len(p.parts[part]) == 0 {
				continue
			}
			ps := cfg.Builder()
			for _, v := range p.parts[part] {
				ps.Insert(v)
			}
			if sk == nil {
				sk = cfg.Builder()
			}
			if err := sk.Merge(ps); err != nil {
				t.Fatal(err)
			}
		}
		paneSk[j] = sk
	}

	out := make([]WindowResult, cfg.NumWindows)
	for k := range out {
		endT := g * time.Duration(paneEnd(k))
		merged := cfg.Builder()
		var values []float64
		var accepted int64
		var paneCounts []int
		for j := paneStart(k); j < paneEnd(k); j++ {
			p := panes[j]
			if p == nil {
				paneCounts = append(paneCounts, 0)
				continue
			}
			paneCounts = append(paneCounts, len(p.values))
			accepted += int64(len(p.values))
			values = append(values, p.values...)
			src := paneSk[j]
			if w := math.Exp(-lambda * (endT - g*time.Duration(j+1)).Seconds()); lambda > 0 && w < 1 {
				clone := cfg.Builder()
				blob, err := src.MarshalBinary()
				if err != nil {
					t.Fatal(err)
				}
				if err := clone.UnmarshalBinary(blob); err != nil {
					t.Fatal(err)
				}
				clone.(sketch.CountScaler).ScaleCount(w)
				src = clone
			}
			if err := merged.Merge(src); err != nil {
				t.Fatal(err)
			}
		}
		out[k] = WindowResult{
			Index:      k,
			Start:      g * time.Duration(paneStart(k)),
			End:        endT,
			Sketch:     merged,
			Values:     values,
			Accepted:   accepted,
			PaneCounts: paneCounts,
		}
	}
	return out
}

// assertSameWindows compares two window lists bit-exactly, including
// the pane decomposition PaneCounts reports.
func assertSameWindows(t *testing.T, label string, got, want []WindowResult) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d windows, want %d", label, len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.Index != w.Index || g.Start != w.Start || g.End != w.End || g.Accepted != w.Accepted {
			t.Errorf("%s window %d: header Index=%d [%v,%v) accepted=%d, want Index=%d [%v,%v) accepted=%d",
				label, i, g.Index, g.Start, g.End, g.Accepted, w.Index, w.Start, w.End, w.Accepted)
		}
		if len(g.PaneCounts) != len(w.PaneCounts) {
			t.Fatalf("%s window %d: %d pane counts, want %d", label, i, len(g.PaneCounts), len(w.PaneCounts))
		}
		for j := range w.PaneCounts {
			if g.PaneCounts[j] != w.PaneCounts[j] {
				t.Errorf("%s window %d pane %d: count %d, want %d", label, i, j, g.PaneCounts[j], w.PaneCounts[j])
			}
		}
		if len(g.Values) != len(w.Values) {
			t.Fatalf("%s window %d: %d values, want %d", label, i, len(g.Values), len(w.Values))
		}
		for j := range w.Values {
			if g.Values[j] != w.Values[j] {
				t.Fatalf("%s window %d value %d: %v, want %v", label, i, j, g.Values[j], w.Values[j])
			}
		}
		if !bytes.Equal(marshal(t, g.Sketch), marshal(t, w.Sketch)) {
			t.Errorf("%s window %d: merged sketch differs", label, i)
		}
	}
}

// TestPaneBitIdentityVsRecompute is the pane-sharing correctness
// contract: the engine's pane-merged sliding windows are bit-identical
// to windows recomputed from scratch, including the clamped
// start-of-stream windows, so sharing is a pure optimization with no
// semantic drift.
func TestPaneBitIdentityVsRecompute(t *testing.T) {
	want := paneReference(t, paneCfg(), 0)
	got, stats := mustRunCollect(t, paneCfg())
	assertSameWindows(t, "pane-shared", got, want)
	if stats.Generated != stats.Accepted+stats.DroppedLate+stats.RejectedInput {
		t.Errorf("stats identity violated: %+v", stats)
	}
	// Start-of-stream coverage: the first window is clamped to the
	// origin and holds exactly the events generated before its end.
	first := got[0]
	if first.Start != 0 {
		t.Errorf("first window starts at %v, want 0", first.Start)
	}
	cfg := paneCfg()
	if wantN := int64(first.End / (time.Second / time.Duration(cfg.Rate))); first.Accepted != wantN {
		t.Errorf("first window accepted %d events, want every one of the %d generated before %v", first.Accepted, wantN, first.End)
	}
	if first.End-first.Start >= cfg.WindowSize {
		t.Errorf("first clamped window spans %v, want < WindowSize", first.End-first.Start)
	}
	last := got[len(got)-1]
	if last.End-last.Start != cfg.WindowSize {
		t.Errorf("steady-state window spans %v, want %v", last.End-last.Start, cfg.WindowSize)
	}
}

// TestPaneDecayVsRecompute extends the recompute contract to the
// exponentially decayed mode for every study sketch: the engine's fused
// scaled pane merges (sketch.CountScaler.MergeScaled) match an
// independent recomputation that clones, scales and merges each
// down-weighted pane. At λ = 40 the older panes' weights are below
// 1e-4, so whole panes round away — the edge where the clone resets
// and must bring no min/max into the window.
func TestPaneDecayVsRecompute(t *testing.T) {
	builders, err := core.BuildersForDataset(datagen.DatasetPareto, 99)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range core.AlgorithmNames() {
		for _, lambda := range []float64{0.9, 40} {
			t.Run(fmt.Sprintf("%s/lambda=%v", name, lambda), func(t *testing.T) {
				base := paneCfg()
				base.Builder = builders[name]
				cfg := base
				cfg.DecayLambda = lambda
				want := paneReference(t, base, lambda)
				got, _ := mustRunCollect(t, cfg)
				assertSameWindows(t, "decayed", got, want)
			})
		}
	}
}

// checkedStore runs check before storing each snapshot.
type checkedStore struct {
	checkpoint.Store
	check func()
}

func (s checkedStore) Put(seq uint64, data []byte) error {
	s.check()
	return s.Store.Put(seq, data)
}

// TestPaneEnvelopeCacheFresh pins the sealed-pane envelope cache:
// after every snapshot, each sealed pane's cached envelope equals a
// fresh sealPartial of its sketch, through both ways a sealed pane
// changes — the governor degrading it (a decayed run under a binding
// budget) and rung 2 folding a neighbour into it (an undecayed run of
// sketches that refuse degradation). Each run must re-seal some pane
// between snapshots, or it would not exercise the invalidation.
func TestPaneEnvelopeCacheFresh(t *testing.T) {
	cases := map[string]Config{
		"degrade": {
			WindowSize:   800 * time.Millisecond,
			Slide:        50 * time.Millisecond,
			Rate:         50000,
			NumWindows:   24,
			Partitions:   4,
			Workers:      2,
			Values:       datagen.NewPareto(1, 1, 41),
			Builder:      ddBuilder,
			DecayLambda:  1.25,
			MemoryBudget: 150 << 10,
		},
		// Pane size 1 s: a fold target can outlive the next fire, so a
		// stale envelope would reach a later snapshot.
		"coarsen": {
			WindowSize:   7 * time.Second,
			Slide:        2 * time.Second,
			Rate:         4000,
			NumWindows:   8,
			Partitions:   2,
			Values:       datagen.NewUniform(1, 1000, 17),
			Builder:      func() sketch.Sketch { return moments.New(10) },
			MemoryBudget: 900,
		},
	}
	for name, cfg := range cases {
		t.Run(name, func(t *testing.T) {
			var rs *runState
			cached := map[*sealedPane]*byte{}
			snapshots, resealed := 0, 0
			cfg.CheckpointStore = checkedStore{checkpoint.NewMemStore(), func() {
				snapshots++
				for j, sp := range rs.sealed {
					if sp.sketch == nil {
						continue
					}
					fresh, err := sealPartial(sp.sketch)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(sp.sealed, fresh) {
						t.Fatalf("snapshot %d: pane %d's cached envelope is stale", snapshots, j)
					}
					if prev, ok := cached[sp]; ok && prev != &sp.sealed[0] {
						resealed++
					}
					cached[sp] = &sp.sealed[0]
				}
			}}
			e, err := NewEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			rs, err = e.newRunState(func(WindowResult) {})
			if err != nil {
				t.Fatal(err)
			}
			defer rs.sink.close()
			if err := rs.loop(); err != nil {
				t.Fatal(err)
			}
			if snapshots == 0 || resealed == 0 {
				t.Fatalf("%d snapshots re-sealed %d changed panes, want both > 0", snapshots, resealed)
			}
		})
	}
}

// TestPaneParallelBitIdentical extends the Workers determinism
// guarantee to pane mode: under a reordering delay model (late drops
// present), the parallel pane path must match the sequential pane path
// byte-for-byte at every worker count, including uneven partition
// distributions. Run under -race (scripts/verify.sh does) this is also
// the pane path's data-race exercise.
func TestPaneParallelBitIdentical(t *testing.T) {
	run := func(workers, partitions int) ([]WindowResult, Stats) {
		cfg := paneCfg()
		cfg.Partitions = partitions
		cfg.Workers = workers
		cfg.NewDelay = func() DelayModel { return NewExponentialDelay(150*time.Millisecond, 43) }
		return mustRunCollect(t, cfg)
	}
	for _, partitions := range []int{4, 5} {
		seqResults, seqStats := run(1, partitions)
		if seqStats.DroppedLate == 0 {
			t.Fatal("want late drops in the reference run so sealed-pane accounting is tested under reordering pressure")
		}
		if seqStats.Generated != seqStats.Accepted+seqStats.DroppedLate+seqStats.RejectedInput {
			t.Fatalf("stats identity violated: %+v", seqStats)
		}
		for _, workers := range []int{2, 4, 8} {
			parResults, parStats := run(workers, partitions)
			if parStats != seqStats {
				t.Errorf("partitions=%d workers=%d: stats %+v, sequential %+v", partitions, workers, parStats, seqStats)
			}
			assertSameWindows(t, "parallel-pane", parResults, seqResults)
		}
	}
}

// TestDecayMetamorphic pins the decay semantics without a reference
// implementation: λ=0 is byte-identical to the undecayed sliding run;
// under λ>0 a single-pane window (the clamped first window, whose only
// pane has age 0) is still byte-identical, every multi-pane window
// summarizes strictly fewer weighted events, and the engine-side pane
// accounting (PaneCounts) is untouched by the weighting.
func TestDecayMetamorphic(t *testing.T) {
	plain, _ := mustRunCollect(t, paneCfg())

	zeroCfg := paneCfg()
	zeroCfg.DecayLambda = 0
	zero, _ := mustRunCollect(t, zeroCfg)
	assertSameWindows(t, "lambda-zero", zero, plain)

	decCfg := paneCfg()
	decCfg.DecayLambda = 1.5
	decayed, _ := mustRunCollect(t, decCfg)
	if len(decayed) != len(plain) {
		t.Fatalf("%d decayed windows, want %d", len(decayed), len(plain))
	}
	for i, d := range decayed {
		p := plain[i]
		if len(d.PaneCounts) != len(p.PaneCounts) {
			t.Fatalf("window %d: %d pane counts, want %d", i, len(d.PaneCounts), len(p.PaneCounts))
		}
		for j := range p.PaneCounts {
			if d.PaneCounts[j] != p.PaneCounts[j] {
				t.Errorf("window %d pane %d: decay changed the accepted count %d -> %d", i, j, p.PaneCounts[j], d.PaneCounts[j])
			}
		}
		if len(d.PaneCounts) == 1 {
			if !bytes.Equal(marshal(t, d.Sketch), marshal(t, p.Sketch)) {
				t.Errorf("window %d: single-pane window (newest pane, weight 1) differs under decay", i)
			}
			continue
		}
		if dc, pc := d.Sketch.Count(), p.Sketch.Count(); dc >= pc {
			t.Errorf("window %d: decayed count %d, want < undecayed %d", i, dc, pc)
		}
	}
}

// TestPaneMetrics asserts the pane-sharing observability: PaneMerges
// counts one merge per (window, non-empty pane) pair, WindowFires
// counts the sliding windows, and PanesOpen returns to zero once the
// final window evicts everything.
func TestPaneMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := paneCfg()
	cfg.Metrics = reg.Engine()
	got, _ := mustRunCollect(t, cfg)

	var wantMerges int64
	for _, r := range got {
		for _, c := range r.PaneCounts {
			if c > 0 {
				wantMerges++
			}
		}
	}
	if merges := reg.Engine().PaneMerges.Load(); merges != wantMerges {
		t.Errorf("PaneMerges = %d, want %d", merges, wantMerges)
	}
	if fires := reg.Engine().WindowFires.Load(); fires != int64(cfg.NumWindows) {
		t.Errorf("WindowFires = %d, want %d", fires, cfg.NumWindows)
	}
	if open := reg.Engine().PanesOpen.Load(); open != 0 {
		t.Errorf("PanesOpen = %d after the run, want 0 (all panes evicted)", open)
	}
}

// TestTumblingSlideDegenerate asserts Slide == WindowSize runs tumbling
// windows: output is byte-identical to Slide == 0 and carries no pane
// decomposition.
func TestTumblingSlideDegenerate(t *testing.T) {
	tumbling := paneCfg()
	tumbling.Slide = 0
	want, wantStats := mustRunCollect(t, tumbling)

	degenerate := paneCfg()
	degenerate.Slide = degenerate.WindowSize
	got, gotStats := mustRunCollect(t, degenerate)
	if gotStats != wantStats {
		t.Errorf("stats %+v, want %+v", gotStats, wantStats)
	}
	if len(got) != len(want) {
		t.Fatalf("%d windows, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].PaneCounts != nil {
			t.Errorf("window %d: tumbling-degenerate run reports pane counts %v", i, got[i].PaneCounts)
		}
		if got[i].Start != want[i].Start || got[i].End != want[i].End || got[i].Accepted != want[i].Accepted {
			t.Errorf("window %d: header %+v, want %+v", i, got[i], want[i])
		}
		if !bytes.Equal(marshal(t, got[i].Sketch), marshal(t, want[i].Sketch)) {
			t.Errorf("window %d: sketch differs from tumbling run", i)
		}
	}
}

// noScale strips the CountScaler implementation off a sketch by hiding
// it behind the plain Sketch interface's method set.
type noScale struct{ sketch.Sketch }

// TestSlidingConstructionValidation pins the construction-time
// rejection of misconfigured sliding jobs: out-of-range slides and
// unusable decay setups fail NewEngine with a descriptive error
// instead of surfacing mid-run.
func TestSlidingConstructionValidation(t *testing.T) {
	base := paneCfg()
	cases := []struct {
		name string
		mut  func(*Config)
		want string
	}{
		{"negative slide", func(c *Config) { c.Slide = -time.Second }, "Slide"},
		{"slide above window", func(c *Config) { c.Slide = c.WindowSize + 1 }, "Slide"},
		{"decay on tumbling", func(c *Config) { c.Slide = 0; c.DecayLambda = 1 }, "sliding mode"},
		{"decay on degenerate slide", func(c *Config) { c.Slide = c.WindowSize; c.DecayLambda = 1 }, "sliding mode"},
		{"negative decay", func(c *Config) { c.DecayLambda = -1 }, "DecayLambda"},
		{"NaN decay", func(c *Config) { c.DecayLambda = math.NaN() }, "DecayLambda"},
		{"decay without CountScaler", func(c *Config) {
			c.DecayLambda = 1
			inner := c.Builder
			c.Builder = func() sketch.Sketch { return noScale{inner()} }
		}, "CountScaler"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.mut(&cfg)
			_, err := NewEngine(cfg)
			if err == nil {
				t.Fatal("NewEngine accepted the misconfiguration")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestSlidingAssignerStartOfStream pins the negative-start clamping:
// events near the stream origin are covered by the full ⌈Size/Slide⌉
// window family, with nominal starts before the origin clamped to 0
// and every end kept on the slide lattice.
func TestSlidingAssignerStartOfStream(t *testing.T) {
	const size, slide = 4 * time.Second, time.Second
	results, _ := mustRunCollect(t, Config{
		WindowSize:    size,
		Slide:         slide,
		Rate:          2, // event i at i·500ms, payload i
		NumWindows:    14,
		Values:        &rampSource{},
		Builder:       ddBuilder,
		CollectValues: true,
	})
	containing := func(at time.Duration) []WindowResult {
		var out []WindowResult
		for _, r := range results {
			if slices.Contains(r.Values, float64(at/(500*time.Millisecond))) {
				out = append(out, r)
			}
		}
		return out
	}
	wins := containing(500 * time.Millisecond)
	if len(wins) != 4 {
		t.Fatalf("event at 500ms is in %d windows, want 4", len(wins))
	}
	for i, w := range wins {
		if 500*time.Millisecond < w.Start || 500*time.Millisecond >= w.End {
			t.Errorf("window [%v,%v) does not contain the event", w.Start, w.End)
		}
		if w.Start != 0 {
			t.Errorf("start-of-stream window %d starts at %v, want clamped 0", i, w.Start)
		}
		if w.End%slide != 0 {
			t.Errorf("window end %v is off the slide lattice", w.End)
		}
		if w.Start < 0 || w.End <= w.Start {
			t.Errorf("degenerate window [%v,%v)", w.Start, w.End)
		}
	}
	// Mid-stream, the same family is unclamped and spans exactly Size.
	for _, w := range containing(10 * time.Second) {
		if w.End-w.Start != size {
			t.Errorf("mid-stream window [%v,%v) spans %v, want %v", w.Start, w.End, w.End-w.Start, size)
		}
		if 10*time.Second < w.Start || 10*time.Second >= w.End {
			t.Errorf("mid-stream window [%v,%v) does not contain the event", w.Start, w.End)
		}
	}
}

// TestGenericSlidingStartOfStream runs sliding windows with zero delay
// and checks full start-of-stream coverage: nothing is dropped, the
// clamped windows fire with Start 0, and each holds exactly the events
// generated before its end.
func TestGenericSlidingStartOfStream(t *testing.T) {
	cfg := Config{
		WindowSize:    2 * time.Second,
		Slide:         500 * time.Millisecond,
		Rate:          1000,
		NumWindows:    6,
		Values:        datagen.NewUniform(0, 100, 17),
		Builder:       ddBuilder,
		CollectValues: true,
	}
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var results []WindowResult
	stats, err := eng.Run(func(r WindowResult) { results = append(results, r) })
	if err != nil {
		t.Fatal(err)
	}
	if stats.DroppedLate != 0 {
		t.Errorf("zero-delay run dropped %d events late", stats.DroppedLate)
	}
	if stats.Accepted != stats.Generated {
		t.Errorf("accepted %d of %d generated events; start-of-stream events lost", stats.Accepted, stats.Generated)
	}
	interval := time.Second / time.Duration(cfg.Rate)
	clamped := 0
	for _, r := range results {
		if r.Start != 0 {
			continue
		}
		clamped++
		if want := int64(r.End / interval); r.Accepted != want {
			t.Errorf("clamped window [%v,%v) accepted %d events, want %d", r.Start, r.End, r.Accepted, want)
		}
	}
	// Ends 500ms..2s sit before the first unclamped start: 4 clamped
	// windows, the full ⌈Size/Slide⌉ family.
	if clamped != 4 {
		t.Errorf("%d clamped start-of-stream windows fired, want 4", clamped)
	}
}
