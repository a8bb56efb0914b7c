package main

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/concurrent"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/ddsketch"
	"repro/internal/kll"
	"repro/internal/obs"
	"repro/internal/sketch"
	"repro/internal/stats"
	"repro/internal/stream"
)

// bench holds one invocation's workload and seed.
type bench struct {
	sp    spec
	seed  uint64
	draws int // input draws handed out so far (paper-accuracy)
}

// Per-component seeds, derived from --seed so the same seed always
// gives the same inputs.
func (b *bench) srcSeed() uint64     { return datagen.DeriveSeed(b.seed, 0) }
func (b *bench) delaySeed() uint64   { return datagen.DeriveSeed(b.seed, 1) }
func (b *bench) builderSeed() uint64 { return datagen.DeriveSeed(b.seed, 2) }

// newSource returns the workload's seeded event source.
func newSource(sp spec, seed uint64) (datagen.Source, error) {
	if sp.dataset == datagen.DatasetUniform {
		return datagen.NewUniform(1, 1000, seed), nil
	}
	return datagen.NewDataset(sp.dataset, seed)
}

// newDelay returns the workload's seeded delay model.
func newDelay(sp spec, seed uint64) stream.DelayModel {
	if sp.delayMean <= 0 {
		return stream.ZeroDelay{}
	}
	return stream.NewExponentialDelay(sp.delayMean, seed)
}

// builders returns the study builders for the workload's data set.
func (b *bench) builders() (map[string]sketch.Builder, error) {
	return core.BuildersForDataset(b.sp.dataset, b.builderSeed())
}

// repOut is what one rep (one fresh construction and run of a workload
// configuration) measured.
type repOut struct {
	events    int64 // stream.Stats.Generated (summed over harness runs for paper-accuracy)
	wall      time.Duration
	setup     time.Duration // paper-accuracy only; engine set-up is probed separately
	gaps      []time.Duration
	queries   []time.Duration
	readerLag time.Duration
	heapPeak  uint64
	alloc     uint64
	gcCycles  uint64
	digest    uint64
	winErrs   []float64 // checked reps: each window's mean relative error over the paper's quantiles
	lossRate  float64
	tl        tally
	// readerSpans are the live reader's spans (traced reps only).
	readerSpans []span
}

// errProbeDone stops a set-up probe at its first event.
var errProbeDone = errors.New("perfbench: set-up probe reached its first event")

// probeSource records when the engine asks for its first event and then
// stops the run: the engine recovers the panic into a *stream.PanicError.
type probeSource struct{ at time.Time }

func (p *probeSource) Next() float64 {
	p.at = time.Now()
	panic(errProbeDone)
}

// engineEnv holds what a rep reads back after the run.
type engineEnv struct {
	reg    *obs.Registry
	shared concurrent.Shared
}

// buildEngine constructs everything a rep needs up to the first event.
// A non-nil probe replaces the source after the real one is built, so
// the probe still pays the source's construction.
func (b *bench) buildEngine(sp spec, collect bool, tr *tracer, probe *probeSource) (*stream.Engine, engineEnv, error) {
	var env engineEnv
	src, err := newSource(sp, b.srcSeed())
	if err != nil {
		return nil, env, err
	}
	if probe != nil {
		src = probe
	}
	bs, err := b.builders()
	if err != nil {
		return nil, env, err
	}
	builder := bs[sp.alg]
	if sp.alg == core.AlgKLL && sp.workers == 1 {
		builder = reseeding(b.builderSeed())
	}
	cfg := stream.Config{
		WindowSize:    sp.window,
		Slide:         sp.slide,
		DecayLambda:   sp.decay,
		Rate:          sp.rate,
		NumWindows:    sp.windows,
		Partitions:    sp.partitions,
		Workers:       sp.workers,
		Values:        src,
		Delay:         newDelay(sp, b.delaySeed()),
		Builder:       builder,
		CollectValues: collect,
		MemoryBudget:  sp.budget,
	}
	if sp.checkpoint {
		var store checkpoint.Store = checkpoint.NewMemStore()
		if tr != nil {
			store = &timedStore{inner: store, tr: tr}
		}
		cfg.CheckpointStore = store
		cfg.CheckpointEvery = 1
	}
	if sp.metrics || tr != nil {
		env.reg = obs.NewRegistry()
		core.EnableMetrics(env.reg)
		cfg.Metrics = env.reg.Engine()
	} else {
		core.EnableMetrics(nil)
	}
	if sp.shared {
		env.shared = concurrent.NewKLL(kll.DefaultK, sp.workers, 0)
		cfg.SharedSketch = env.shared
	}
	eng, err := stream.NewEngine(cfg)
	return eng, env, err
}

// reseeding returns a KLL builder that seeds every sketch it builds
// from a deterministic sequence. The study builder gives every window
// the same seed, so all windows of a run flip the same compaction coins
// and their errors move together; independent coins let the per-window
// errors average out. The sequence is deterministic only when one
// goroutine calls the builder (Workers 1).
func reseeding(seed uint64) sketch.Builder {
	state := seed
	return func() sketch.Sketch {
		return kll.NewWithSeed(core.KLLMaxCompactorSize, datagen.SplitMix64(&state))
	}
}

// probeSetup measures workload start to first event: a full fresh
// construction, then the engine's first draw from its source.
func (b *bench) probeSetup(sp spec) (time.Duration, error) {
	t0 := time.Now()
	probe := &probeSource{}
	eng, _, err := b.buildEngine(sp, false, nil, probe)
	if err != nil {
		return 0, err
	}
	_, err = eng.Run(func(stream.WindowResult) {})
	var pe *stream.PanicError
	if !errors.As(err, &pe) || pe.Value != errProbeDone {
		return 0, fmt.Errorf("set-up probe: want the probe's stop, got %v", err)
	}
	return probe.at.Sub(t0), nil
}

// engineRep runs one fresh construction of sp. checked collects every
// window's values and checks each answer against the oracle; want, when
// non-zero, is the digest the answers must reproduce.
func (b *bench) engineRep(sp spec, checked bool, want uint64, tr *tracer) (repOut, error) {
	var out repOut
	eng, env, err := b.buildEngine(sp, checked, tr, nil)
	if err != nil {
		return out, err
	}
	qs := core.AllQuantiles()
	dg := newDigest()
	next := 0
	var prev time.Time
	paneBuckets := map[paneKey]int{} // checked decayed runs: pane → DDSketch buckets
	emit := func(r stream.WindowResult) {
		now := time.Now()
		if !prev.IsZero() {
			out.gaps = append(out.gaps, now.Sub(prev))
		}
		var qStart time.Time
		if tr != nil {
			qStart = time.Now()
		}
		ans, err := sketch.Quantiles(r.Sketch, qs)
		if tr != nil {
			end := time.Now()
			parent := -1
			if !prev.IsZero() {
				parent = tr.span(spanWindow, prev, now, -1)
			}
			tr.span(spanWindowQuantiles, qStart, end, parent)
		}
		prev = now
		checkOrder(&out.tl, r.Index, next)
		next = r.Index + 1
		if !out.tl.check(err == nil, "window %d: quantiles: %v", r.Index, err) {
			return
		}
		if !checkAnswers(&out.tl, fmt.Sprintf("window %d", r.Index), ans) {
			return
		}
		dg.word(uint64(r.Index))
		dg.word(uint64(r.Accepted))
		for _, v := range ans {
			dg.float(v)
		}
		if checked {
			b.checkWindow(&out, sp, r, ans, paneBuckets)
		}
	}
	var rd *reader
	if env.shared != nil {
		rd = newReader(env.shared, sp.queryEvery, tr)
	}
	runtime.GC()
	hs := startHeapSampler()
	alloc0, gc0 := runtimeTotals()
	start := time.Now()
	if rd != nil {
		go rd.run(start)
	}
	st, err := eng.Run(emit)
	out.wall = time.Since(start)
	if rd != nil {
		rd.halt()
		out.queries, out.readerLag = rd.lat, rd.lagMax
		out.tl.add(rd.tl)
		if rd.tr != nil {
			out.readerSpans = rd.tr.spans
		}
	}
	alloc1, gc1 := runtimeTotals()
	out.heapPeak = hs.halt()
	if err != nil {
		return out, fmt.Errorf("%s: run: %w", sp.name, err)
	}
	out.alloc, out.gcCycles = alloc1-alloc0, gc1-gc0
	out.events = st.Generated
	out.lossRate = st.LossRate()
	out.digest = dg.h
	checkIdentity(&out.tl, st)
	checkWindowCount(&out.tl, next, sp.windows)
	if sp.budget > 0 && sp.workers > 1 {
		out.tl.check(st.ShedBudget == 0, "budget shed %d events; the parallel path must only degrade", st.ShedBudget)
	}
	if env.shared != nil {
		env.shared.Flush()
		checkSharedCount(&out.tl, env.shared.Count(), st.Accepted)
	}
	if want != 0 {
		checkDigest(&out.tl, out.digest, want)
	}
	if tr != nil {
		tr.readCounts(env.reg)
	}
	return out, nil
}

// checkWindow checks one window's answers against its exact (or
// decay-weighted) oracle and accumulates the relative error.
func (b *bench) checkWindow(out *repOut, sp spec, r stream.WindowResult, ans []float64, paneBuckets map[paneKey]int) {
	if !out.tl.check(len(r.Values) > 0, "window %d: no values collected", r.Index) {
		return
	}
	qs := core.AllQuantiles()
	var o oracle
	var exact *stats.ExactQuantiles
	eps := 0.0
	if lambda := sp.decay; lambda > 0 {
		weights := decayWeights(r, lambda)
		o = stats.NewWeightedQuantiles(r.Values, weights)
		eps = roundingSlack(r, weights, paneBuckets)
	} else {
		exact = stats.NewExactQuantiles(r.Values)
		o = exact
	}
	// A degraded DDSketch folds its lowest buckets upward, so below the
	// fold it may overestimate without bound; it still never
	// underestimates by more than alpha. Degraded windows are checked on
	// that side only.
	oneSided := r.Degradations > 0
	for i, q := range qs {
		truth := o.Quantile(q)
		switch sp.alg {
		case core.AlgKLL:
			out.tl.check(rankBoundOK(exact, q, ans[i], kllRankSlack*r.AccuracyBound),
				"window %d q=%v: kll answer %v has rank %v, bound %v", r.Index, q, ans[i], exact.NormalizedRank(ans[i]), r.AccuracyBound)
		default:
			out.tl.check(relBoundOK(o, q, ans[i], r.AccuracyBound, eps, oneSided),
				"window %d q=%v: %s answer %v outside alpha %v of oracle %v (rank slack %v)", r.Index, q, sp.alg, ans[i], r.AccuracyBound, truth, eps)
		}
	}
	// The error figure averages over the percentile grid, not just the
	// eight checked quantiles: a run holds only a few windows, and eight
	// samples per window leave the figure at the mercy of where a few
	// true values fall inside their buckets.
	ests, err := sketch.Quantiles(r.Sketch, errorGrid)
	if err != nil {
		out.tl.check(false, "window %d: percentile grid: %v", r.Index, err)
		return
	}
	var errSum float64
	for i, q := range errorGrid {
		errSum += stats.RelativeError(o.Quantile(q), ests[i])
	}
	out.winErrs = append(out.winErrs, errSum/float64(len(errorGrid)))
}

// errorGrid is the percentile grid rel_error_mean averages over.
var errorGrid = func() []float64 {
	g := make([]float64, 99)
	for i := range g {
		g[i] = float64(i+1) / 100
	}
	return g
}()

// kllRankSlack widens KLL's rank-error estimate into a check: the bound
// is DataSketches' 99%-confidence fit, so one window in a hundred may
// exceed it by chance; twice the fit is far in the tail.
const kllRankSlack = 2

// paneKey identifies one pane's values: its start, and its count (a
// budget-coarsened pane holds its predecessor's events too).
type paneKey struct {
	start time.Duration
	n     int
}

// roundingSlack bounds the rank shift that decay's count rounding can
// cause: every bucket of a down-weighted pane rounds its scaled count by
// at most one half, so the weighted rank moves by at most half the
// decayed panes' bucket counts over the window's total weight.
func roundingSlack(r stream.WindowResult, weights []float64, paneBuckets map[paneKey]int) float64 {
	n := len(r.PaneCounts)
	paneLen := (r.End - r.Start) / time.Duration(n)
	var total, slack float64
	for _, w := range weights {
		total += w
	}
	off := 0
	for i, c := range r.PaneCounts {
		vals := r.Values[off : off+c]
		off += c
		if i == n-1 || c == 0 {
			continue // the newest pane keeps weight 1: no rounding
		}
		key := paneKey{start: r.End - time.Duration(n-i)*paneLen, n: c}
		nb, ok := paneBuckets[key]
		if !ok {
			sk := ddsketch.New(core.DDSketchAlpha)
			for _, v := range vals {
				sk.Insert(v)
			}
			nb = sk.NonEmptyBuckets()
			paneBuckets[key] = nb
		}
		slack += 0.5 * float64(nb)
	}
	if total == 0 {
		return 0
	}
	return slack / total
}
