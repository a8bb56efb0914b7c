package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/concurrent"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/kll"
	"repro/internal/sketch"
)

// ablation is one config toggle of the traced run: the workload with
// one layer switched off, whose marginal cost is the difference in
// wall ns/event against the untraced base.
type ablation struct {
	name  string
	apply func(*spec) bool // reports whether the workload has the layer
}

var ablations = []ablation{
	{"delay-off", func(s *spec) bool { on := s.delayMean > 0; s.delayMean = 0; return on }},
	{"workers-1", func(s *spec) bool { on := s.workers > 1; s.workers = 1; return on }},
	{"budget-off", func(s *spec) bool { on := s.budget > 0; s.budget = 0; return on }},
	{"checkpoint-off", func(s *spec) bool { on := s.checkpoint; s.checkpoint = false; return on }},
	{"decay-off", func(s *spec) bool { on := s.decay > 0; s.decay = 0; return on }},
	{"metrics-off", func(s *spec) bool { on := s.metrics; s.metrics = false; return on }},
}

// traced measures the per-layer metrics: an untraced base phase, a
// traced phase (spans, obs counts, CPU profile), one phase per config
// toggle, and isolated replays of the per-event layers.
func (b *bench) traced(seconds int, rec *record, spansOut string) error {
	var tl tally
	checked, err := b.checkedRep(&tl)
	if err != nil {
		return err
	}
	fillEvents := func(ph *phase) {
		for i := range ph.reps {
			if ph.reps[i].events == 0 {
				ph.reps[i].events = checked.events
			}
		}
	}
	total := time.Duration(seconds) * time.Second
	base, err := b.timedPhase(b.sp, total/2, 2, checked.digest, nil, &tl)
	if err != nil {
		return err
	}
	fillEvents(&base)

	// Traced phase: the same configuration with the obs registry wired,
	// spans recorded and the CPU profiler on. Counts come from its first
	// rep, so they are exact and repeat for a seed.
	epoch := time.Now()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	var tracers []*tracer
	var trPhase phase
	start := time.Now()
	for len(trPhase.reps) < 2 || time.Since(start) < total/2 {
		tr := newTracer(epoch)
		out, err := b.rep(b.sp, false, checked.digest, tr, b.nextDraw())
		if err != nil {
			pprof.StopCPUProfile()
			return err
		}
		tl.add(out.tl)
		trPhase.reps = append(trPhase.reps, out)
		tracers = append(tracers, tr)
	}
	pprof.StopCPUProfile()
	fillEvents(&trPhase)
	samples, err := parseCPUProfile(prof.Bytes())
	if err != nil {
		return err
	}
	var spans []span
	for _, tr := range tracers {
		spans = append(spans, tr.spans...)
	}
	for _, r := range trPhase.reps {
		if r.readerSpans != nil {
			spans = append(spans, r.readerSpans...)
		}
	}
	if spansOut != "" {
		if err := writeSpans(spansOut, spans); err != nil {
			return err
		}
	}

	// Config toggles, measured in alternating pairs (toggled rep, base
	// rep) so a drift in host speed falls on both sides of each pair.
	marginal := map[string]float64{}
	speedup := 0.0
	for _, a := range ablations {
		sp := b.sp
		if !a.apply(&sp) {
			continue
		}
		var diffs, ratios []float64
		start := time.Now()
		for len(diffs) < 2 || time.Since(start) < total/4 {
			var pair [2]phase
			draw := b.nextDraw() // both sides of a pair see the same inputs
			for i, s := range []spec{sp, b.sp} {
				want := checked.digest
				if !sameAnswers(s, b.sp) {
					want = 0
				}
				out, err := b.rep(s, false, want, nil, draw)
				if err != nil {
					return fmt.Errorf("%s: %w", a.name, err)
				}
				tl.add(out.tl)
				pair[i].reps = []repOut{out}
				fillEvents(&pair[i])
			}
			diffs = append(diffs, pair[1].nsPerEvent()-pair[0].nsPerEvent())
			ratios = append(ratios, pair[1].eventsPerSec()/pair[0].eventsPerSec())
		}
		marginal[a.name] = median(diffs)
		if a.name == "workers-1" {
			speedup = median(ratios)
		}
	}

	rp, err := b.replays()
	if err != nil {
		return err
	}

	// Compose.
	runNS := base.nsPerEvent()
	rec.Digest = fmt.Sprintf("%016x", checked.digest)
	rec.Reps = len(base.reps) + len(trPhase.reps)
	rec.tally = tl
	rec.set("trace.overhead_ratio", base.eventsPerSec()/trPhase.eventsPerSec())
	rec.set("run.ns_per_event", runNS)
	for k, v := range tracers[0].counts {
		rec.set(k, v)
	}
	if tracers[0].counts == nil {
		return fmt.Errorf("traced rep recorded no counts")
	}
	rec.set("late_drop_ratio", checked.lossRate)
	rec.set("runtime.gc_cycles", float64(trPhase.reps[0].gcCycles))
	shares := cpuShares(samples)
	for _, l := range layerOrder {
		rec.set(shareMetric(l), shares[l])
	}

	rec.set("datagen.ns_per_event", rp.sourceNS)
	rec.set("stream.delay.ns_per_event", rp.delayNS)
	queue := 0.0
	if m, ok := marginal["delay-off"]; ok {
		queue = m - rp.delayNS
	}
	rec.set("stream.queue.ns_per_event", queue)
	rec.set("stream.decay.ns_per_event", marginal["decay-off"])
	rec.set("checkpoint.ns_per_event", marginal["checkpoint-off"])
	rec.set("budget.ns_per_event", marginal["budget-off"])
	rec.set("obs.ns_per_event", marginal["metrics-off"])
	rec.set("stream.parallel.speedup", speedup)
	for alg, ns := range rp.insertNS {
		rec.set(alg+".insert_ns", ns)
	}
	rec.set("concurrent.insert_ns", rp.sharedInsertNS)

	queryUS := rp.queryUS
	if q := durations(spans, spanWindowQuantiles); len(q) > 0 {
		queryUS = median(q) / 1e3
	}
	rec.set("sketch.query_us", queryUS)
	puts := durations(spans, spanCheckpointPut)
	rec.set("checkpoint.put_us_p50", median(puts)/1e3)
	rec.set("checkpoint.put_us_p99", quantile(puts, 0.99)/1e3)
	snaps := durations(spans, spanReaderSnapshot)
	rec.set("concurrent.snapshot_us_p50", median(snaps)/1e3)
	rec.set("concurrent.snapshot_us_p99", quantile(snaps, 0.99)/1e3)

	gaps := base.gaps()
	rec.set("window_ms_p50", median(gaps))
	rec.set("window_ms_p99", tailQuantile(gaps))
	rec.set("window.samples", float64(len(gaps)))
	qs := base.queries()
	rec.set("query_ms_p50", median(qs))
	rec.set("query_ms_p99", tailQuantile(qs))
	rec.set("query.samples", float64(len(qs)))
	rec.set("reader.lag_ms_max", base.readerLagMS())

	// The coordinator is the residual: the measured ns/event less every
	// layer measured by replay or toggle.
	windowsPerEvent := 0.0
	if len(base.reps) > 0 && base.reps[0].events > 0 {
		windowsPerEvent = float64(len(base.reps[0].gaps)+1) / float64(base.reps[0].events)
	}
	insert := rp.insertNS[b.sp.alg]
	if b.sp.accuracy {
		insert = 0
		for _, ns := range rp.insertNS {
			insert += ns
		}
	}
	queryNS := queryUS * 1e3 * windowsPerEvent
	rec.Extra = map[string]float64{"window_query_ns_per_event": queryNS}
	coord := runNS - rp.sourceNS - rp.delayNS - queue - insert -
		marginal["decay-off"] - marginal["checkpoint-off"] - marginal["budget-off"] - marginal["metrics-off"] - queryNS
	if b.sp.shared {
		coord -= rp.sharedInsertNS
	}
	rec.set("stream.coord.ns_per_event", coord)
	return nil
}

// replayResult holds the isolated per-event costs.
type replayResult struct {
	sourceNS       float64
	delayNS        float64
	insertNS       map[string]float64 // per algorithm
	sharedInsertNS float64
	queryUS        float64 // all five sketches' Quantiles on one window (paper-accuracy)
}

// timeNS times f, which does n operations, three times and returns the
// median ns per operation.
func timeNS(n int, f func()) float64 {
	var xs []float64
	for i := 0; i < 3; i++ {
		runtime.GC()
		start := time.Now()
		f()
		xs = append(xs, float64(time.Since(start))/float64(n))
	}
	return median(xs)
}

// replays time the per-event layers in isolation, through the same
// public functions and on identically seeded inputs, with the obs
// registry unwired so only the layer itself runs.
func (b *bench) replays() (replayResult, error) {
	core.EnableMetrics(nil)
	var rp replayResult
	n := b.sp.replayN
	var srcErr error
	rp.sourceNS = timeNS(n, func() {
		src, err := newSource(b.sp, b.srcSeed())
		if err != nil {
			srcErr = err
			return
		}
		for i := 0; i < n; i++ {
			sinkF += src.Next()
		}
	})
	if srcErr != nil {
		return rp, srcErr
	}
	rp.delayNS = timeNS(n, func() {
		d := newDelay(b.sp, b.delaySeed())
		for i := 0; i < n; i++ {
			sinkD += d.Delay()
		}
	})
	src, err := newSource(b.sp, b.srcSeed())
	if err != nil {
		return rp, err
	}
	vals := datagen.Take(src, n)
	bs, err := b.builders()
	if err != nil {
		return rp, err
	}
	// The serial engine inserts one value at a time; workers insert
	// batches of 256 through sketch.InsertAll.
	batched := b.sp.workers > 1
	rp.insertNS = map[string]float64{}
	for _, alg := range core.AlgorithmNames() {
		build := bs[alg]
		rp.insertNS[alg] = timeNS(n, func() {
			sk := build()
			if batched {
				for i := 0; i < n; i += 256 {
					sketch.InsertAll(sk, vals[i:i+256])
				}
			} else {
				for _, v := range vals {
					sk.Insert(v)
				}
			}
		})
	}
	rp.sharedInsertNS = timeNS(n, func() {
		w := concurrent.NewKLL(kll.DefaultK, 1, 0).Writer(0)
		for _, v := range vals {
			w.Insert(v)
		}
	})
	// One window's query cost for all five sketches, the emit work of
	// the harness workload.
	perWin := int(float64(50000) * 20 * b.sp.scale)
	if perWin < 1000 || perWin > n {
		perWin = n / 16
	}
	sks := make([]sketch.Sketch, 0, len(bs))
	for _, alg := range core.AlgorithmNames() {
		sk := bs[alg]()
		sketch.InsertAll(sk, vals[:perWin])
		sks = append(sks, sk)
	}
	var qErr error
	const queryReps = 50
	rp.queryUS = timeNS(queryReps, func() {
		for i := 0; i < queryReps; i++ {
			for _, sk := range sks {
				if _, err := sketch.Quantiles(sk, core.AllQuantiles()); err != nil {
					qErr = err
				}
			}
		}
	}) / 1e3
	return rp, qErr
}

// Sinks keep replayed results live so the compiler cannot drop the calls.
var (
	sinkF float64
	sinkD time.Duration
)
