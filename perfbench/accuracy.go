package main

import (
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/harness"
	"repro/internal/obs"
)

// accuracyOptions returns the harness options of the paper-accuracy
// workload: the Fig 6 pass with every stage serial.
func (b *bench) accuracyOptions(sp spec, draw int) harness.Options {
	opts := harness.DefaultOptions(sp.scale)
	opts.Runs = sp.runs
	opts.Windows = sp.accWins
	opts.Seed = b.seed
	if draw > 0 {
		opts.Seed = datagen.DeriveSeed(b.seed, 1000+draw)
	}
	opts.Parallel = 1
	opts.StreamWorkers = 1
	opts.EvalWorkers = 1
	return opts
}

// accuracyRep runs one harness.RunAccuracy pass on input draw draw: 0 is
// --seed itself, later draws derive fresh inputs from it. Set-up is the
// time from the call to the engine's first generated event, seen through
// the obs registry's generated counter (so it needs sp.metrics). want,
// when non-zero, is the table digest draw 0 must reproduce.
func (b *bench) accuracyRep(sp spec, draw int, want uint64, tr *tracer) (repOut, error) {
	var out repOut
	opts := b.accuracyOptions(sp, draw)
	var reg *obs.Registry
	if sp.metrics || tr != nil {
		reg = obs.NewRegistry()
		opts.Metrics = reg
	}
	if tr != nil {
		core.EnableMetrics(reg)
	} else {
		core.EnableMetrics(nil)
	}
	runtime.GC()
	var first chan time.Time
	stop := make(chan struct{})
	if reg != nil {
		first = make(chan time.Time, 1)
		ready := make(chan struct{})
		gen := &reg.Engine().Generated
		go func() {
			close(ready)
			for gen.Load() == 0 {
				select {
				case <-stop:
					close(first)
					return
				default:
				}
				// Yield so the spin never holds up the heap sampler or
				// a GC worker waiting for this P.
				runtime.Gosched()
			}
			first <- time.Now()
		}()
		<-ready
	}
	hs := startHeapSampler()
	alloc0, gc0 := runtimeTotals()
	start := time.Now()
	tbl, err := harness.RunAccuracy(opts, sp.dataset)
	end := time.Now()
	out.wall = end.Sub(start)
	alloc1, gc1 := runtimeTotals()
	out.heapPeak = hs.halt()
	close(stop)
	if first != nil {
		if at, ok := <-first; ok {
			out.setup = at.Sub(start)
		}
	}
	if tr != nil {
		tr.span(spanHarnessRun, start, end, -1)
	}
	if err != nil {
		return out, fmt.Errorf("%s: %w", sp.name, err)
	}
	out.alloc, out.gcCycles = alloc1-alloc0, gc1-gc0
	if reg != nil {
		out.events = reg.Engine().Generated.Load()
	}
	dg := newDigest()
	alphas := map[string]float64{core.AlgDD: core.DDSketchAlpha, core.AlgUDD: core.UDDSketchAlpha}
	for _, row := range tbl.Rows {
		for _, cell := range row {
			for _, c := range []byte(cell) {
				dg.word(uint64(c))
			}
		}
		if !out.tl.check(len(row) == 4, "accuracy table row %v: want sketch, mid, upper, p99", row) {
			continue
		}
		var errs [3]float64
		ok := true
		for i := range errs {
			v, perr := leadingFloat(row[i+1])
			if perr != nil {
				ok = false
			}
			errs[i] = v
		}
		if !out.tl.check(ok, "accuracy table row %v: unparsable error", row) {
			continue
		}
		// The mid group (Fig 6's headline): at this window size the
		// upper-tail errors of KLL and moments swing several-fold from
		// seed to seed, too much for a bounded metric.
		out.winErrs = append(out.winErrs, errs[0])
		if alpha, rel := alphas[row[0]]; rel {
			checkMidError(&out.tl, row[0], errs[0], alpha)
		}
	}
	out.tl.check(len(out.winErrs) == len(core.AlgorithmNames()), "accuracy table has %d sketches, want %d", len(out.winErrs), len(core.AlgorithmNames()))
	out.digest = dg.h
	if want != 0 && draw == 0 {
		checkDigest(&out.tl, out.digest, want)
	}
	if tr != nil {
		tr.readCounts(reg)
	}
	return out, nil
}

// leadingFloat parses the number a harness table cell starts with
// ("0.00123 ±0.00010").
func leadingFloat(cell string) (float64, error) {
	f := strings.Fields(cell)
	if len(f) == 0 {
		return 0, fmt.Errorf("empty cell")
	}
	return strconv.ParseFloat(f[0], 64)
}
