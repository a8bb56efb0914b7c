package main

import (
	"fmt"
	"runtime"
	"time"
)

// phase is a run of reps of one configuration.
type phase struct {
	reps []repOut
}

// rep runs one rep of sp, the engine or the harness kind. draw selects
// the harness workload's inputs (see nextDraw); engine reps always replay
// --seed's inputs, so every rep must reproduce the checked answers.
func (b *bench) rep(sp spec, checked bool, want uint64, tr *tracer, draw int) (repOut, error) {
	if sp.accuracy {
		return b.accuracyRep(sp, draw, want, tr)
	}
	return b.engineRep(sp, checked, want, tr)
}

// nextDraw returns the input draw of the next measured rep. The
// paper-accuracy workload's cost depends on the heavy-tailed extremes of
// its Pareto draws (one seed ran 40% slower than another), so each of its
// reps draws fresh inputs derived from --seed, and the median over a
// run's reps stands for many draws instead of one.
func (b *bench) nextDraw() int {
	if !b.sp.accuracy {
		return 0
	}
	b.draws++
	return b.draws
}

// sameAnswers reports whether two configurations must produce identical
// answers: everything that shapes the data and the sketches matches. A
// budgeted run is deterministic per worker count only.
func sameAnswers(a, c spec) bool {
	same := a.dataset == c.dataset && a.alg == c.alg && a.window == c.window && a.slide == c.slide &&
		a.rate == c.rate && a.windows == c.windows && a.partitions == c.partitions &&
		a.delayMean == c.delayMean && a.decay == c.decay && a.budget == c.budget &&
		a.scale == c.scale && a.runs == c.runs && a.accWins == c.accWins
	if a.budget > 0 && a.workers != c.workers {
		return false
	}
	return same
}

// timedPhase runs reps of sp for at least d and at least minReps. Each
// rep's answers must reproduce want when sp answers like the base.
func (b *bench) timedPhase(sp spec, d time.Duration, minReps int, want uint64, tr *tracer, tl *tally) (phase, error) {
	var ph phase
	if !sameAnswers(sp, b.sp) {
		want = 0
	}
	start := time.Now()
	for len(ph.reps) < minReps || time.Since(start) < d {
		out, err := b.rep(sp, false, want, tr, b.nextDraw())
		if err != nil {
			return ph, err
		}
		tl.add(out.tl)
		ph.reps = append(ph.reps, out)
	}
	return ph, nil
}

// eventsPerSec is the median over reps of events per wall-second.
func (ph phase) eventsPerSec() float64 {
	xs := make([]float64, 0, len(ph.reps))
	for _, r := range ph.reps {
		if r.wall > 0 && r.events > 0 {
			xs = append(xs, float64(r.events)/r.wall.Seconds())
		}
	}
	return median(xs)
}

// nsPerEvent is the median wall nanoseconds per event.
func (ph phase) nsPerEvent() float64 {
	if e := ph.eventsPerSec(); e > 0 {
		return 1e9 / e
	}
	return 0
}

func (ph phase) allocPerEvent() float64 {
	xs := make([]float64, 0, len(ph.reps))
	for _, r := range ph.reps {
		if r.events > 0 {
			xs = append(xs, float64(r.alloc)/float64(r.events))
		}
	}
	return median(xs)
}

func (ph phase) heapPeakMB() float64 {
	xs := make([]float64, 0, len(ph.reps))
	for _, r := range ph.reps {
		xs = append(xs, float64(r.heapPeak)/(1<<20))
	}
	return median(xs)
}

func (ph phase) gaps() []float64 {
	var xs []float64
	for _, r := range ph.reps {
		xs = append(xs, durationsMS(r.gaps)...)
	}
	return xs
}

func (ph phase) queries() []float64 {
	var xs []float64
	for _, r := range ph.reps {
		xs = append(xs, durationsMS(r.queries)...)
	}
	return xs
}

func (ph phase) readerLagMS() float64 {
	var m time.Duration
	for _, r := range ph.reps {
		if r.readerLag > m {
			m = r.readerLag
		}
	}
	return float64(m) / 1e6
}

// setupProbes is how many set-up probes an engine run takes; the median
// is reported. Each probe starts right after a GC, the state a fresh
// workload starts in: back-to-back probes on a warm heap measured a
// microsecond or two whose median flipped between modes from one process
// to the next.
const setupProbes = 201

// setupSeconds measures set-up: engine workloads by probes, the harness
// workload by its reps (each of which starts from nothing).
func (b *bench) setupSeconds(timed phase) (float64, error) {
	var xs []float64
	if b.sp.accuracy {
		for _, r := range timed.reps {
			if r.setup > 0 {
				xs = append(xs, r.setup.Seconds())
			}
		}
	} else {
		for i := 0; i < setupProbes; i++ {
			runtime.GC()
			d, err := b.probeSetup(b.sp)
			if err != nil {
				return 0, err
			}
			xs = append(xs, d.Seconds())
		}
	}
	if len(xs) == 0 {
		return 0, fmt.Errorf("no set-up sample")
	}
	return median(xs), nil
}

// checkedRep runs the correctness pass: values collected and every
// window checked against the oracle. Its digest is the one every later
// rep of the same answers must reproduce.
func (b *bench) checkedRep(tl *tally) (repOut, error) {
	out, err := b.rep(b.sp, true, 0, nil, 0)
	if err != nil {
		return out, err
	}
	tl.add(out.tl)
	return out, nil
}

// relErrMean is the checked rep's relative error: the median over
// windows of the mean error across the percentile grid (for the harness,
// the median over sketches of the mid-quantile error). The median keeps
// the few windows a budget degradation or an unlucky compaction hits
// from swinging it.
func (r repOut) relErrMean() float64 {
	return median(r.winErrs)
}

// untraced measures the end-to-end metrics.
func (b *bench) untraced(seconds int, rec *record) error {
	var tl tally
	var setup float64
	var err error
	if !b.sp.accuracy {
		// Probe before anything else has grown the heap.
		if setup, err = b.setupSeconds(phase{}); err != nil {
			return err
		}
	}
	checked, err := b.checkedRep(&tl)
	if err != nil {
		return err
	}
	timed, err := b.timedPhase(b.sp, time.Duration(seconds)*time.Second, 3, checked.digest, nil, &tl)
	if err != nil {
		return err
	}
	if checked.events > 0 {
		for i := range timed.reps {
			if timed.reps[i].events == 0 {
				timed.reps[i].events = checked.events
			}
		}
	}
	if b.sp.accuracy {
		if setup, err = b.setupSeconds(timed); err != nil {
			return err
		}
	}
	rec.Digest = fmt.Sprintf("%016x", checked.digest)
	rec.Reps = len(timed.reps)
	for _, r := range timed.reps {
		rec.RepRates = append(rec.RepRates, float64(r.events)/r.wall.Seconds())
	}
	rec.tally = tl
	rec.set("setup_s", setup)
	rec.set("events_per_s", timed.eventsPerSec())
	rec.set("alloc_bytes_per_event", timed.allocPerEvent())
	rec.set("heap_live_peak_mb", timed.heapPeakMB())
	rec.set("rel_error_mean", checked.relErrMean())
	return nil
}
