package stream

import (
	"fmt"
	"math"
	"time"

	"repro/internal/sketch"
)

// Pane-based sharing for tumbling and sliding windows (DESIGN.md §15).
//
// A job with window length W and slide S (S = W for tumbling windows)
// decomposes the stream
// into non-overlapping panes of length g = gcd(W, S): every window is
// an exact union of W/g consecutive panes, and consecutive windows
// differ by S/g panes. Each accepted event is inserted once, into its
// pane's partition sketches; when a window fires, its constituent pane
// sketches are merged — ~W/S merges per window instead of re-inserting
// every event W/S times. Window starts sit on the slide lattice
// {m·S : m ∈ ℤ}, the first emitted window is the earliest one whose
// end is positive (m = 1 - ceil(W/S)), and nominal starts before the
// stream origin clamp to 0.
//
// A pane is sealed — its partition sketches pulled from the sink and
// merged into one immutable pane sketch — when the first window
// containing it fires. Sealed panes are retained until the last window
// referencing them fires, then evicted. Events arriving for a sealed
// pane are dropped late from every remaining window: the sharing
// trade-off. At S == W a pane is a window and sealing is firing, so the
// rule is the paper's tumbling drop-on-fire rule, and a window of one
// pane takes its sealed pane as it is.
//
// With DecayLambda > 0, window assembly down-weights each pane by
// exp(-λ·age), age being the seconds between the pane's end and the
// window's end. The newest pane has age 0 and is merged directly; an
// older pane's sealed sketch enters through sketch.CountScaler's
// MergeScaled, which adds the down-weighted counts without modifying
// the pane, so it stays exact for the later windows that still
// reference it. λ = 0 makes every weight 1 and is bit-identical to the
// undecayed sliding run.
//
// A sealed pane changes only when the budget governor degrades it or
// rung 2 folds a neighbour into it, so its checkpoint envelope is
// sealed once, on the first snapshot that needs it, and reused by
// every later snapshot until one of those two changes drops it.

// sealedPane is one sealed pane: its merged sketch (nil if the pane
// held engine-side state but no inserts) plus the engine-side
// counters, immutable until evicted except by the budget ladder.
type sealedPane struct {
	sketch   sketch.Sketch
	values   []float64
	accepted int64
	degrades int // budget degradations applied to this pane's sketch
	// sealed caches sealPartial(sketch) for snapshots; nil until the
	// first snapshot needs it and again after the sketch changes.
	sealed []byte
}

// envelope returns the pane sketch's checkpoint envelope, sealing it
// on first use.
func (sp *sealedPane) envelope() ([]byte, error) {
	if sp.sealed == nil {
		blob, err := sealPartial(sp.sketch)
		if err != nil {
			return nil, err
		}
		sp.sealed = blob
	}
	return sp.sealed, nil
}

// governedPane is a sealed pane as the budget governor sees it: the
// pane's sketch, whose Degrade drops the pane's cached envelope when
// the step changed the sketch. Dropping it here rather than in
// onDegrade also covers a step that changed the sketch but freed
// nothing, which onDegrade never hears of; a refused step (an error)
// leaves the sketch, and so the cache, as it was.
type governedPane struct {
	sketch.Sketch
	pane *sealedPane
}

// Degrade implements sketch.Degrader for the governor.
func (gp governedPane) Degrade() (int, error) {
	d, ok := gp.Sketch.(sketch.Degrader)
	if !ok {
		return 0, sketch.ErrNotDegradable
	}
	freed, err := d.Degrade()
	if err == nil {
		gp.pane.sealed = nil
	}
	return freed, err
}

// Footprint implements sketch.Footprinter for the governor, charging
// the wrapped sketch exactly what FootprintOf charges it unwrapped.
func (gp governedPane) Footprint() int { return sketch.FootprintOf(gp.Sketch) }

// trackPane hands sealed pane j's sketch to the budget governor, under
// the negative-id namespace (-1-j) that keeps it apart from the sink's
// open sketches.
func (rs *runState) trackPane(j int, sp *sealedPane) {
	if sp.sketch != nil && rs.gov != nil {
		rs.gov.Track(-1-int64(j), governedPane{sp.sketch, sp})
	}
}

// gcdDur is the greatest common divisor of two positive durations.
func gcdDur(a, b time.Duration) time.Duration {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// initPanes derives the pane geometry from WindowSize and Slide (which
// NewEngine has set to WindowSize when it was 0) and re-derives the run
// span: the run ends when the last window does, (NumWindows-1)·Slide +
// WindowSize after the origin, which is NumWindows·WindowSize for
// tumbling windows.
func (rs *runState) initPanes() {
	cfg := &rs.cfg
	g := gcdDur(cfg.WindowSize, cfg.Slide)
	rs.paneSize = g
	rs.panesPerGap = int(cfg.Slide / g)
	rs.panesPerWin = int(cfg.WindowSize / g)
	rs.firstOff = 1 - int((cfg.WindowSize+cfg.Slide-1)/cfg.Slide)
	rs.numPanes = rs.paneEnd(cfg.NumWindows - 1)
	rs.sealed = map[int]*sealedPane{}
	rs.runEnd = g * time.Duration(rs.numPanes)
}

// paneEnd is the exclusive pane bound of window k; the window's end
// time is paneEnd(k)·paneSize.
func (rs *runState) paneEnd(k int) int {
	return (rs.firstOff+k)*rs.panesPerGap + rs.panesPerWin
}

// paneStart is the inclusive first pane of window k, clamped to the
// stream origin for the early windows.
func (rs *runState) paneStart(k int) int {
	s := (rs.firstOff + k) * rs.panesPerGap
	if s < 0 {
		s = 0
	}
	return s
}

// lateWindowOf attributes a late event in sealed pane pi to the newest
// already-fired window containing that pane, for the per-window
// late-drop accounting.
func (rs *runState) lateWindowOf(pi int) int {
	k := pi/rs.panesPerGap - rs.firstOff
	if k > rs.nextFire-1 {
		k = rs.nextFire - 1
	}
	if k >= rs.cfg.NumWindows {
		k = rs.cfg.NumWindows - 1
	}
	return k
}

// routePaned classifies one event at time t: reject, late-drop (sealed
// pane), shed, or insert into its pane. The open map is keyed by pane
// index; the sink's window key is the pane index too.
func (rs *runState) routePaned(ev Event, t time.Duration) {
	pi := int(t / rs.paneSize)
	switch {
	case math.IsNaN(ev.Value) || math.IsInf(ev.Value, 0):
		// Poisoned payload: rejected before reaching any sketch or the
		// collected values. The event still advances the watermark in
		// process — its timestamp is sound. Counted only inside the
		// measured run (pi < numPanes ⟺ t < runEnd) so the Stats
		// identity stays exact.
		if pi >= 0 && pi < rs.numPanes {
			rs.stats.RejectedInput++
		}
	case pi < rs.nextSeal:
		// The pane was sealed when its first window fired: the event
		// is dropped from every window, including unfired ones — the
		// pane-sharing late rule (§15).
		if pi >= 0 {
			rs.lateOf[rs.lateWindowOf(pi)]++
			rs.stats.DroppedLate++
		}
	case pi < rs.numPanes:
		if rs.shedding {
			// Budget exhausted past every degradation rung: shed, count,
			// and let the event still advance the watermark in process.
			rs.stats.ShedBudget++
			return
		}
		w := rs.open[pi]
		if w == nil {
			w = &windowState{}
			if rs.cfg.CollectValues {
				w.values = make([]float64, 0, rs.paneValues)
			}
			rs.open[pi] = w
			if rs.cfg.Metrics != nil {
				rs.cfg.Metrics.PanesOpen.Set(int64(len(rs.open) + len(rs.sealed)))
			}
		}
		rs.insert(w, pi, ev)
	}
}

// sealPane pulls pane j's partition sketches from the sink (a fire
// barrier for that pane) and merges them, in partition order, into one
// immutable pane sketch. Panes that saw no events leave no entry.
func (rs *runState) sealPane(j int) error {
	w := rs.open[j]
	delete(rs.open, j)
	rs.flush()
	parts, sinkDeg := rs.sink.partials(j)
	if err := rs.sink.err(); err != nil {
		return err
	}
	var sk sketch.Sketch
	for _, p := range parts {
		if p == nil {
			continue
		}
		if sk == nil {
			sk = rs.cfg.Builder()
		}
		if err := sk.Merge(p); err != nil {
			return fmt.Errorf("stream: pane %d merge: %w", j, err)
		}
	}
	if sk == nil && w == nil {
		return nil
	}
	sp := &sealedPane{sketch: sk, degrades: sinkDeg}
	if w != nil {
		sp.values = w.values
		sp.accepted = w.accepted
		rs.paneValues = len(w.values)
	}
	rs.sealed[j] = sp
	// Sealed panes stay resident until evicted, so the governor tracks
	// them too.
	rs.trackPane(j, sp)
	return nil
}

// mergePanes assembles window r from panes [startPane, endPane) by
// merging them oldest-first into a fresh sketch (down-weighted under
// decay), recording each pane's accepted count in r.PaneCounts.
func (rs *runState) mergePanes(r *WindowResult, startPane, endPane int) error {
	merged := rs.cfg.Builder()
	r.Sketch = merged
	r.PaneCounts = make([]int, 0, endPane-startPane)
	if rs.cfg.CollectValues {
		n := 0
		for j := startPane; j < endPane; j++ {
			if sp := rs.sealed[j]; sp != nil {
				n += len(sp.values)
			}
		}
		if n > 0 {
			r.Values = make([]float64, 0, n)
		}
	}
	for j := startPane; j < endPane; j++ {
		sp := rs.sealed[j]
		if sp == nil {
			r.PaneCounts = append(r.PaneCounts, 0)
			continue
		}
		r.PaneCounts = append(r.PaneCounts, int(sp.accepted))
		r.Accepted += sp.accepted
		r.Degradations += sp.degrades
		if rs.cfg.CollectValues {
			r.Values = append(r.Values, sp.values...)
		}
		if sp.sketch == nil {
			continue
		}
		var err error
		if g := rs.paneWeight(j, r.End); g < 1 {
			err = merged.(sketch.CountScaler).MergeScaled(sp.sketch, g)
		} else {
			err = merged.Merge(sp.sketch)
		}
		if err != nil {
			return fmt.Errorf("stream: window %d pane merge: %w", r.Index, err)
		}
		if rs.cfg.Metrics != nil {
			rs.cfg.Metrics.PaneMerges.Inc()
		}
	}
	return nil
}

// paneWeight is pane j's decay weight when merged into a window ending
// at endT: exp(-λ·age) with age the seconds from the pane's end to the
// window's end. The window's newest pane has age 0 and weight 1.
func (rs *runState) paneWeight(j int, endT time.Duration) float64 {
	if rs.cfg.DecayLambda == 0 {
		return 1
	}
	age := (endT - rs.paneSize*time.Duration(j+1)).Seconds()
	return math.Exp(-rs.cfg.DecayLambda * age)
}

// firePaned fires window k: seal every pane the fire makes immutable,
// assemble the window from its panes, emit, and evict panes no
// remaining window references.
func (rs *runState) firePaned(k int) error {
	endPane := rs.paneEnd(k)
	for j := rs.nextSeal; j < endPane; j++ {
		if err := rs.sealPane(j); err != nil {
			return err
		}
	}
	rs.nextSeal = endPane
	startPane := rs.paneStart(k)
	r := WindowResult{
		Index: k,
		Start: rs.paneSize * time.Duration(startPane),
		End:   rs.paneSize * time.Duration(endPane),
	}
	if rs.panesPerWin == 1 {
		// A window of one pane takes the pane as it is: no other window
		// references it, so its sketch and values need no copy, and
		// Builder is called only when the pane holds no sketch — one
		// call per window, as when a window merged its partitions into
		// a fresh sketch.
		if sp := rs.sealed[startPane]; sp != nil {
			r.Sketch, r.Values, r.Accepted, r.Degradations = sp.sketch, sp.values, sp.accepted, sp.degrades
		}
		if r.Sketch == nil {
			r.Sketch = rs.cfg.Builder()
		}
	} else if err := rs.mergePanes(&r, startPane, endPane); err != nil {
		return err
	}
	rs.emitWindow(r)
	// Evict panes below the next window's start — no remaining window
	// references them. After the last window everything goes.
	keep := rs.numPanes
	if k+1 < rs.cfg.NumWindows {
		keep = rs.paneStart(k + 1)
	}
	for j := range rs.sealed {
		if j < keep {
			delete(rs.sealed, j)
			rs.gov.Untrack(-1 - int64(j))
		}
	}
	if rs.cfg.Metrics != nil {
		rs.cfg.Metrics.PanesOpen.Set(int64(len(rs.open) + len(rs.sealed)))
	}
	return nil
}
