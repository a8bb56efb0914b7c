package stream

import (
	"errors"
	"fmt"
	"runtime/debug"
	"sort"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/faultinject"
	"repro/internal/sketch"
)

// PanicError is the error an engine run returns when one of its
// goroutines panicked (an injected fault or a real bug): the run aborts
// but the process survives, and RunRecovering treats it as the signal
// that a restore-and-replay cycle is warranted.
type PanicError struct {
	// Worker is the panicking worker's index (0 is the engine goroutine
	// on the serial path), or -1 when unknown.
	Worker int
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack trace.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("stream: worker %d panicked: %v", e.Worker, e.Value)
}

// asPanicError converts a recovered panic value into a *PanicError,
// pulling the worker index out of injected faults.
func asPanicError(r any) *PanicError {
	if pe, ok := r.(*PanicError); ok {
		return pe
	}
	worker := -1
	if f, ok := r.(faultinject.Fault); ok {
		worker = f.Worker
	}
	return &PanicError{Worker: worker, Value: r, Stack: debug.Stack()}
}

// maybeSnapshot persists a checkpoint when the cadence says so. The
// drain loops pre-check sinceSnap >= CheckpointEvery before calling, so
// with checkpointing disabled (CheckpointEvery == math.MaxInt) the per-event cost
// is that one always-false inlined comparison, never a call.
func (rs *runState) maybeSnapshot() error {
	if rs.sinceSnap < rs.cfg.CheckpointEvery {
		return nil
	}
	rs.sinceSnap = 0
	if rs.cfg.SessionGap == 0 && rs.nextFire >= rs.cfg.NumWindows {
		// Every tracked window has fired; there is nothing left that a
		// resume could usefully replay.
		return nil
	}
	// Flushed here, not in snapshot: inserting is no part of the encode
	// path, which must stay a pure function of state.
	rs.flush()
	return rs.snapshot()
}

// snapshot captures the full run state — counters, watermark, late-drop
// map, the in-flight events in pop order, and every open window's
// engine-side state plus sealed per-partition sketch blobs — and puts
// it in the configured store under the fired-window sequence number.
func (rs *runState) snapshot() error {
	partials, err := rs.sink.snapshot()
	if err != nil {
		return err
	}
	snap := &checkpoint.Snapshot{
		Seq:           rs.fired,
		SketchName:    rs.builderName,
		Drawn:         rs.drawn,
		Watermark:     int64(rs.watermark),
		NextFire:      int64(rs.nextFire),
		Generated:     rs.stats.Generated,
		Accepted:      rs.stats.Accepted,
		DroppedLate:   rs.stats.DroppedLate,
		RejectedInput: rs.stats.RejectedInput,
		ShedBudget:    rs.stats.ShedBudget,
	}
	lateWins := make([]int, 0, len(rs.lateOf))
	for wi := range rs.lateOf {
		lateWins = append(lateWins, wi)
	}
	sort.Ints(lateWins)
	for _, wi := range lateWins {
		snap.LateWindows = append(snap.LateWindows, int64(wi))
		snap.LateDrops = append(snap.LateDrops, rs.lateOf[wi])
	}
	// In-flight events are stored in pop order. A sorted slice is also
	// a valid binary min-heap, so binaries that adopt the slice as their
	// heap verbatim read it too.
	inFlight := rs.inFlight.appendOrdered(make([]Event, 0, rs.inFlight.Len()))
	snap.InFlight = make([]checkpoint.Event, len(inFlight))
	for i, ev := range inFlight {
		snap.InFlight[i] = checkpoint.Event{
			Gen:       int64(ev.GenTime),
			Arrival:   int64(ev.Arrival),
			Value:     ev.Value,
			Partition: int64(ev.Partition),
		}
	}
	// Open windows ascending by key. A session contributes one entry
	// per sink key, in its own key order, all carrying its span; its
	// counters and values ride on the first. Sessions are disjoint, so
	// restore regroups consecutive entries by span.
	keys := make([]int, 0, len(rs.open))
	if rs.cfg.SessionGap > 0 {
		for _, w := range rs.sessions {
			keys = append(keys, w.keys...)
		}
	} else {
		for wi := range rs.open {
			keys = append(keys, wi)
		}
		sort.Ints(keys)
	}
	for _, key := range keys {
		w := rs.open[key]
		ws := checkpoint.WindowSnap{Index: int64(key), Start: int64(w.start), End: int64(w.end), Partials: partials[key]}
		if w.keys == nil || w.keys[0] == key {
			ws.Accepted = w.accepted
			if w.values != nil {
				ws.HasValues = true
				ws.Values = w.values
			}
		}
		snap.Windows = append(snap.Windows, ws)
	}
	// Sealed panes ride in the optional trailer, ascending; the Windows
	// section above already holds the open panes (keyed by pane index).
	// Only panes a later window still references are resident, so
	// tumbling and session runs write none. nextSeal is not stored —
	// every snapshot sits at a post-fire drain point, so it is always
	// paneEnd(nextFire-1) and restore re-derives it.
	paneIdx := make([]int, 0, len(rs.sealed))
	for j := range rs.sealed {
		paneIdx = append(paneIdx, j)
	}
	sort.Ints(paneIdx)
	for _, j := range paneIdx {
		sp := rs.sealed[j]
		ps := checkpoint.PaneSnap{Index: int64(j), Accepted: sp.accepted}
		if sp.values != nil {
			ps.HasValues = true
			ps.Values = sp.values
		}
		if sp.sketch != nil {
			sealed, err := sp.envelope()
			if err != nil {
				return err
			}
			ps.Sketch = sealed
		}
		snap.Panes = append(snap.Panes, ps)
	}
	data, err := checkpoint.EncodeSnapshot(snap)
	if err != nil {
		return fmt.Errorf("stream: checkpoint encode: %w", err)
	}
	if err := rs.cfg.CheckpointStore.Put(snap.Seq, data); err != nil {
		return fmt.Errorf("stream: checkpoint put: %w", err)
	}
	if rs.cfg.Metrics != nil {
		rs.cfg.Metrics.SnapshotsTaken.Inc()
		rs.cfg.Metrics.SnapshotBytes.Add(int64(len(data)))
	}
	return nil
}

// restore rebuilds the run state from a decoded snapshot: counters are
// adopted directly, in-flight events are re-queued, and partition
// sketches are unsealed and seeded into the sink. The fresh sources are
// fast-forwarded to the checkpointed offset by loop, under its panic
// recovery, so a source that panics during the replay fails the run
// with a *PanicError like any other source panic.
func (rs *runState) restore(snap *checkpoint.Snapshot) error {
	cfg := rs.cfg
	if snap.SketchName != rs.builderName {
		return fmt.Errorf("stream: snapshot holds %q sketches, engine builds %q", snap.SketchName, rs.builderName)
	}
	if snap.Drawn < 0 || snap.NextFire < 0 || (cfg.SessionGap == 0 && snap.NextFire > int64(cfg.NumWindows)) {
		return fmt.Errorf("stream: snapshot state out of range for this config: %w", checkpoint.ErrCorrupt)
	}
	rs.drawn = snap.Drawn
	rs.fired = snap.Seq
	rs.watermark = time.Duration(snap.Watermark)
	rs.nextFire = int(snap.NextFire)
	rs.stats = Stats{
		Generated:     snap.Generated,
		Accepted:      snap.Accepted,
		DroppedLate:   snap.DroppedLate,
		RejectedInput: snap.RejectedInput,
		ShedBudget:    snap.ShedBudget,
	}
	rs.pub = rs.stats // the run that took the snapshot published these
	for i := range snap.LateWindows {
		rs.lateOf[int(snap.LateWindows[i])] = snap.LateDrops[i]
	}
	// Events are pushed one by one, so any order restores the same
	// queue: pop order from current snapshots, heap order from older
	// ones. Each must be an event this run could have drawn and not
	// yet processed: a bad partition would index outside the sink.
	genLimit := rs.interval * time.Duration(snap.Drawn)
	for _, ev := range snap.InFlight {
		if ev.Partition < 0 || ev.Partition >= int64(cfg.Partitions) || ev.Arrival < ev.Gen || ev.Gen >= int64(genLimit) {
			return fmt.Errorf("stream: snapshot in-flight event (gen %d, arrival %d, partition %d) out of range: %w",
				ev.Gen, ev.Arrival, ev.Partition, checkpoint.ErrCorrupt)
		}
		rs.inFlight.Push(Event{
			GenTime:   time.Duration(ev.Gen),
			Arrival:   time.Duration(ev.Arrival),
			Value:     ev.Value,
			Partition: int(ev.Partition),
		})
	}
	// The Windows section holds open panes, so the index bound is the
	// pane count; session keys are draw numbers.
	trackLimit := rs.numPanes
	if cfg.SessionGap > 0 {
		trackLimit = int(snap.Drawn)
	} else if rs.nextFire > 0 {
		rs.nextSeal = rs.paneEnd(rs.nextFire - 1)
	}
	for i := range snap.Windows {
		ws := &snap.Windows[i]
		wi := int(ws.Index)
		if wi < 0 || wi >= trackLimit {
			return fmt.Errorf("stream: snapshot window %d out of range: %w", wi, checkpoint.ErrCorrupt)
		}
		w := &windowState{accepted: ws.Accepted, start: time.Duration(ws.Start), end: time.Duration(ws.End)}
		if ws.HasValues {
			w.values = ws.Values
		}
		if cfg.SessionGap > 0 {
			n := len(rs.sessions)
			switch {
			case n > 0 && rs.sessions[n-1].start == w.start && rs.sessions[n-1].end == w.end:
				w = rs.sessions[n-1]
				w.keys = append(w.keys, wi)
			case w.start >= w.end || (n > 0 && w.start < rs.sessions[n-1].end):
				return fmt.Errorf("stream: snapshot session %d is empty or overlaps its predecessor: %w", wi, checkpoint.ErrCorrupt)
			default:
				w.keys = []int{wi}
				rs.sessions = append(rs.sessions, w)
			}
		}
		rs.open[wi] = w
		if len(ws.Partials) == 0 {
			continue
		}
		if len(ws.Partials) != cfg.Partitions {
			return fmt.Errorf("stream: snapshot window %d holds %d partitions, config has %d", wi, len(ws.Partials), cfg.Partitions)
		}
		parts := make([]sketch.Sketch, cfg.Partitions)
		for pi, blob := range ws.Partials {
			if blob == nil {
				continue
			}
			sk, err := decodePartial(cfg.Builder, rs.builderName, blob)
			if err != nil {
				return err
			}
			parts[pi] = sk
		}
		rs.sink.restore(wi, parts)
	}
	for i := range snap.Panes {
		ps := &snap.Panes[i]
		j := int(ps.Index)
		// A post-fire snapshot holds only the sealed panes an unfired
		// window references. That range is empty for tumbling windows,
		// and for sessions, whose nextSeal stays 0.
		if j < rs.paneStart(rs.nextFire) || j >= rs.nextSeal {
			return fmt.Errorf("stream: snapshot pane %d out of range: %w", j, checkpoint.ErrCorrupt)
		}
		sp := &sealedPane{accepted: ps.Accepted}
		if ps.HasValues {
			sp.values = ps.Values
		}
		if ps.Sketch != nil {
			sk, err := decodePartial(cfg.Builder, rs.builderName, ps.Sketch)
			if err != nil {
				return err
			}
			sp.sketch = sk
		}
		rs.sealed[j] = sp
		rs.trackPane(j, sp)
	}
	if rs.cfg.Metrics != nil {
		rs.cfg.Metrics.Restores.Inc()
		rs.cfg.Metrics.ReplayedEvents.Add(snap.Drawn)
	}
	return nil
}

// decodePartial opens one sealed partition-sketch envelope and decodes
// it into a fresh builder product.
func decodePartial(builder sketch.Builder, wantName string, blob []byte) (sketch.Sketch, error) {
	name, payload, err := checkpoint.Open(blob)
	if err != nil {
		return nil, fmt.Errorf("stream: partial envelope: %w", err)
	}
	if name != wantName {
		return nil, fmt.Errorf("stream: partial envelope holds %q, want %q: %w", name, wantName, checkpoint.ErrCorrupt)
	}
	sk := builder()
	if err := sk.UnmarshalBinary(payload); err != nil {
		return nil, fmt.Errorf("stream: partial decode: %w", err)
	}
	return sk, nil
}

// checkResumable validates that cfg can support checkpoint resume.
func checkResumable(cfg Config, op string) error {
	if cfg.CheckpointStore == nil {
		return fmt.Errorf("stream: %s requires Config.CheckpointStore", op)
	}
	if cfg.NewValues == nil {
		return fmt.Errorf("stream: %s requires Config.NewValues (sources are forward-only; recovery re-derives the stream from a fresh source)", op)
	}
	return nil
}

// Resume restores the newest valid snapshot in cfg.CheckpointStore and
// runs the job to completion from there, invoking emit for each window
// fired after the snapshot point. The resumed run's remaining output is
// bit-identical to what the interrupted run would have produced:
// windows already fired before the snapshot are not re-emitted, and the
// returned Stats cover the whole logical run (checkpointed counters
// plus the replayed remainder). Corrupt or truncated snapshots are
// skipped (newest first); if none is usable the error wraps
// checkpoint.ErrNoSnapshot.
func Resume(cfg Config, emit func(WindowResult)) (Stats, error) {
	e, err := NewEngine(cfg)
	if err != nil {
		return Stats{}, err
	}
	if err := checkResumable(e.cfg, "Resume"); err != nil {
		return Stats{}, err
	}
	stats, _, err := e.resumeRun(emit)
	return stats, err
}

func (e *Engine) resumeRun(emit func(WindowResult)) (Stats, map[int]int64, error) {
	snap, _, _, err := checkpoint.LatestValid(e.cfg.CheckpointStore)
	if err != nil {
		return Stats{}, nil, err
	}
	return e.run(emit, snap)
}

// maxRecoveries bounds RunRecovering's restore-and-replay cycles; a
// fault plan is one-shot per fault, so any legitimate chaos run
// converges well below this.
const maxRecoveries = 8

// RunRecovering runs the job end-to-end with automatic crash recovery:
// when a run dies with a *PanicError (an injected fault or a worker
// bug), the newest valid checkpoint is restored and the run replayed
// from there — or restarted from scratch when no checkpoint was taken
// yet. Window results are collected by index, so a window re-fired
// after recovery simply overwrites its (bit-identical) first emission.
// Requires CheckpointStore and NewValues; per-window DroppedLate counts
// are patched in like RunCollect.
func RunRecovering(cfg Config) ([]WindowResult, Stats, error) {
	e, err := NewEngine(cfg)
	if err != nil {
		return nil, Stats{}, err
	}
	cfg = e.cfg
	if err := checkResumable(cfg, "RunRecovering"); err != nil {
		return nil, Stats{}, err
	}
	// Sized on demand: a session run emits as many windows as it has
	// sessions.
	var results []WindowResult
	var emitted []bool
	emit := func(r WindowResult) {
		for len(results) <= r.Index {
			results = append(results, WindowResult{})
			emitted = append(emitted, false)
		}
		results[r.Index] = r
		emitted[r.Index] = true
	}
	recoveries := 0
	stats, lateOf, err := e.run(emit, nil)
	for err != nil {
		var pe *PanicError
		if !errors.As(err, &pe) || recoveries >= maxRecoveries {
			return nil, Stats{}, err
		}
		recoveries++
		if met := cfg.Metrics; met != nil {
			met.RecoveredPanics.Inc()
		}
		stats, lateOf, err = e.resumeRun(emit)
		if errors.Is(err, checkpoint.ErrNoSnapshot) {
			// Crashed before the first checkpoint: replay from scratch.
			// One-shot fault semantics guarantee the restart does not
			// re-crash on the same event.
			stats, lateOf, err = e.run(emit, nil)
		}
	}
	if cfg.SessionGap == 0 && len(results) < cfg.NumWindows {
		return nil, Stats{}, fmt.Errorf("stream: window %d never fired", len(results))
	}
	for i := range results {
		if !emitted[i] {
			return nil, Stats{}, fmt.Errorf("stream: window %d never fired", i)
		}
		results[i].DroppedLate = lateOf[i]
	}
	return results, stats, nil
}
