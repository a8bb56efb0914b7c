package stream

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/datagen"
	"repro/internal/faultinject"
	"repro/internal/kll"
	"repro/internal/sketch"
)

// recoveryCfg is the shared configuration of the crash-recovery tests:
// KLL makes the comparison strict (compaction coin flips depend on the
// exact insert sequence AND the exact RNG state, so a resume that
// diverged anywhere would show in the serialized sketches), and the
// exponential delay produces late drops, so the late-accounting state
// is exercised across the crash too.
func recoveryCfg(workers, partitions int) Config {
	return Config{
		WindowSize:    time.Second,
		Rate:          5000,
		NumWindows:    4,
		Partitions:    partitions,
		Workers:       workers,
		NewValues:     func() datagen.Source { return datagen.NewPareto(1, 1, 41) },
		NewDelay:      func() DelayModel { return NewExponentialDelay(150*time.Millisecond, 43) },
		Builder:       func() sketch.Sketch { return kll.NewWithSeed(128, 99) },
		CollectValues: true,
		Metrics:       testMetrics.Engine(),
	}
}

// mustRunCollect runs cfg without faults and returns the collected
// results and stats.
func mustRunCollect(t *testing.T, cfg Config) ([]WindowResult, Stats) {
	t.Helper()
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	results, stats, err := eng.RunCollect()
	if err != nil {
		t.Fatal(err)
	}
	return results, stats
}

// assertSameRun asserts two runs produced bit-identical windows and
// equal stats, and that the accounting identity held.
func assertSameRun(t *testing.T, label string, got []WindowResult, gotStats Stats, want []WindowResult, wantStats Stats) {
	t.Helper()
	if gotStats != wantStats {
		t.Errorf("%s: stats %+v, want %+v", label, gotStats, wantStats)
	}
	if gotStats.Generated != gotStats.Accepted+gotStats.DroppedLate+gotStats.RejectedInput {
		t.Errorf("%s: stats identity violated: %+v", label, gotStats)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d windows, want %d", label, len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.Index != w.Index || g.Start != w.Start || g.End != w.End ||
			g.Accepted != w.Accepted || g.DroppedLate != w.DroppedLate {
			t.Errorf("%s window %d: header %+v, want %+v", label, i, g, w)
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

// TestCrashRecoveryDeterminism is the fault-tolerance contract: a run
// that crashes (injected worker panic) and resumes from its last
// checkpoint produces windows bit-identical to an uninterrupted run,
// with the stats identity intact, across the workers × partitions
// matrix on both the serial and parallel paths. The baseline runs
// WITHOUT checkpointing, so this also proves snapshots are transparent
// to the results.
func TestCrashRecoveryDeterminism(t *testing.T) {
	for _, partitions := range []int{1, 4} {
		for _, workers := range []int{1, 4} {
			baseline, baseStats := mustRunCollect(t, recoveryCfg(workers, partitions))

			cfg := recoveryCfg(workers, partitions)
			cfg.CheckpointStore = checkpoint.NewMemStore()
			// Crash a worker that exists after clamping (workers >
			// partitions collapse to the serial path's worker 0) midway
			// through the run, after checkpoints exist.
			worker := 0
			if workers > 1 && partitions > 1 {
				worker = 1
			}
			cfg.Faults = faultinject.New().WithPanic(worker, 2500)

			results, stats, err := RunRecovering(cfg)
			if err != nil {
				t.Fatalf("workers=%d partitions=%d: %v", workers, partitions, err)
			}
			label := "recovered"
			assertSameRun(t, label, results, stats, baseline, baseStats)
			if got := cfg.Metrics.RecoveredPanics.Load(); got == 0 {
				t.Errorf("workers=%d partitions=%d: fault did not fire (RecoveredPanics=0)", workers, partitions)
			}
		}
	}
}

// paneRecoveryCfg is recoveryCfg in pane-sharing sliding mode: windows
// still 1 s long but starting every 500 ms, so snapshots carry sealed
// panes (retained for unfired overlapping windows) alongside the open
// ones, and restore must rebuild both plus the re-derived seal
// horizon.
func paneRecoveryCfg(workers, partitions int, lambda float64) Config {
	cfg := recoveryCfg(workers, partitions)
	cfg.Slide = 500 * time.Millisecond
	cfg.DecayLambda = lambda
	return cfg
}

// TestPaneCrashRecoveryDeterminism extends the fault-tolerance
// contract to pane-sharing sliding windows, undecayed and decayed: a
// crashed-and-resumed run is bit-identical to an uninterrupted one —
// including the pane decomposition each window reports — across the
// workers × partitions matrix.
func TestPaneCrashRecoveryDeterminism(t *testing.T) {
	for _, lambda := range []float64{0, 0.8} {
		for _, partitions := range []int{1, 4} {
			for _, workers := range []int{1, 4} {
				baseline, baseStats := mustRunCollect(t, paneRecoveryCfg(workers, partitions, lambda))

				cfg := paneRecoveryCfg(workers, partitions, lambda)
				cfg.CheckpointStore = checkpoint.NewMemStore()
				worker := 0
				if workers > 1 && partitions > 1 {
					worker = 1
				}
				cfg.Faults = faultinject.New().WithPanic(worker, 2500)

				results, stats, err := RunRecovering(cfg)
				if err != nil {
					t.Fatalf("lambda=%v workers=%d partitions=%d: %v", lambda, workers, partitions, err)
				}
				assertSameRun(t, "pane-recovered", results, stats, baseline, baseStats)
				assertSameWindows(t, "pane-recovered", results, baseline)
				if cfg.Metrics.RecoveredPanics.Load() == 0 {
					t.Errorf("lambda=%v workers=%d partitions=%d: fault did not fire", lambda, workers, partitions)
				}
			}
		}
	}
}

// TestTumblingRejectsPaneSnapshot asserts the mode guard on restore: a
// snapshot taken by a sliding run holds pane state a tumbling engine
// cannot interpret, so resuming it with Slide = 0 must fail as corrupt
// rather than silently misreading pane indices as window indices.
func TestTumblingRejectsPaneSnapshot(t *testing.T) {
	cfg := paneRecoveryCfg(1, 4, 0)
	store := checkpoint.NewMemStore()
	cfg.CheckpointStore = store
	mustRunCollect(t, cfg)

	cfg.Slide = 0
	_, err := Resume(cfg, func(WindowResult) {})
	if !errors.Is(err, checkpoint.ErrCorrupt) {
		t.Fatalf("got %v, want ErrCorrupt", err)
	}
}

// TestRecoveryBeforeFirstCheckpoint crashes before any window fires:
// the store is empty, so RunRecovering must fall back to a clean
// restart — which cannot re-crash, because faults are one-shot.
func TestRecoveryBeforeFirstCheckpoint(t *testing.T) {
	baseline, baseStats := mustRunCollect(t, recoveryCfg(1, 4))

	cfg := recoveryCfg(1, 4)
	cfg.CheckpointStore = checkpoint.NewMemStore()
	cfg.Faults = faultinject.New().WithPanic(0, 10)
	results, stats, err := RunRecovering(cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertSameRun(t, "restarted", results, stats, baseline, baseStats)
}

// TestResumeContinuesCompletedStore exercises the explicit Resume entry
// point: after a full checkpointed run, Resume restores the newest
// snapshot and re-emits exactly the windows fired after it,
// bit-identical to the original emissions.
func TestResumeContinuesCompletedStore(t *testing.T) {
	cfg := recoveryCfg(1, 4)
	store := checkpoint.NewMemStore()
	cfg.CheckpointStore = store
	baseline, baseStats := mustRunCollect(t, cfg)

	snap, seq, skipped, err := checkpoint.LatestValid(store)
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 0 {
		t.Fatalf("clean store reports %d corrupt snapshots", skipped)
	}
	if int(snap.NextFire) >= cfg.NumWindows {
		t.Fatalf("latest snapshot (seq %d) has nothing left to fire", seq)
	}

	var resumed []WindowResult
	stats, err := Resume(cfg, func(r WindowResult) { resumed = append(resumed, r) })
	if err != nil {
		t.Fatal(err)
	}
	if stats != baseStats {
		t.Errorf("resumed stats %+v, want %+v", stats, baseStats)
	}
	assertResumedTail(t, "resumed", resumed, baseline, snap.NextFire)
}

// TestCorruptCheckpointFallback damages the newest checkpoint on its
// way into the store, then crashes: recovery must skip the corrupt
// snapshot (checksum validation), fall back to the previous valid one,
// and still converge to the uninterrupted result.
func TestCorruptCheckpointFallback(t *testing.T) {
	for _, mode := range []string{faultinject.CorruptTruncate, faultinject.CorruptBitflip} {
		baseline, baseStats := mustRunCollect(t, recoveryCfg(1, 4))

		cfg := recoveryCfg(1, 4)
		// Corrupt the seq-2 snapshot (after the second window fires) and
		// panic during window 3, so the newest snapshot at crash time is
		// the corrupt one.
		cfg.Faults = faultinject.New().
			WithCorruptCheckpoint(2, mode).
			WithPanic(0, 11_000)
		cfg.CheckpointStore = cfg.Faults.WrapStore(checkpoint.NewMemStore())

		results, stats, err := RunRecovering(cfg)
		if err != nil {
			t.Fatalf("mode=%s: %v", mode, err)
		}
		assertSameRun(t, "fallback-"+mode, results, stats, baseline, baseStats)
	}
}

// TestResumeAllCorrupt asserts the clean-error contract: when every
// stored snapshot fails validation, Resume reports an error wrapping
// checkpoint.ErrNoSnapshot — never a panic, never a silent fresh run.
func TestResumeAllCorrupt(t *testing.T) {
	store := checkpoint.NewMemStore()
	if err := store.Put(1, []byte("not a snapshot")); err != nil {
		t.Fatal(err)
	}
	blob, err := checkpoint.Seal("engine-snapshot", []byte{0xff, 0xff, 0xff})
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)-1] ^= 0x01 // break the checksum
	if err := store.Put(2, blob); err != nil {
		t.Fatal(err)
	}
	cfg := recoveryCfg(1, 4)
	cfg.CheckpointStore = store
	_, err = Resume(cfg, func(WindowResult) {})
	if !errors.Is(err, checkpoint.ErrNoSnapshot) {
		t.Fatalf("got %v, want ErrNoSnapshot", err)
	}
}

// TestResumeWrongSketch asserts a snapshot taken with one sketch family
// cannot be restored into an engine building another.
func TestResumeWrongSketch(t *testing.T) {
	cfg := recoveryCfg(1, 4)
	store := checkpoint.NewMemStore()
	cfg.CheckpointStore = store
	mustRunCollect(t, cfg)

	cfg.Builder = ddBuilder
	_, err := Resume(cfg, func(WindowResult) {})
	if err == nil {
		t.Fatal("resume with a different builder succeeded")
	}
}

// TestDuplicateBatchDelivery injects a duplicated batch on the parallel
// path: the workers' per-partition sequence numbers must drop the
// second copy, keeping the run bit-identical to the clean baseline.
func TestDuplicateBatchDelivery(t *testing.T) {
	baseline, baseStats := mustRunCollect(t, recoveryCfg(4, 4))

	cfg := recoveryCfg(4, 4)
	cfg.Faults = faultinject.New().WithDuplicateBatch(5)
	results, stats := mustRunCollect(t, cfg)
	assertSameRun(t, "deduped", results, stats, baseline, baseStats)
}

// TestStallFault stalls one partition mid-run: pure backpressure, no
// state loss, results bit-identical.
func TestStallFault(t *testing.T) {
	baseline, baseStats := mustRunCollect(t, recoveryCfg(4, 4))

	cfg := recoveryCfg(4, 4)
	cfg.Faults = faultinject.New().WithStall(1, 500, 20*time.Millisecond)
	results, stats := mustRunCollect(t, cfg)
	assertSameRun(t, "stalled", results, stats, baseline, baseStats)
}

// TestWorkerPanicSurfacesAsError asserts a worker panic without
// recovery configured aborts the run with a *PanicError (not a crash,
// not a deadlock) naming the panicking worker.
func TestWorkerPanicSurfacesAsError(t *testing.T) {
	cfg := recoveryCfg(4, 4)
	cfg.Faults = faultinject.New().WithPanic(2, 100)
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = eng.RunCollect()
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("got %v, want *PanicError", err)
	}
	if pe.Worker != 2 {
		t.Errorf("panic attributed to worker %d, want 2", pe.Worker)
	}
}

// TestCheckpointCadence asserts CheckpointEvery thins the snapshot
// stream: every=2 over 4 windows stores roughly half the snapshots of
// every=1.
func TestCheckpointCadence(t *testing.T) {
	count := func(every int) int {
		cfg := recoveryCfg(1, 2)
		store := checkpoint.NewMemStore()
		cfg.CheckpointStore = store
		cfg.CheckpointEvery = every
		mustRunCollect(t, cfg)
		seqs, err := store.Seqs()
		if err != nil {
			t.Fatal(err)
		}
		return len(seqs)
	}
	dense, sparse := count(1), count(2)
	if dense == 0 || sparse == 0 {
		t.Fatalf("no snapshots stored (dense=%d sparse=%d)", dense, sparse)
	}
	if sparse >= dense {
		t.Errorf("CheckpointEvery=2 stored %d snapshots, CheckpointEvery=1 stored %d", sparse, dense)
	}
}

// resumeFromSnapshot encodes snap into a fresh store and resumes cfg
// from it, returning the windows fired after the snapshot point.
func resumeFromSnapshot(t *testing.T, cfg Config, snap *checkpoint.Snapshot) ([]WindowResult, Stats, error) {
	t.Helper()
	data, err := checkpoint.EncodeSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	store := checkpoint.NewMemStore()
	if err := store.Put(snap.Seq, data); err != nil {
		t.Fatal(err)
	}
	cfg.CheckpointStore = store
	var out []WindowResult
	stats, err := Resume(cfg, func(r WindowResult) { out = append(out, r) })
	return out, stats, err
}

// midRunSnapshot runs cfg with checkpoints and returns a stored
// snapshot that still has windows to fire and events in flight.
func midRunSnapshot(t *testing.T, cfg Config) *checkpoint.Snapshot {
	t.Helper()
	store := checkpoint.NewMemStore()
	cfg.CheckpointStore = store
	mustRunCollect(t, cfg)
	seqs, err := store.Seqs()
	if err != nil {
		t.Fatal(err)
	}
	for _, seq := range seqs {
		data, err := store.Get(seq)
		if err != nil {
			t.Fatal(err)
		}
		snap, err := checkpoint.DecodeSnapshot(data)
		if err != nil {
			t.Fatal(err)
		}
		if int(snap.NextFire) < cfg.NumWindows-1 && len(snap.InFlight) > 1 {
			return snap
		}
	}
	t.Fatal("no mid-run snapshot with events in flight")
	return nil
}

// assertResumedTail asserts resumed equals the baseline's windows from
// the snapshot point on, bit for bit.
func assertResumedTail(t *testing.T, label string, resumed []WindowResult, baseline []WindowResult, nextFire int64) {
	t.Helper()
	want := baseline[nextFire:]
	if len(resumed) != len(want) {
		t.Fatalf("%s: resume emitted %d windows, want %d", label, len(resumed), len(want))
	}
	for i, w := range want {
		g := resumed[i]
		if g.Index != w.Index || g.Start != w.Start || g.End != w.End || g.Accepted != w.Accepted {
			t.Errorf("%s window %d: header %+v, want %+v", label, w.Index, g, w)
		}
		if len(g.Values) != len(w.Values) {
			t.Fatalf("%s window %d: %d values, want %d", label, w.Index, len(g.Values), len(w.Values))
		}
		for j := range w.Values {
			if g.Values[j] != w.Values[j] {
				t.Fatalf("%s window %d value %d: %v, want %v", label, w.Index, j, g.Values[j], w.Values[j])
			}
		}
		if !bytes.Equal(marshal(t, g.Sketch), marshal(t, w.Sketch)) {
			t.Errorf("%s window %d: sketch differs", label, w.Index)
		}
	}
}

// TestSnapshotInFlightInPopOrder pins the snapshot's in-flight layout:
// events are written in Before order (a sorted slice is also a valid
// binary min-heap, so binaries that adopt the slice as their heap
// verbatim read it too).
func TestSnapshotInFlightInPopOrder(t *testing.T) {
	cfg := recoveryCfg(1, 4)
	store := checkpoint.NewMemStore()
	cfg.CheckpointStore = store
	mustRunCollect(t, cfg)
	seqs, err := store.Seqs()
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, seq := range seqs {
		data, err := store.Get(seq)
		if err != nil {
			t.Fatal(err)
		}
		snap, err := checkpoint.DecodeSnapshot(data)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(snap.InFlight); i++ {
			a, b := snap.InFlight[i-1], snap.InFlight[i]
			if a.Arrival > b.Arrival || (a.Arrival == b.Arrival && a.Gen >= b.Gen) {
				t.Fatalf("snapshot %d: in-flight events %d and %d out of pop order", seq, i-1, i)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no snapshot held two or more in-flight events")
	}
}

// TestResumeHeapOrderSnapshot is the compatibility contract with
// snapshots that store the in-flight events as a binary heap's backing
// slice (heap order, not sorted): resuming one is bit-identical to the
// uninterrupted run.
func TestResumeHeapOrderSnapshot(t *testing.T) {
	cfg := recoveryCfg(1, 4)
	baseline, baseStats := mustRunCollect(t, cfg)
	snap := midRunSnapshot(t, cfg)

	// Push in reverse pop order: the heap's slice is then valid but
	// far from sorted.
	var h minHeap[Event]
	for i := len(snap.InFlight) - 1; i >= 0; i-- {
		ev := snap.InFlight[i]
		h.Push(Event{GenTime: time.Duration(ev.Gen), Arrival: time.Duration(ev.Arrival), Value: ev.Value, Partition: int(ev.Partition)})
	}
	sorted := true
	for i, ev := range h.data {
		snap.InFlight[i] = checkpoint.Event{Gen: int64(ev.GenTime), Arrival: int64(ev.Arrival), Value: ev.Value, Partition: int64(ev.Partition)}
		if i > 0 && ev.Before(h.data[i-1]) {
			sorted = false
		}
	}
	if sorted {
		t.Fatal("heap-order in-flight slice came out sorted; the test needs an unsorted one")
	}
	resumed, stats, err := resumeFromSnapshot(t, cfg, snap)
	if err != nil {
		t.Fatal(err)
	}
	if stats != baseStats {
		t.Errorf("resumed stats %+v, want %+v", stats, baseStats)
	}
	assertResumedTail(t, "heap-order", resumed, baseline, snap.NextFire)
}

// TestResumeRejectsCorruptInFlight feeds restore snapshots whose
// in-flight events no run could hold. Each must be refused with
// checkpoint.ErrCorrupt before the run starts, instead of panicking in
// the sink (a partition out of range) or replaying an impossible
// stream.
func TestResumeRejectsCorruptInFlight(t *testing.T) {
	cfg := recoveryCfg(1, 4)
	interval := time.Second / time.Duration(cfg.Rate)
	for _, tc := range []struct {
		name   string
		mutate func(snap *checkpoint.Snapshot, ev *checkpoint.Event)
	}{
		{"partition -1", func(_ *checkpoint.Snapshot, ev *checkpoint.Event) { ev.Partition = -1 }},
		{"partition = Partitions", func(_ *checkpoint.Snapshot, ev *checkpoint.Event) { ev.Partition = int64(cfg.Partitions) }},
		{"arrival before generation", func(_ *checkpoint.Snapshot, ev *checkpoint.Event) { ev.Arrival = ev.Gen - 1 }},
		{"generated after the last draw", func(snap *checkpoint.Snapshot, ev *checkpoint.Event) {
			ev.Gen = snap.Drawn * int64(interval)
			ev.Arrival = ev.Gen
		}},
	} {
		snap := midRunSnapshot(t, cfg)
		tc.mutate(snap, &snap.InFlight[len(snap.InFlight)-1])
		_, _, err := resumeFromSnapshot(t, cfg, snap)
		var pe *PanicError
		if errors.As(err, &pe) {
			t.Fatalf("%s: restore let the event through and the run panicked: %v", tc.name, err)
		}
		if !errors.Is(err, checkpoint.ErrCorrupt) {
			t.Fatalf("%s: got %v, want ErrCorrupt", tc.name, err)
		}
	}
}

// TestCrashRecoveryPastQueueHorizon runs delays beyond the arrival
// queue's ring, so events go through the spill heap and migrate back:
// a constant delay of twice the horizon (every event spills) and an
// exponential delay whose mean is three horizons. The Stats identity
// must hold and a crashed-and-resumed run must be bit-identical to an
// uninterrupted one.
func TestCrashRecoveryPastQueueHorizon(t *testing.T) {
	base := recoveryCfg(1, 4)
	base.Rate = 50_000
	base.WindowSize = 200 * time.Millisecond
	base.NumWindows = 5
	// At least the ring's reach: a bucket spans at most
	// queueBucketIntervals source intervals.
	horizon := time.Second / time.Duration(base.Rate) * queueBucketIntervals * queueBuckets
	for _, tc := range []struct {
		name  string
		delay func() DelayModel
	}{
		{"constant", func() DelayModel { return ConstantDelay{D: 2 * horizon} }},
		{"exponential", func() DelayModel { return NewExponentialDelay(3*horizon, 43) }},
	} {
		cfg := base
		cfg.NewDelay = tc.delay
		baseline, baseStats := mustRunCollect(t, cfg)
		if baseStats.Accepted < 100 {
			t.Fatalf("%s: only %d events accepted", tc.name, baseStats.Accepted)
		}

		cfg.CheckpointStore = checkpoint.NewMemStore()
		cfg.Faults = faultinject.New().WithPanic(0, baseStats.Accepted/2)
		results, stats, err := RunRecovering(cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		assertSameRun(t, tc.name, results, stats, baseline, baseStats)

		cfg.Faults = nil
		snap := midRunSnapshot(t, cfg)
		resumed, stats, err := resumeFromSnapshot(t, cfg, snap)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if stats != baseStats {
			t.Errorf("%s: resumed stats %+v, want %+v", tc.name, stats, baseStats)
		}
		assertResumedTail(t, tc.name, resumed, baseline, snap.NextFire)
	}
}

// sealFailSketch refuses to serialize, naming the first value it was
// given, so a snapshot's error tells which partition sketch was sealed
// first.
type sealFailSketch struct {
	sketch.Sketch
	first float64
	n     int
}

func (s *sealFailSketch) Insert(v float64) {
	if s.n == 0 {
		s.first = v
	}
	s.n++
	s.Sketch.Insert(v)
}

func (s *sealFailSketch) Merge(o sketch.Sketch) error {
	return s.Sketch.Merge(o.(*sealFailSketch).Sketch)
}

func (s *sealFailSketch) MarshalBinary() ([]byte, error) {
	return nil, fmt.Errorf("refusing to seal the sketch whose first value is %v", s.first)
}

// TestSnapshotSealErrorDeterministic: with several panes open and every
// seal failing, which failure a snapshot reports is a function of the
// configuration. Each worker seals its open sketches in ascending
// (window, partition) order and the pool reports the lowest-numbered
// worker's error, so twenty runs return one error text.
func TestSnapshotSealErrorDeterministic(t *testing.T) {
	errs := map[string]int{}
	for range 20 {
		cfg := recoveryCfg(2, 4)
		cfg.Slide = cfg.WindowSize / 4
		// Panes stay open 600 ms past their end: when the first
		// snapshot is taken, three panes hold partition sketches.
		cfg.AllowedLateness = 600 * time.Millisecond
		cfg.Builder = func() sketch.Sketch { return &sealFailSketch{Sketch: kll.NewWithSeed(128, 99)} }
		cfg.CheckpointStore = checkpoint.NewMemStore()
		eng, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		_, _, err = eng.RunCollect()
		if err == nil {
			t.Fatal("run with unsealable sketches succeeded")
		}
		errs[err.Error()]++
	}
	if len(errs) != 1 {
		t.Errorf("20 runs returned %d distinct snapshot errors: %v", len(errs), errs)
	}
}
