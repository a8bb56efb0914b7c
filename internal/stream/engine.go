package stream

import (
	"errors"
	"fmt"
	"math"
	"os"
	"slices"
	"sync"
	"time"

	"repro/internal/budget"
	"repro/internal/checkpoint"
	"repro/internal/concurrent"
	"repro/internal/datagen"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/sketch"
)

// Config describes one streaming run: a source emitting Rate events/s for
// the run's duration, event-time windows — tumbling windows of
// WindowSize by default, sliding windows with Slide, session windows
// with SessionGap — and a sketch under test.
type Config struct {
	// WindowSize is the tumbling window length (the study uses 20 s, with
	// 5 s and 10 s in the sensitivity analysis, Sec 4.7).
	WindowSize time.Duration
	// Slide, when in (0, WindowSize), switches the engine to sliding
	// windows of length WindowSize starting every Slide, computed by
	// pane-based sharing: events are inserted once into a sketch for
	// their non-overlapping pane of length gcd(WindowSize, Slide), and
	// each window is answered by merging its ~WindowSize/Slide
	// constituent panes instead of recomputing them. 0 means
	// WindowSize: tumbling windows, the one-pane case of the same path,
	// where each window is its single pane taken as it is. Window
	// starts sit on the slide lattice; the early windows whose nominal
	// start precedes the stream origin are emitted with Start clamped
	// to 0 (DESIGN.md §15). NumWindows counts emitted windows, so the
	// run spans (NumWindows-1)·Slide + WindowSize of event time. A pane
	// is sealed when the first window containing it fires; events
	// arriving for a sealed pane are dropped late from every remaining
	// window (the sharing trade-off, also §15).
	Slide time.Duration
	// DecayLambda, when positive, applies exponential time decay at
	// window assembly: each pane's sketch is down-weighted by
	// exp(-DecayLambda·age) before merging, where age is the gap in
	// seconds between the pane's end and the window's end (the newest
	// pane always has weight 1). Requires sliding mode (0 < Slide <
	// WindowSize) and a Builder whose product implements
	// sketch.CountScaler — the window merges each older pane through
	// MergeScaled, which adds the down-weighted counts without
	// modifying the pane, so the pane stays exact for later windows. 0
	// disables decay; a DecayLambda of 0 is bit-identical to the
	// undecayed sliding run.
	DecayLambda float64
	// SessionGap, when positive, switches the engine to session windows
	// (paper Sec 2.5): an event at time t opens the proto-window
	// [t, t+SessionGap), which merges with every open session it
	// overlaps, so a session spans [first event, last event +
	// SessionGap) and closes after SessionGap of inactivity. Sessions
	// fire in end order once the watermark passes their end, with
	// WindowResult.Index the emission sequence number. The run still
	// spans NumWindows·WindowSize of event time; WindowSize plays no
	// other role. Excludes sliding mode. Late drops are counted in
	// Stats.DroppedLate only: a late event's proto-window belongs to no
	// emitted session, so WindowResult.DroppedLate stays 0.
	SessionGap time.Duration
	// AllowedLateness holds the watermark this far behind the largest
	// event time seen, for every window type: a window fires once an
	// event at or past End+AllowedLateness is processed, so events up
	// to AllowedLateness late are still admitted. It only delays
	// firing — a fired window never re-fires, and its later events are
	// dropped late. 0 reproduces the paper's drop-on-fire behaviour.
	AllowedLateness time.Duration
	// UseIngestionTime windows events (and advances the watermark) by
	// arrival instead of generation time — the alternative grouping of
	// paper Sec 2.5. Arrival order is watermark order, so nothing is
	// ever late, at the cost of windows no longer describing when
	// events happened. The run end is read on the same clock: an event
	// generated before NumWindows·WindowSize that arrives after it is a
	// grace-period event, outside Stats like one generated after it.
	UseIngestionTime bool
	// Rate is the source's event rate in events per second (study: 50,000).
	Rate int
	// NumWindows is how many complete windows to run. The engine emits
	// exactly this many results; the source runs long enough to close the
	// final window.
	NumWindows int
	// Partitions is the number of partition-local sketches the stream is
	// split across; they are merged when a window fires. 1 disables
	// partitioning (a single sketch per window).
	Partitions int
	// Workers is the number of goroutines running the partition-local
	// sketch inserts. On every path the engine collects each
	// partition's accepted events into batches of up to 256. 0 or 1
	// runs everything on the caller's goroutine, whose store holds every
	// partition's sketches and inserts each batch inline; higher values
	// give worker w the store of the partitions p with p % Workers == w,
	// fed the batches over a channel, with windows fired at
	// deterministic barrier points, so results are bit-identical to the
	// serial path at any worker count. Workers above Partitions are
	// clamped (each partition is owned by exactly one worker): the clamp
	// increments Metrics.WorkersClamped and is reported once per process
	// on stderr, since a silently reduced worker count is otherwise
	// invisible to callers tuning parallelism. Builder must be safe to
	// call from multiple goroutines when Workers > 1.
	Workers int
	// Values supplies the event payloads in generation order. A run
	// draws it on an engine-owned goroutine (the source stage, DESIGN.md
	// §8), so the caller must not touch it while Run is in progress; it
	// is the caller's again when Run returns. A clean run draws exactly
	// one value per event it generates, grace period included. A failed
	// run may have drawn up to 2,048 values past the event it failed at.
	Values datagen.Source
	// NewValues returns a fresh copy of the Values source, positioned at
	// its start. Sources are forward-only, so crash recovery re-derives
	// the event stream from a fresh source and fast-forwards it to the
	// checkpointed offset: Resume and RunRecovering require NewValues.
	// When set, every run draws from its own NewValues() result and
	// Values may be nil. NewValues itself is called on the caller's
	// goroutine; the source it returns is drawn like Values.
	NewValues func() datagen.Source
	// Delay is the network-delay model; nil means ZeroDelay. It is
	// drawn beside Values, one delay per value, on the same goroutine
	// and with the same rules.
	Delay DelayModel
	// NewDelay is NewValues for the delay model. Stateless models
	// (ZeroDelay, ConstantDelay) do not need it; a stateful model
	// (ExponentialDelay) must provide it for Resume to reproduce the
	// original delay sequence. The model it returns is drawn like Delay.
	NewDelay func() DelayModel
	// Builder constructs the sketch under test; one (per partition) per
	// window.
	Builder sketch.Builder
	// CollectValues materializes each window's accepted events in
	// WindowResult.Values so callers can compute exact ground truth.
	CollectValues bool
	// Metrics, when non-nil, receives engine-level counters (generated,
	// inserted, dropped-late, rejected, window fires, watermark lag,
	// batch-queue depth, checkpoint/restore activity) as the run
	// progresses. Counters accumulate across runs sharing the same
	// EngineMetrics. The per-event counters (generated, inserted,
	// dropped-late, rejected, budget-shed) are counted in Stats and
	// published as one delta per counter at batch hand-offs: when a
	// partition's batch fills, at every fire and snapshot barrier, and
	// when the run returns, failed runs included; generated also as
	// soon as the run's first event is generated. So they are exact
	// when Run returns and at every WindowResult callback, and a
	// mid-run read trails by fewer than 256 accepted events per
	// partition, plus the events dropped, rejected or shed since the
	// last hand-off or barrier. Nil disables recording at the cost of
	// one predictable branch per event (the watermark-lag gauge).
	Metrics *obs.EngineMetrics
	// CheckpointStore, when non-nil, enables fault tolerance: the engine
	// persists a sealed snapshot of its full state (watermark, stats,
	// in-flight events, per-window × per-partition sketch blobs, source
	// offset) at window-fire barriers. Resume restores the newest valid
	// snapshot and replays the rest of the run bit-identically.
	CheckpointStore checkpoint.Store
	// CheckpointEvery is the snapshot cadence in fired windows; values
	// below 1 default to 1 (a snapshot after every fired window).
	CheckpointEvery int
	// Faults, when non-nil, injects the configured deterministic faults
	// (worker panics, partition stalls, duplicate batch deliveries) into
	// the run — see internal/faultinject. Insert indices count in batch
	// order on every path: a store's inserts are numbered as its
	// partition batches reach it, so on the serial path with several
	// partitions the n-th insert is generally not the n-th accepted
	// event. Nil costs one predictable branch per batch run on the
	// insert path.
	Faults *faultinject.Plan
	// MemoryBudget, when positive, caps the engine's live sketch
	// footprint (sketch.FootprintOf over every open partition sketch
	// and sealed pane) at roughly this many bytes, enforced by a
	// governor at deterministic points (every budget.BaseInterval
	// processed events while binding — backing off when slack — and at
	// fire barriers) through a three-rung
	// degradation ladder: (1) degrade the largest sketches in place
	// (sketch.Degrader — KLL/REQ shrink k, DDSketch folds its lowest
	// buckets, UDDSketch collapses uniformly), (2) in sliding mode,
	// coarsen the oldest sealed panes by merging them into their
	// successors early when every remaining window sees both, and
	// (3) as a last resort shed new events, counted in
	// Stats.ShedBudget — never a panic. Fired windows report the
	// degradations applied to their data and the resulting accuracy
	// bound (WindowResult.Degradations / AccuracyBound). With
	// Workers > 1 each worker governs its own partitions over an equal
	// share of the budget and only rung 1 runs there (no shedding), so
	// a budgeted parallel run stays deterministic for a fixed worker
	// count but is not bit-identical across worker counts the way
	// unbudgeted runs are. 0 disables the governor; the unbudgeted hot
	// path pays one predictable branch per event.
	MemoryBudget int
	// SharedSketch, when non-nil, additionally feeds every accepted
	// event into the given concurrent shared sketch, so live quantile
	// queries can be answered mid-window (and mid-run) through
	// SharedSketch.Snapshot() while the engine keeps inserting — the
	// windowed results above are unaffected. Values reach it a
	// partition batch at a time, so with several partitions the
	// writers see them batch by batch rather than in arrival order. The
	// serial path inserts through writer handle 0 on the engine
	// goroutine; with Workers > 1 each worker w inserts through handle
	// w, so SharedSketch must have NumWriters() >= the (clamped) worker
	// count. Writer buffers are flushed when the run completes (workers
	// flush at shutdown), after which the shared sketch reflects every
	// accepted event of the run exactly; snapshots taken mid-run may
	// trail by SharedSketch.MaxRelaxation() buffered events plus up to
	// 256·Partitions events still in the engine's pending batches
	// (every batch is handed over at each window fire). The shared sketch
	// accumulates across all windows of the run and is NOT part of
	// checkpoints: a resumed run replays events into it, so pass a
	// fresh shared sketch per resumed run if its count must stay exact.
	SharedSketch concurrent.Shared
}

// WindowResult is the outcome of one fired window.
type WindowResult struct {
	// Index is the zero-based window sequence number: the window's
	// place in the run's tumbling or sliding lattice, and for sessions
	// the emission order.
	Index int
	// Start and End delimit the window's event-time range [Start, End).
	Start, End time.Duration
	// Sketch summarizes every accepted event (partition sketches merged).
	Sketch sketch.Sketch
	// Values holds the accepted events' payloads when
	// Config.CollectValues is set; nil otherwise. The receiver owns the
	// slice: the engine never reads or writes it after the emit, so a
	// callback may reorder or overwrite it in place.
	Values []float64
	// Accepted is the number of events included in the window.
	Accepted int64
	// DroppedLate is the number of events belonging to this window that
	// arrived after it fired and were discarded (Sec 2.6). Late events by
	// definition show up after the window has been emitted, so this field
	// is CONTRACTUALLY only populated by RunCollect, which patches the
	// collected results after the run completes; streaming Run callbacks
	// always observe 0 here, and the run-wide total lives in
	// Stats.DroppedLate either way. TestDroppedLateContract enforces
	// this.
	DroppedLate int64
	// PaneCounts, set only when windows span several panes (sliding,
	// Slide < WindowSize; nil when each window is one pane), holds the
	// accepted-event count of each constituent pane, oldest first — one
	// entry per pane of the window, zero for panes that saw no events.
	// With CollectValues set, Values is the concatenation of the panes'
	// values in the same order, so PaneCounts delimits the per-pane
	// segments: callers computing decayed ground truth weight segment i
	// by exp(-λ·(End - paneEnd_i)) where paneEnd_i is (i+1) pane
	// lengths after Start... precisely, the window's first pane ends at
	// End - (len(PaneCounts)-1)·paneLen and each later pane one paneLen
	// after, with paneLen = gcd(WindowSize, Slide). Budget coarsening
	// (Config.MemoryBudget rung 2) can fold a pane into its successor,
	// leaving a 0 entry whose events are counted one slot later.
	PaneCounts []int
	// Degradations counts the budget-governor degradations applied to
	// this window's data (its open partition sketches, and in sliding
	// mode its constituent sealed panes). Always 0 without
	// Config.MemoryBudget. Not persisted across checkpoint resume —
	// the degraded sketch state itself is exact in the snapshot, only
	// the count resets.
	Degradations int
	// AccuracyBound is the merged sketch's self-reported error bound
	// (sketch.AccuracyBounder: rank-error estimate for KLL/REQ,
	// relative α for DDSketch/UDDSketch) at fire time, which grows as
	// the budget governor degrades the sketch. 0 when the sketch does
	// not implement AccuracyBounder (moments).
	AccuracyBound float64
}

// Stats aggregates engine-level counters over one run. Every generated
// event is accounted for exactly once:
//
//	Generated == Accepted + DroppedLate + RejectedInput + ShedBudget
//
// holds for every window type, serially and in parallel (enforced by
// TestParallelDrainLosesNothing / TestIngestionTimeIdentity), and survives a
// crash-and-resume cycle intact (TestCrashRecoveryDeterminism).
// ShedBudget is 0 without Config.MemoryBudget, reducing the identity
// to its historical three-term form.
type Stats struct {
	// Generated is the number of events the source produced within the
	// measured run (event time < the run end; under
	// Config.UseIngestionTime the event time is the arrival). Grace-period
	// events — generated past the final window boundary solely to push
	// the watermark across it — are excluded: they belong to no tracked
	// window and would otherwise skew LossRate.
	Generated int64
	// Accepted is the total number of events included in fired windows.
	Accepted int64
	// DroppedLate is the total number of late-dropped events.
	DroppedLate int64
	// RejectedInput is the total number of events whose payload was
	// invalid (NaN or ±Inf) and was discarded before reaching any
	// sketch. Rejected events still advance the watermark — their
	// timestamps are sound, only the payloads are not.
	RejectedInput int64
	// ShedBudget is the total number of valid, on-time events dropped
	// because Config.MemoryBudget was exhausted past every degradation
	// rung. Shed events still advance the watermark. Always 0 without
	// a budget, and on the parallel path (which degrades but never
	// sheds).
	ShedBudget int64
}

// LossRate returns the fraction of generated events dropped as late.
func (s Stats) LossRate() float64 {
	if s.Generated == 0 {
		return 0
	}
	return float64(s.DroppedLate) / float64(s.Generated)
}

// batchSize is the number of accepted events a partition's pending
// batch holds before the coordinator hands it to the sink. Large enough
// to amortize a worker's channel hand-off and let the sketches' batch
// kernels (sketch.BatchInserter) work on long runs, small enough that
// the flush before a barrier stays cheap.
const batchSize = 256

// eventBatch carries a run of accepted events of one partition, in
// arrival order: vals[i] belongs to the window the sink holds under key
// wins[i]. seq is the partition-local ship sequence number (1-based) on
// the parallel path: workers drop any batch whose seq they have already
// seen, so duplicate delivery (the faultinject dup fault, or a retry
// layer above the pool) is idempotent.
type eventBatch struct {
	part int32
	seq  uint64
	wins []int32
	vals []float64
}

func newEventBatch(part int) *eventBatch {
	return &eventBatch{
		part: int32(part),
		wins: make([]int32, 0, batchSize),
		vals: make([]float64, 0, batchSize),
	}
}

func (b *eventBatch) reset() {
	b.wins = b.wins[:0]
	b.vals = b.vals[:0]
}

// partialSink owns the per-window, per-partition sketches of a run. The
// engine hands it the accepted events in arrival order, one partition
// batch at a time, and collects each window's partials at its fire
// barrier; before any barrier the engine flushes its pending batches,
// so the barrier observes every insert issued before it.
// Implementations: partStore driven inline (the serial path) and
// workerPool, whose workers each drive a partStore of their partitions
// from a channel.
type partialSink interface {
	// insertBatch hands b to the sink, which owns it from then on, and
	// returns an empty batch of the same partition for the caller's next
	// events: b itself when the sink inserts inline, a recycled batch
	// when b is shipped to a worker.
	insertBatch(b *eventBatch) *eventBatch
	// partials returns window win's partition sketches, indexed by
	// partition (nil entries for partitions that saw no events), with
	// every insert for that window applied, plus the number of budget
	// degradations applied to them while the window was open. It is the
	// fire barrier: the window's state is removed from the sink.
	partials(win int) ([]sketch.Sketch, int)
	// snapshot returns, for every open window, one sealed checkpoint
	// envelope per partition holding that partition sketch's serialized
	// state (nil entries for partitions without a sketch). It is a
	// barrier: every insert issued before the call is reflected.
	snapshot() (map[int][][]byte, error)
	// restore seeds window win's partition sketches from a decoded
	// snapshot (nil entries are skipped). It must be called before any
	// batch holding that window.
	restore(win int, parts []sketch.Sketch)
	// err reports a failure captured inside the sink (a worker panic)
	// since the run began; the engine checks it at every fire barrier.
	err() error
	// close releases worker resources and flushes the shared-sketch
	// writers; the sink is unusable afterwards. Batches the engine has
	// not handed over are dropped: it fires every tracked window before
	// closing, so they can only be left over by a failed run.
	close()
}

// windowState accumulates the engine-side counters of one open window;
// the partition sketches live in the partialSink.
type windowState struct {
	values   []float64
	accepted int64
	// Session mode: the session's span and the sink keys holding its
	// partition sketches, oldest first (inserts go to keys[0]).
	start, end time.Duration
	keys       []int
}

// Engine runs a configured streaming job.
type Engine struct {
	cfg Config
}

// NewEngine validates cfg and returns a runnable engine.
func NewEngine(cfg Config) (*Engine, error) {
	if cfg.WindowSize <= 0 {
		return nil, errors.New("stream: WindowSize must be positive")
	}
	if cfg.Rate <= 0 {
		return nil, errors.New("stream: Rate must be positive")
	}
	if cfg.NumWindows <= 0 {
		return nil, errors.New("stream: NumWindows must be positive")
	}
	if cfg.Slide < 0 || cfg.Slide > cfg.WindowSize {
		return nil, fmt.Errorf("stream: Slide %v outside (0, WindowSize=%v] (0 selects tumbling windows)", cfg.Slide, cfg.WindowSize)
	}
	if cfg.DecayLambda < 0 || math.IsNaN(cfg.DecayLambda) || math.IsInf(cfg.DecayLambda, 0) {
		return nil, errors.New("stream: DecayLambda must be finite and non-negative")
	}
	if cfg.SessionGap < 0 || cfg.AllowedLateness < 0 {
		return nil, errors.New("stream: SessionGap and AllowedLateness must be non-negative")
	}
	if cfg.Slide == 0 {
		cfg.Slide = cfg.WindowSize
	}
	if cfg.SessionGap > 0 && cfg.Slide < cfg.WindowSize {
		return nil, errors.New("stream: SessionGap excludes sliding mode (0 < Slide < WindowSize)")
	}
	if cfg.Partitions <= 0 {
		cfg.Partitions = 1
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.Workers > cfg.Partitions {
		warnWorkersClamped(cfg.Workers, cfg.Partitions, cfg.Metrics)
		cfg.Workers = cfg.Partitions
	}
	if cfg.Values == nil && cfg.NewValues == nil {
		return nil, errors.New("stream: Values source (or NewValues factory) is required")
	}
	if cfg.SharedSketch != nil && cfg.SharedSketch.NumWriters() < cfg.Workers {
		return nil, fmt.Errorf("stream: SharedSketch has %d writer handles, need >= %d (one per worker)",
			cfg.SharedSketch.NumWriters(), cfg.Workers)
	}
	if cfg.Builder == nil {
		return nil, errors.New("stream: Builder is required")
	}
	if cfg.DecayLambda > 0 {
		if cfg.Slide == cfg.WindowSize {
			return nil, errors.New("stream: DecayLambda requires sliding mode (0 < Slide < WindowSize)")
		}
		probe := cfg.Builder()
		if _, ok := probe.(sketch.CountScaler); !ok {
			return nil, fmt.Errorf("stream: DecayLambda requires a sketch.CountScaler, %s does not implement it", probe.Name())
		}
	}
	if cfg.Delay == nil {
		cfg.Delay = ZeroDelay{}
	}
	switch {
	case cfg.CheckpointStore == nil:
		cfg.CheckpointEvery = math.MaxInt // never due
	case cfg.CheckpointEvery < 1:
		cfg.CheckpointEvery = 1
	}
	return &Engine{cfg: cfg}, nil
}

// workersClampedOnce gates the process-wide stderr notice about worker
// clamping; the obs counter records every clamped construction.
var workersClampedOnce sync.Once

// warnWorkersClamped records a Workers > Partitions clamp: the obs
// counter (when metrics are wired) on every occurrence, plus a one-time
// stderr notice so interactive callers tuning worker counts see why
// added workers change nothing.
func warnWorkersClamped(workers, partitions int, met *obs.EngineMetrics) {
	if met != nil {
		met.WorkersClamped.Inc()
	}
	workersClampedOnce.Do(func() {
		fmt.Fprintf(os.Stderr,
			"stream: Workers=%d exceeds Partitions=%d; clamping to %d (each partition is owned by exactly one worker — raise Partitions to use more workers)\n",
			workers, partitions, partitions)
	})
}

// Run executes the job, invoking emit for each fired window in order.
// Returns aggregate stats. The run generates events a little past the
// final window boundary so late stragglers of the last window are
// accounted and the window always fires.
func (e *Engine) Run(emit func(WindowResult)) (Stats, error) {
	stats, _, err := e.run(emit, nil)
	return stats, err
}

// run executes the job from the start, or from snap when non-nil.
func (e *Engine) run(emit func(WindowResult), snap *checkpoint.Snapshot) (Stats, map[int]int64, error) {
	rs, err := e.newRunState(emit)
	if err != nil {
		return Stats{}, nil, err
	}
	defer rs.sink.close()
	if snap != nil {
		if err := rs.restore(snap); err != nil {
			return Stats{}, nil, err
		}
	}
	err = rs.loop()
	rs.publish()
	return rs.stats, rs.lateOf, err
}

// runState is one run's mutable state, factored out of the run loop so
// checkpoint restore can rebuild it mid-stream: a resumed run and an
// uninterrupted run traverse the identical state sequence from the
// snapshot point on.
//
// Its size is kept at most 696 bytes. The runtime prefixes a heap
// object over 512 bytes that holds pointers with an 8-byte header, so
// runState takes a 704-byte slot; 8 bytes more would move it to the
// 768-byte size class, and a run's first allocation from that class
// after a GC measured ~1.5 µs slower (perfbench tumbling-late setup_s
// 1.1–1.7×, cold probes only). It is exactly 696 with pub inline,
// which keeps metrics from adding an allocation to every run's set-up.
type runState struct {
	cfg  Config
	emit func(WindowResult)
	sink partialSink
	// pending holds each partition's accepted events not yet handed to
	// the sink (nil before the partition's first event); flush hands
	// them over before every barrier.
	pending []*eventBatch

	vals  datagen.Source
	delay DelayModel

	interval time.Duration
	runEnd   time.Duration

	stats Stats
	// pub is stats as last published to Config.Metrics (publish).
	pub Stats

	inFlight  arrivalQueue
	open      map[int]*windowState
	watermark time.Duration // largest event time seen, minus AllowedLateness
	nextFire  int           // next window index to fire
	lateOf    map[int]int64 // window index → late drops (post-fire arrivals)

	// Session mode (SessionGap > 0): the open sessions, disjoint and
	// ascending. The open map above is keyed by sink key, each key
	// pointing at the session that owns it.
	sessions []*windowState

	// Pane geometry of every non-session window (panes.go): the open
	// map above is keyed by pane index, and fired windows are assembled
	// from sealed panes. A tumbling window is a single pane.
	paneSize    time.Duration       // gcd(WindowSize, Slide)
	panesPerGap int                 // Slide / paneSize
	panesPerWin int                 // WindowSize / paneSize
	firstOff    int                 // 1 - ceil(WindowSize/Slide): slide-lattice offset of window 0
	numPanes    int                 // panes covering the run: paneEnd(NumWindows-1)
	nextSeal    int                 // first pane index not yet sealed
	sealed      map[int]*sealedPane // sealed, still-referenced panes
	// paneValues is the last sealed pane's collected-value count: with
	// CollectValues a new pane's values slice starts at that capacity,
	// so panes of a steady stream fill without regrowing.
	paneValues int

	drawn     int64  // source draws consumed so far (event n was draw n, zero-based)
	part      int    // partition of the next event: drawn mod Partitions
	fired     uint64 // windows fired so far (checkpoint sequence basis)
	sinceSnap int    // fires since the last snapshot

	builderName string // cached Builder product name for envelopes

	// Memory-budget governor state (Config.MemoryBudget). gov tracks
	// the serial store's open sketches and the sealed pane sketches
	// (under negative ids); with Workers > 1 the workers govern their
	// own sketches and gov, present only when windows span several
	// panes, covers the sealed panes.
	gov          *budget.Governor
	shedding     bool // rung 3 engaged: drop new events until under budget
	sinceEnforce int  // events processed since the last enforcement pass
	enforceAt    int  // cached gov.Interval(), refreshed by enforceBudget
}

func (e *Engine) newRunState(emit func(WindowResult)) (*runState, error) {
	cfg := e.cfg
	interval := time.Second / time.Duration(cfg.Rate)
	if interval <= 0 {
		return nil, fmt.Errorf("stream: rate %d too high for ns resolution", cfg.Rate)
	}
	runEnd := cfg.WindowSize * time.Duration(cfg.NumWindows)
	rs := &runState{
		cfg:       cfg,
		emit:      emit,
		vals:      cfg.Values,
		delay:     cfg.Delay,
		interval:  interval,
		runEnd:    runEnd,
		inFlight:  newArrivalQueue(interval),
		open:      map[int]*windowState{},
		watermark: -1,
		lateOf:    map[int]int64{},
	}
	if cfg.SessionGap == 0 {
		rs.initPanes()
	}
	if cfg.NewValues != nil {
		rs.vals = cfg.NewValues()
	}
	if cfg.NewDelay != nil {
		rs.delay = cfg.NewDelay()
	}
	if cfg.Workers > 1 {
		// Workers govern their own partitions over equal budget shares;
		// when windows span several panes half the budget is reserved
		// for the coordinator's sealed panes (which live outside the
		// workers). A one-pane window's pane is emitted as it seals, so
		// there is nothing resident to reserve for.
		workerBudget := cfg.MemoryBudget
		if workerBudget > 0 && rs.panesPerWin > 1 {
			workerBudget /= 2
		}
		rs.sink = newWorkerPool(cfg.Builder, cfg.Partitions, cfg.Workers, cfg.Metrics, cfg.Faults, cfg.SharedSketch, workerBudget)
		if rs.panesPerWin > 1 {
			rs.gov = budget.New(cfg.MemoryBudget / 2)
			rs.enforceAt = rs.gov.Interval()
		}
	} else {
		rs.gov = budget.New(cfg.MemoryBudget)
		rs.enforceAt = rs.gov.Interval()
		rs.sink = newPartStore(cfg.Builder, cfg.Partitions, 0, rs.gov, cfg.Metrics, cfg.Faults, cfg.SharedSketch)
	}
	rs.pending = make([]*eventBatch, cfg.Partitions)
	if cfg.CheckpointStore != nil {
		rs.builderName = cfg.Builder().Name()
	}
	return rs, nil
}

// flush hands every partition's pending events to the sink, in
// partition order: the prelude to any point that observes partition
// sketches.
func (rs *runState) flush() {
	for part, b := range rs.pending {
		if b != nil && len(b.vals) > 0 {
			rs.pending[part] = rs.sink.insertBatch(b)
		}
	}
	rs.publish()
}

// publish adds to the engine counters what the run's Stats gained
// since the last publication: one Add per counter that moved, made at
// batch hand-offs instead of one atomic increment per event
// (Config.Metrics states when).
func (rs *runState) publish() {
	m := rs.cfg.Metrics
	if m == nil {
		return
	}
	s, p := &rs.stats, &rs.pub
	addDelta(&m.Generated, s.Generated, p.Generated)
	addDelta(&m.Inserted, s.Accepted, p.Accepted)
	addDelta(&m.DroppedLate, s.DroppedLate, p.DroppedLate)
	addDelta(&m.RejectedInput, s.RejectedInput, p.RejectedInput)
	addDelta(&m.BudgetShed, s.ShedBudget, p.ShedBudget)
	*p = *s
}

// addDelta adds now-last to c, skipping the atomic when it is 0.
func addDelta(c *obs.Counter, now, last int64) {
	if now != last {
		c.Add(now - last)
	}
}

// fireSession fires the oldest open session as window nextFire: it
// merges the partition sketches the sink holds under the session's
// keys, in key then partition order. It is the barrier at which worker
// failures surface.
func (rs *runState) fireSession() error {
	w := rs.sessions[0]
	rs.sessions[0] = nil
	rs.sessions = rs.sessions[1:]
	merged := rs.cfg.Builder()
	degrades := 0
	rs.flush()
	for _, key := range w.keys {
		delete(rs.open, key)
		parts, sinkDeg := rs.sink.partials(key)
		if err := rs.sink.err(); err != nil {
			return err
		}
		degrades += sinkDeg
		for _, p := range parts {
			if p == nil {
				continue
			}
			if err := merged.Merge(p); err != nil {
				return fmt.Errorf("stream: session merge [%v, %v): %w", w.start, w.end, err)
			}
		}
	}
	rs.emitWindow(WindowResult{
		Index:        rs.nextFire,
		Start:        w.start,
		End:          w.end,
		Sketch:       merged,
		Values:       w.values,
		Accepted:     w.accepted,
		Degradations: degrades,
	})
	return nil
}

// emitWindow is the tail of every fire: it counts the fire, advances
// the checkpoint cadence, and emits r with its sketch's self-reported
// error bound (0 when the sketch type has none).
func (rs *runState) emitWindow(r WindowResult) {
	if rs.cfg.Metrics != nil {
		rs.cfg.Metrics.WindowFires.Inc()
	}
	rs.fired++
	rs.sinceSnap++
	if ab, ok := r.Sketch.(sketch.AccuracyBounder); ok {
		r.AccuracyBound = ab.AccuracyBound()
	}
	rs.emit(r)
}

// process routes one arrived event: reject invalid payloads, drop late
// events, insert the rest, then advance the watermark and fire every
// window whose end it passed. Events route by pane (routePaned), or
// by session in session mode (routeSession); both share the
// watermark/fire machinery.
func (rs *runState) process(ev Event) error {
	cfg := &rs.cfg
	t := ev.GenTime
	if cfg.UseIngestionTime {
		t = ev.Arrival
	}
	if cfg.SessionGap > 0 {
		rs.routeSession(ev, t)
	} else {
		rs.routePaned(ev, t)
	}
	if rs.gov != nil {
		rs.sinceEnforce++
		if rs.sinceEnforce >= rs.enforceAt {
			rs.enforceBudget()
		}
	}
	if wm := t - cfg.AllowedLateness; wm > rs.watermark {
		rs.watermark = wm
		// Fire every window whose end the watermark has passed.
		fired := false
		for rs.due() {
			if err := rs.fireNext(); err != nil {
				return err
			}
			fired = true
		}
		if fired && rs.gov != nil {
			// Fired windows untracked their sketches; re-evaluate so a
			// shedding engine recovers as soon as memory is released.
			rs.enforceBudget()
		}
	}
	if rs.cfg.Metrics != nil {
		// How far arrival order ran ahead of event time: the delay
		// model's effective disorder, as seen by the engine.
		if lag := int64(ev.Arrival - rs.watermark); lag > 0 {
			rs.cfg.Metrics.MaxWatermarkLagNS.Max(lag)
		}
	}
	return nil
}

// insert adds one accepted event to open window w, whose partition
// sketches the sink holds under key: it appends the event to its
// partition's pending batch and, when the batch is full, hands it to
// the sink and publishes the counters.
//
//sketch:hotpath
func (rs *runState) insert(w *windowState, key int, ev Event) {
	part := ev.Partition % rs.cfg.Partitions
	b := rs.pending[part]
	if b == nil {
		// Made on first use, so a run reaches its first event without
		// paying for every partition's batch.
		b = newEventBatch(part)
		rs.pending[part] = b
	}
	b.wins = append(b.wins, int32(key))
	b.vals = append(b.vals, ev.Value)
	w.accepted++
	rs.stats.Accepted++
	if rs.cfg.CollectValues {
		w.values = append(w.values, ev.Value)
	}
	if len(b.vals) == batchSize {
		rs.pending[part] = rs.sink.insertBatch(b)
		rs.publish()
	}
}

// routeSession classifies one event at time t on the session path:
// reject, late-drop, shed, or insert into the session its proto-window
// [t, t+SessionGap) opens or extends. Open sessions are disjoint and
// ascending, so the ones the proto-window overlaps are a run [i, j),
// found by scanning back from the newest. They join in place: only
// spans, sink-key lists, counters and values combine; their sketches
// first meet at the fire barrier.
func (rs *runState) routeSession(ev Event, t time.Duration) {
	if t >= rs.runEnd {
		return // grace-period event: it only advances the watermark
	}
	end := t + rs.cfg.SessionGap
	j := len(rs.sessions)
	for j > 0 && rs.sessions[j-1].start >= end {
		j--
	}
	i := j
	for i > 0 && rs.sessions[i-1].end > t {
		i--
	}
	switch {
	case math.IsNaN(ev.Value) || math.IsInf(ev.Value, 0):
		rs.stats.RejectedInput++
	case i == j && rs.watermark >= end:
		// No open session in reach, and the proto-window alone has
		// already ended by the watermark.
		rs.stats.DroppedLate++
	case rs.shedding:
		rs.stats.ShedBudget++
	default:
		w := rs.joinSessions(i, j, t, end, int(ev.GenTime/rs.interval))
		rs.insert(w, w.keys[0], ev)
	}
}

// joinSessions returns the session holding the proto-window [t, end):
// a new one under sink key key (the opening event's draw number) when
// sessions[i:j] is empty, else sessions[i] widened to the union, with
// the rest of the run absorbed.
func (rs *runState) joinSessions(i, j int, t, end time.Duration, key int) *windowState {
	if i == j {
		w := &windowState{start: t, end: end, keys: []int{key}}
		rs.open[key] = w
		rs.sessions = slices.Insert(rs.sessions, i, w)
		return w
	}
	w := rs.sessions[i]
	w.start = min(w.start, t)
	w.end = max(rs.sessions[j-1].end, end)
	for _, o := range rs.sessions[i+1 : j] {
		for _, k := range o.keys {
			rs.open[k] = w
		}
		w.keys = append(w.keys, o.keys...)
		w.values = append(w.values, o.values...)
		w.accepted += o.accepted
	}
	rs.sessions = slices.Delete(rs.sessions, i+1, j)
	return w
}

// due reports whether the next window to fire has ended by the
// watermark.
func (rs *runState) due() bool {
	if rs.cfg.SessionGap > 0 {
		return len(rs.sessions) > 0 && rs.watermark >= rs.sessions[0].end
	}
	return rs.nextFire < rs.cfg.NumWindows && rs.watermark >= rs.paneSize*time.Duration(rs.paneEnd(rs.nextFire))
}

// fireNext fires window nextFire — the oldest open session in session
// mode — and advances nextFire.
func (rs *runState) fireNext() error {
	var err error
	if rs.cfg.SessionGap > 0 {
		err = rs.fireSession()
	} else {
		err = rs.firePaned(rs.nextFire)
	}
	if err != nil {
		return err
	}
	rs.nextFire++
	return nil
}

// drain processes every in-flight event that has arrived by gen. Any
// event generated later arrives at ≥ its own gen time ≥ gen, so
// everything in flight with arrival ≤ gen is safe to process.
func (rs *runState) drain(gen time.Duration) error {
	for {
		ev, ok := rs.inFlight.PopUntil(gen)
		if !ok {
			return nil
		}
		if err := rs.take(ev); err != nil {
			return err
		}
	}
}

// take processes one arrived event, then snapshots if the cadence is
// due.
func (rs *runState) take(ev Event) error {
	if err := rs.process(ev); err != nil {
		return err
	}
	if rs.sinceSnap >= rs.cfg.CheckpointEvery {
		return rs.maybeSnapshot()
	}
	return nil
}

// loop is the run driver: generate, drain, fire, until the source is
// exhausted and every tracked window has fired. On a resumed state
// (drawn > 0) it first fast-forwards the fresh sources to the
// checkpointed offset (events are a pure function of the seeds, so
// re-drawing reproduces the exact remaining stream) and finishes the
// arrival drain the snapshot interrupted — the exact state sequence of
// an uninterrupted run. The first event is drawn inline; the rest come
// from the source stage (source.go), which loop stops on every exit.
// Panics on the engine goroutine (including injected faults on the
// serial insert path, and source panics the stage forwards) are
// converted into a *PanicError result.
func (rs *runState) loop() (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = asPanicError(r)
		}
	}()
	for i := int64(0); i < rs.drawn; i++ {
		rs.vals.Next()
		rs.delay.Delay()
	}
	if rs.drawn > 0 {
		if err := rs.drain(rs.interval * time.Duration(rs.drawn-1)); err != nil {
			return err
		}
	}
	rs.part = int(rs.drawn % int64(rs.cfg.Partitions))
	// Grace period past the end so the final watermark passes runEnd:
	// one window of extra events (discarded, they belong to window
	// NumWindows) is plenty for realistic delay tails.
	genEnd := rs.runEnd + rs.cfg.WindowSize
	gen := rs.interval * time.Duration(rs.drawn)
	if gen < genEnd {
		// Drawn inline so a run reaches its first event without paying
		// for the producer's start, and counted in the metrics before it
		// is processed, so a reader of the generated counter sees the
		// run start without waiting for the first hand-off.
		ev := rs.event(gen, rs.vals.Next(), rs.delay.Delay())
		rs.publish()
		if err := rs.admit(ev); err != nil {
			return err
		}
		gen += rs.interval
	}
	if gen < genEnd {
		// Exactly the draws the loop below consumes, and never more: a
		// clean run leaves the sources where inline drawing would.
		src := startProducer(rs.vals, rs.delay, int64((genEnd-gen+rs.interval-1)/rs.interval))
		defer src.stop()
		for ; gen < genEnd; gen += rs.interval {
			dr := src.next()
			if err := rs.admit(rs.event(gen, dr.v, dr.d)); err != nil {
				return err
			}
		}
	}
	// Source exhausted: everything still in flight has arrived.
	if err := rs.drain(math.MaxInt64); err != nil {
		return err
	}
	// Lift the watermark past every end and fire the windows still open
	// — the final window on extreme delays, or sessions whose gap
	// outlasts the grace period.
	rs.watermark = math.MaxInt64
	for rs.due() {
		if err := rs.fireNext(); err != nil {
			return err
		}
	}
	return nil
}

// event counts the draw at gen with payload v and delay d and returns
// its event, assigned to the next partition in turn.
func (rs *runState) event(gen time.Duration, v float64, d time.Duration) Event {
	at := gen
	if rs.cfg.UseIngestionTime {
		at += d
	}
	if at < rs.runEnd {
		// Grace-period events (event time ≥ runEnd) exist only to push
		// the watermark past the final boundary; they belong to no
		// tracked window and are excluded from the accounting so
		// Generated == Accepted + DroppedLate + RejectedInput holds
		// exactly.
		rs.stats.Generated++
	}
	rs.drawn++
	ev := Event{GenTime: gen, Arrival: gen + d, Value: v, Partition: rs.part}
	rs.part++
	if rs.part == rs.cfg.Partitions {
		rs.part = 0
	}
	return ev
}

// admit processes ev at once when it arrives as generated with nothing
// in flight, and otherwise queues it and drains everything that has
// arrived by its generation time.
func (rs *runState) admit(ev Event) error {
	if ev.Arrival == ev.GenTime && rs.inFlight.Len() == 0 {
		// Arrived as generated, with nothing in flight: it is the one
		// event drain(gen) would pop, so it skips the queue.
		return rs.take(ev)
	}
	rs.inFlight.Push(ev)
	return rs.drain(ev.GenTime)
}

// RunCollect is Run but returning the window results as a slice, with
// per-window late-drop counts filled in after the run completes.
func (e *Engine) RunCollect() ([]WindowResult, Stats, error) {
	var out []WindowResult
	stats, lateOf, err := e.run(func(r WindowResult) { out = append(out, r) }, nil)
	for i := range out {
		out[i].DroppedLate = lateOf[out[i].Index]
	}
	return out, stats, err
}
