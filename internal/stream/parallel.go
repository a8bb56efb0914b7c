package stream

import (
	"sync"
	"sync/atomic"

	"repro/internal/budget"
	"repro/internal/concurrent"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/sketch"
)

// batchSize is the number of events a per-partition batch holds before
// it is shipped to its worker. Large enough to amortize the channel
// hand-off and let the sketches' batch kernels (sketch.BatchInserter)
// work on long runs, small enough that a window's tail flush stays
// cheap.
const batchSize = 256

// eventBatch carries a run of accepted events for one partition. wins
// and vals are parallel slices; wins is non-decreasing (events arrive
// in watermark order), so workers can split it into per-window runs and
// feed each run to the sketch's batched insert path in one call. seq is
// the partition-local ship sequence number (1-based): workers drop any
// batch whose seq they have already seen, so duplicate delivery (the
// faultinject dup fault, or a retry layer above the pool) is idempotent.
type eventBatch struct {
	part int32
	seq  uint64
	wins []int32
	vals []float64
}

func (b *eventBatch) reset() {
	b.wins = b.wins[:0]
	b.vals = b.vals[:0]
}

// workerSnap is a worker's reply to a snapshot barrier: one sealed
// envelope per (window, owned-partition) sketch it holds, or the error
// that prevented serialization.
type workerSnap struct {
	entries []snapEntry
	err     error
}

// snapEntry is one partition sketch's sealed state. local is the
// worker-local partition index; the coordinator maps it back to the
// global partition w + local·workers.
type snapEntry struct {
	win   int32
	local int32
	blob  []byte
}

// restoreMsg seeds one partition sketch into a worker's open-window
// state during checkpoint resume.
type restoreMsg struct {
	win   int32
	local int32
	sk    sketch.Sketch
}

// fireReply is a worker's answer to a fire barrier: the window's
// partition sketches it owned, plus the budget degradations it applied
// to them while the window was open.
type fireReply struct {
	sks      []sketch.Sketch
	degrades int
}

// workerMsg is one message to a worker: an event batch, a restore seed,
// a snapshot barrier (snap non-nil), or a fire barrier (reply non-nil)
// for window fireWin.
type workerMsg struct {
	batch   *eventBatch
	fireWin int32
	reply   chan<- fireReply
	snap    chan<- workerSnap
	restore *restoreMsg
}

// workerPool is the parallel partialSink: partition p is owned by
// worker p % workers, each worker consumes event batches from its own
// channel and maintains the partition-local sketches of its open
// windows. Because every partition's events flow through exactly one
// worker in arrival order, and the engine collects partials at fire
// barriers and merges them in partition order, the results are
// bit-identical to the sequential sink at any worker count.
//
// Workers run under a recover guard: a panic (injected fault or real
// bug) poisons the worker — it stops inserting but keeps draining its
// channel, replying empty to barriers, so the coordinator never
// deadlocks; the captured *PanicError surfaces through err() at the
// next fire barrier.
type workerPool struct {
	builder    sketch.Builder
	partitions int
	workers    int

	pending []*eventBatch // one per partition, nil when empty
	seqs    []uint64      // per-partition ship sequence numbers
	shipped int64         // total batches shipped (faultinject dup basis)
	chans   []chan workerMsg
	replies []chan fireReply
	snaps   []chan workerSnap
	pool    sync.Pool // *eventBatch recycling (coordinator ⇄ workers)
	wg      sync.WaitGroup
	met     *obs.EngineMetrics // nil disables queue-depth recording
	faults  *faultinject.Plan  // nil disables fault hooks
	shared  concurrent.Shared  // nil disables live shared-sketch feeds
	// workerBudget is each worker's byte share of Config.MemoryBudget
	// (already divided); 0 disables per-worker governors. Workers run
	// only rung 1 of the ladder (in-place degradation) — shedding on a
	// worker would make the event stream depend on worker count.
	workerBudget int
	failure      atomic.Pointer[PanicError]
}

func newWorkerPool(builder sketch.Builder, partitions, workers int, met *obs.EngineMetrics, faults *faultinject.Plan, shared concurrent.Shared, memBudget int) *workerPool {
	p := &workerPool{
		builder:    builder,
		partitions: partitions,
		workers:    workers,
		pending:    make([]*eventBatch, partitions),
		seqs:       make([]uint64, partitions),
		chans:      make([]chan workerMsg, workers),
		replies:    make([]chan fireReply, workers),
		snaps:      make([]chan workerSnap, workers),
		met:        met,
		faults:     faults,
		shared:     shared,
	}
	if memBudget > 0 {
		p.workerBudget = memBudget / workers
	}
	p.pool.New = func() any {
		return &eventBatch{
			wins: make([]int32, 0, batchSize),
			vals: make([]float64, 0, batchSize),
		}
	}
	for w := 0; w < workers; w++ {
		// Deep buffers decouple the coordinator (event generation,
		// arrival queue, watermarks) from insert hiccups like sketch
		// compactions.
		p.chans[w] = make(chan workerMsg, 32)
		p.replies[w] = make(chan fireReply, 1)
		p.snaps[w] = make(chan workerSnap, 1)
		p.wg.Add(1)
		go p.runWorker(w)
	}
	return p
}

// ship stamps b with its partition's next sequence number and sends it
// to the owning worker — duplicated when the fault plan says so (the
// duplicate carries the same seq, so the worker's dedupe drops it).
func (p *workerPool) ship(part int, b *eventBatch) {
	p.seqs[part]++
	b.seq = p.seqs[part]
	var dup *eventBatch
	if p.faults != nil && p.faults.DuplicateBatch(p.shipped) {
		// Clone before sending: once shipped, the worker owns b.
		dup = p.pool.Get().(*eventBatch)
		dup.part = b.part
		dup.seq = b.seq
		dup.wins = append(dup.wins[:0], b.wins...)
		dup.vals = append(dup.vals[:0], b.vals...)
	}
	p.shipped++
	ch := p.chans[part%p.workers]
	ch <- workerMsg{batch: b}
	if dup != nil {
		ch <- workerMsg{batch: dup}
	}
	if p.met != nil {
		// Sampled right after the send: how far this worker's queue
		// backed up (insert hiccups, compaction stalls).
		p.met.MaxBatchQueueDepth.Max(int64(len(ch)))
	}
}

// insert implements partialSink: append to the partition's pending
// batch, shipping it to the owning worker when full.
func (p *workerPool) insert(win, part int, v float64) {
	b := p.pending[part]
	if b == nil {
		b = p.pool.Get().(*eventBatch)
		b.part = int32(part)
		p.pending[part] = b
	}
	b.wins = append(b.wins, int32(win))
	b.vals = append(b.vals, v)
	if len(b.vals) == batchSize {
		p.pending[part] = nil
		p.ship(part, b)
	}
}

// flushPending ships every partially filled batch — the prelude to any
// barrier, so the barrier observes all inserts issued before it.
func (p *workerPool) flushPending() {
	for part, b := range p.pending {
		if b != nil {
			p.pending[part] = nil
			p.ship(part, b)
		}
	}
}

// partials implements partialSink: flush every pending batch, then send
// each worker a fire barrier and reassemble the window's partition
// sketches in partition order. The channel send/receive pair gives the
// coordinator a happens-before edge on all of the window's inserts.
func (p *workerPool) partials(win int) ([]sketch.Sketch, int) {
	p.flushPending()
	for w := 0; w < p.workers; w++ {
		p.chans[w] <- workerMsg{fireWin: int32(win), reply: p.replies[w]}
	}
	out := make([]sketch.Sketch, p.partitions)
	degrades := 0
	for w := 0; w < p.workers; w++ {
		r := <-p.replies[w]
		degrades += r.degrades
		for k, sk := range r.sks {
			out[w+k*p.workers] = sk
		}
	}
	return out, degrades
}

// snapshot implements partialSink: flush pending batches, then barrier
// every worker and reassemble the sealed per-partition blobs per open
// window. Every worker is always drained even when one reports an
// error, keeping the channels balanced.
func (p *workerPool) snapshot() (map[int][][]byte, error) {
	p.flushPending()
	for w := 0; w < p.workers; w++ {
		p.chans[w] <- workerMsg{snap: p.snaps[w]}
	}
	out := make(map[int][][]byte)
	var firstErr error
	for w := 0; w < p.workers; w++ {
		res := <-p.snaps[w]
		if res.err != nil {
			if firstErr == nil {
				firstErr = res.err
			}
			continue
		}
		for _, e := range res.entries {
			win := int(e.win)
			blobs := out[win]
			if blobs == nil {
				blobs = make([][]byte, p.partitions)
				out[win] = blobs
			}
			blobs[w+int(e.local)*p.workers] = e.blob
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}

// restore implements partialSink: route each decoded partition sketch
// to its owning worker. Channel FIFO ordering guarantees the seed is in
// place before any later batch for the window; no barrier is needed.
func (p *workerPool) restore(win int, parts []sketch.Sketch) {
	for part, sk := range parts {
		if sk == nil {
			continue
		}
		p.chans[part%p.workers] <- workerMsg{restore: &restoreMsg{
			win:   int32(win),
			local: int32(part / p.workers),
			sk:    sk,
		}}
	}
}

// err implements partialSink: the first worker panic captured this run,
// if any.
func (p *workerPool) err() error {
	if pe := p.failure.Load(); pe != nil {
		return pe
	}
	return nil
}

// close implements partialSink: stop the workers and wait for them to
// drain. Any still-pending batches are dropped — the engine fires every
// tracked window before closing, so by then they can only hold events
// of untracked (grace-period) windows, which are never inserted anyway.
func (p *workerPool) close() {
	for _, ch := range p.chans {
		close(ch)
	}
	p.wg.Wait()
}

// ownedPartitions returns how many partitions worker w owns (the
// partitions congruent to w modulo the worker count).
func (p *workerPool) ownedPartitions(w int) int {
	return (p.partitions-1-w)/p.workers + 1
}

// runWorker runs worker w's message loop under the recover guard. If
// the loop panics, the worker turns into a drain: it consumes the rest
// of its channel, replying empty to fire barriers and the captured
// error to snapshot barriers, so the coordinator's sends never block on
// a dead worker. The failure itself surfaces via err().
func (p *workerPool) runWorker(w int) {
	defer p.wg.Done()
	if p.workerLoop(w) {
		return
	}
	for msg := range p.chans[w] {
		switch {
		case msg.reply != nil:
			msg.reply <- fireReply{}
		case msg.snap != nil:
			msg.snap <- workerSnap{err: p.err()}
		case msg.batch != nil:
			msg.batch.reset()
			p.pool.Put(msg.batch)
		}
	}
}

// workerLoop consumes worker w's channel: batches are split into
// per-window runs and bulk-inserted into the owning partition's sketch;
// fire barriers hand the window's local partials back to the
// coordinator; snapshot barriers seal them; restore seeds adopt decoded
// sketches. Returns true when the channel closed cleanly, false when a
// panic was recovered (recorded in p.failure).
func (p *workerPool) workerLoop(w int) (clean bool) {
	defer func() {
		if r := recover(); r != nil {
			pe := asPanicError(r)
			if pe.Worker < 0 {
				pe.Worker = w
			}
			p.failure.CompareAndSwap(nil, pe)
		}
	}()
	nOwned := p.ownedPartitions(w)
	var sharedW *concurrent.Writer // this worker's shared-sketch handle
	if p.shared != nil {
		sharedW = p.shared.Writer(w)
	}
	open := make(map[int32][]sketch.Sketch)
	seen := make([]uint64, nOwned)      // per-partition last-seen batch seq
	var inserted int64                  // worker-local insert count (fault hooks)
	partEvents := make([]int64, nOwned) // partition-local insert counts
	// Per-worker budget governor (rung 1 only): tracks this worker's
	// partition sketches under the same win·P+part ids as seqSink, so
	// degradation order within a worker is deterministic for a fixed
	// worker count. Enforcement runs at batch boundaries — the same
	// few-hundred-event cadence as the serial path.
	gov := budget.New(p.workerBudget)
	sinceEnforce := 0                // events since the last governor pass
	enforceAt := gov.Interval()      // cached cadence, refreshed per pass
	degradeOf := make(map[int32]int) // win → degradations (fire replies)
	govID := func(win int32, local int) int64 {
		return int64(win)*int64(p.partitions) + int64(w+local*p.workers)
	}
	onDegrade := func(id int64) {
		if p.met != nil {
			p.met.Degradations.Inc()
		}
		degradeOf[int32(id/int64(p.partitions))]++
	}
	for msg := range p.chans[w] {
		switch {
		case msg.restore != nil:
			rm := msg.restore
			sks := open[rm.win]
			if sks == nil {
				sks = make([]sketch.Sketch, nOwned)
				open[rm.win] = sks
			}
			sks[rm.local] = rm.sk
			gov.Track(govID(rm.win, int(rm.local)), rm.sk)
		case msg.snap != nil:
			// sealOpen recovers its own panics, so the reply always
			// arrives and the coordinator cannot deadlock on a snapshot
			// barrier.
			msg.snap <- p.sealOpen(open)
		case msg.reply != nil:
			// Fire barrier: relinquish the window's partials along with
			// the degradations applied to them while the window was open.
			local := open[msg.fireWin]
			delete(open, msg.fireWin)
			for k := range local {
				gov.Untrack(govID(msg.fireWin, k))
			}
			deg := degradeOf[msg.fireWin]
			delete(degradeOf, msg.fireWin)
			msg.reply <- fireReply{sks: local, degrades: deg}
		default:
			b := msg.batch
			local := int(b.part) / p.workers
			if b.seq <= seen[local] {
				// Duplicate delivery: already applied, drop it.
				b.reset()
				p.pool.Put(b)
				continue
			}
			seen[local] = b.seq
			if sharedW != nil {
				// Past the dedupe check, so duplicate deliveries cannot
				// double-count into the shared sketch.
				sharedW.InsertBatch(b.vals)
			}
			for i := 0; i < len(b.wins); {
				win := b.wins[i]
				j := i + 1
				for j < len(b.wins) && b.wins[j] == win {
					j++
				}
				sks := open[win]
				if sks == nil {
					sks = make([]sketch.Sketch, nOwned)
					open[win] = sks
				}
				if sks[local] == nil {
					sks[local] = p.builder()
					gov.Track(govID(win, local), sks[local])
				}
				if p.faults == nil {
					sketch.InsertAll(sks[local], b.vals[i:j])
				} else {
					// Per-value loop so the fault hooks see exact
					// worker-local and partition-local event indices.
					part := int(b.part)
					sk := sks[local]
					for _, v := range b.vals[i:j] {
						p.faults.OnEvent(w, part, inserted, partEvents[local])
						inserted++
						partEvents[local]++
						sk.Insert(v)
					}
				}
				i = j
			}
			nvals := len(b.vals)
			b.reset()
			p.pool.Put(b)
			if gov != nil {
				// Batch-boundary enforcement at the governor's adaptive
				// cadence — the parallel analogue of the serial path
				// (batches are ≤256 events, so a binding budget enforces
				// roughly per batch).
				sinceEnforce += nvals
				if sinceEnforce >= enforceAt {
					sinceEnforce = 0
					out := gov.Enforce(onDegrade)
					enforceAt = gov.Interval()
					if p.met != nil {
						p.met.BudgetBytes.Max(int64(out.Usage))
					}
				}
			}
		}
	}
	if sharedW != nil {
		// Clean shutdown: quiesce this worker's buffer so post-run
		// snapshots of the shared sketch are exact.
		sharedW.Flush()
	}
	return true
}

// sealOpen serializes every open partition sketch into snapshot
// entries, converting any panic into an error reply.
func (p *workerPool) sealOpen(open map[int32][]sketch.Sketch) (ws workerSnap) {
	defer func() {
		if r := recover(); r != nil {
			ws = workerSnap{err: asPanicError(r)}
		}
	}()
	var entries []snapEntry
	for win, sks := range open {
		for local, sk := range sks {
			if sk == nil {
				continue
			}
			blob, err := sealPartial(sk)
			if err != nil {
				return workerSnap{err: err}
			}
			entries = append(entries, snapEntry{win: win, local: int32(local), blob: blob})
		}
	}
	return workerSnap{entries: entries}
}
