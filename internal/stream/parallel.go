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

// workerSnap is a worker's reply to a snapshot barrier: its store's
// sealed envelopes per open window (nil entries for partitions it does
// not own), or the error that prevented serialization.
type workerSnap struct {
	blobs map[int][][]byte
	err   error
}

// restoreMsg seeds one partition sketch into a worker's store during
// checkpoint resume.
type restoreMsg struct {
	win  int32
	part int32
	sk   sketch.Sketch
}

// fireReply is a worker's answer to a fire barrier: the window's
// partition sketches from its store (nil entries for partitions it does
// not own), plus the budget degradations applied to them while the
// window was open.
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
// channel and keeps the partition-local sketches of its open windows in
// its own partStore — the serial sink's type. Because every partition's
// events flow through exactly one worker in arrival order, and the
// engine collects partials at fire barriers and merges them in
// partition order, the results are bit-identical to the serial sink at
// any worker count.
//
// Workers run under a recover guard: a panic (injected fault or real
// bug) poisons the worker — it stops inserting but keeps draining its
// channel, replying empty to barriers, so the coordinator never
// deadlocks; the captured *PanicError surfaces through err() at the
// next fire barrier.
type workerPool struct {
	partitions int
	workers    int

	seqs    []uint64 // per-partition ship sequence numbers
	shipped int64    // total batches shipped (faultinject dup basis)
	chans   []chan workerMsg
	replies []chan fireReply
	snaps   []chan workerSnap
	pool    sync.Pool // *eventBatch recycling (coordinator ⇄ workers)
	wg      sync.WaitGroup
	met     *obs.EngineMetrics // nil disables queue-depth recording
	faults  *faultinject.Plan  // nil disables the duplicate-batch fault
	failure atomic.Pointer[PanicError]
}

// newWorkerPool starts one worker per store; each worker's governor
// gets an equal share of memBudget (0 disables them). Workers run only
// rung 1 of the ladder (in-place degradation) — shedding on a worker
// would make the event stream depend on worker count.
func newWorkerPool(builder sketch.Builder, partitions, workers int, met *obs.EngineMetrics, faults *faultinject.Plan, shared concurrent.Shared, memBudget int) *workerPool {
	p := &workerPool{
		partitions: partitions,
		workers:    workers,
		seqs:       make([]uint64, partitions),
		chans:      make([]chan workerMsg, workers),
		replies:    make([]chan fireReply, workers),
		snaps:      make([]chan workerSnap, workers),
		met:        met,
		faults:     faults,
	}
	p.pool.New = func() any { return newEventBatch(0) }
	for w := 0; w < workers; w++ {
		// Deep buffers decouple the coordinator (event generation,
		// arrival queue, watermarks) from insert hiccups like sketch
		// compactions.
		p.chans[w] = make(chan workerMsg, 32)
		p.replies[w] = make(chan fireReply, 1)
		p.snaps[w] = make(chan workerSnap, 1)
		p.wg.Add(1)
		go p.runWorker(newPartStore(builder, partitions, w, budget.New(memBudget/workers), met, faults, shared))
	}
	return p
}

// insertBatch implements partialSink: stamp b with its partition's next
// sequence number and send it to the owning worker — duplicated when
// the fault plan says so (the duplicate carries the same seq, so the
// worker's dedupe drops it) — then hand back a recycled batch for the
// partition's next events.
func (p *workerPool) insertBatch(b *eventBatch) *eventBatch {
	part := int(b.part)
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
	next := p.pool.Get().(*eventBatch)
	next.part = b.part
	return next
}

// partials implements partialSink: send each worker a fire barrier and
// reassemble the window's partition sketches in partition order. The
// channel send/receive pair gives the coordinator a happens-before edge
// on all of the window's inserts.
func (p *workerPool) partials(win int) ([]sketch.Sketch, int) {
	for w := 0; w < p.workers; w++ {
		p.chans[w] <- workerMsg{fireWin: int32(win), reply: p.replies[w]}
	}
	out := make([]sketch.Sketch, p.partitions)
	degrades := 0
	for w := 0; w < p.workers; w++ {
		r := <-p.replies[w]
		degrades += r.degrades
		for part, sk := range r.sks {
			if sk != nil {
				out[part] = sk
			}
		}
	}
	return out, degrades
}

// snapshot implements partialSink: barrier every worker and reassemble
// the sealed per-partition blobs per open window. Every worker is
// always drained even when one reports an error, keeping the channels
// balanced.
func (p *workerPool) snapshot() (map[int][][]byte, error) {
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
		for win, blobs := range res.blobs {
			dst := out[win]
			if dst == nil {
				out[win] = blobs
				continue
			}
			for part, blob := range blobs {
				if blob != nil {
					dst[part] = blob
				}
			}
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
		p.chans[part%p.workers] <- workerMsg{restore: &restoreMsg{win: int32(win), part: int32(part), sk: sk}}
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
// drain.
func (p *workerPool) close() {
	for _, ch := range p.chans {
		close(ch)
	}
	p.wg.Wait()
}

// runWorker runs the message loop of st's worker under the recover
// guard. If the loop panics, the worker turns into a drain: it consumes
// the rest of its channel, replying empty to fire barriers and the
// captured error to snapshot barriers, so the coordinator's sends never
// block on a dead worker. The failure itself surfaces via err().
func (p *workerPool) runWorker(st *partStore) {
	defer p.wg.Done()
	if p.workerLoop(st) {
		return
	}
	for msg := range p.chans[st.worker] {
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

// workerLoop consumes the channel of st's worker into st: batches
// past the sequence-number dedupe are inserted, fire barriers hand the
// window's partials back to the coordinator, snapshot barriers seal the
// store, and restore seeds adopt decoded sketches. The store's governor
// runs rung 1 only, enforced at batch boundaries. Returns true when the
// channel closed cleanly, false when a panic was recovered (recorded in
// p.failure).
func (p *workerPool) workerLoop(st *partStore) (clean bool) {
	defer func() {
		if r := recover(); r != nil {
			pe := asPanicError(r)
			if pe.Worker < 0 {
				pe.Worker = st.worker
			}
			p.failure.CompareAndSwap(nil, pe)
		}
	}()
	seen := make([]uint64, p.partitions) // per-partition last-seen batch seq
	sinceEnforce := 0                    // events since the last governor pass
	enforceAt := st.gov.Interval()       // cached cadence, refreshed per pass
	for msg := range p.chans[st.worker] {
		switch {
		case msg.restore != nil:
			st.adopt(int(msg.restore.win), int(msg.restore.part), msg.restore.sk)
		case msg.snap != nil:
			blobs, err := st.snapshot()
			msg.snap <- workerSnap{blobs: blobs, err: err}
		case msg.reply != nil:
			sks, deg := st.partials(int(msg.fireWin))
			msg.reply <- fireReply{sks: sks, degrades: deg}
		default:
			b := msg.batch
			if b.seq > seen[b.part] {
				// Not a duplicate delivery, so the shared sketch is fed
				// once per batch.
				seen[b.part] = b.seq
				sinceEnforce += len(b.vals)
				st.insertBatch(b)
			}
			b.reset()
			p.pool.Put(b)
			if sinceEnforce >= enforceAt {
				// Batch-boundary enforcement at the governor's adaptive
				// cadence — the parallel analogue of the serial path
				// (batches are ≤256 events, so a binding budget enforces
				// roughly per batch).
				sinceEnforce = 0
				out := st.gov.Enforce(st.degraded)
				enforceAt = st.gov.Interval()
				if p.met != nil {
					p.met.BudgetBytes.Max(int64(out.Usage))
				}
			}
		}
	}
	st.close()
	return true
}
