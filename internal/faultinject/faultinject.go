// Package faultinject provides deterministic fault injection for the
// stream engine, in the nil-guarded hook style of internal/obs: a nil
// *Plan disables every hook at the cost of one predictable branch, and
// an armed Plan fires each configured fault exactly once at a
// deterministic point (worker w's n-th insert, the n-th shipped batch,
// checkpoint sequence s), so a "chaotic" run is exactly reproducible.
//
// Faults are one-shot by design: the fired flags live on the Plan and
// survive engine restarts, so a crash-recovery loop that re-runs the
// same Plan does not re-crash on the replayed events.
package faultinject

import (
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/checkpoint"
)

// Fault is the value an injected panic throws. Recovery code can
// distinguish injected crashes from real bugs by type-asserting the
// recovered value.
type Fault struct {
	// Worker is the worker index that crashed (0 is the engine
	// goroutine on the serial path).
	Worker int
	// Event is the worker-local insert count at which the crash fired.
	Event int64
}

func (f Fault) String() string {
	return fmt.Sprintf("injected panic: worker %d at event %d", f.Worker, f.Event)
}

// Plan is a deterministic fault schedule. The zero value (or a nil
// pointer) injects nothing; arm faults with the With* builders or
// Parse. A single Plan may be shared by an engine, its recovery
// restarts, and a wrapped Store — that sharing is what makes the
// one-shot semantics hold across crash/resume cycles.
type Plan struct {
	panicWorker int
	panicEvent  int64
	panicArmed  bool
	panicFired  atomic.Bool

	stallPart  int
	stallEvent int64
	stallDur   time.Duration
	stallArmed bool
	stallFired atomic.Bool

	dupBatch int64
	dupArmed bool
	dupFired atomic.Bool

	corruptSeq   uint64
	corruptMode  string
	corruptArmed bool
	corruptFired atomic.Bool

	// Transient store faults: unlike corruption (silent damage), these
	// make Put fail loudly in ways a retrying store can absorb.
	eioSeq   uint64
	eioLeft  atomic.Int64 // failures remaining; <= 0 disarms
	eioArmed bool

	slowSeq   uint64
	slowDur   time.Duration
	slowArmed bool
	slowFired atomic.Bool

	tornSeq   uint64
	tornArmed bool
	tornFired atomic.Bool
}

// New returns an empty (inert) Plan.
func New() *Plan { return &Plan{} }

// WithPanic arms a panic on worker's event-th insert (worker-local,
// zero-based). The stream engine numbers a worker's inserts in batch
// order, as its partition batches reach the worker's store (worker 0
// is the engine goroutine on the serial path), so with several
// partitions the event-th insert is generally not the event-th
// accepted event. The panic value is a Fault. It panics if event is
// negative — the fault point must exist.
func (p *Plan) WithPanic(worker int, event int64) *Plan {
	if event < 0 {
		panic("faultinject: panic event must be >= 0")
	}
	p.panicWorker, p.panicEvent, p.panicArmed = worker, event, true
	return p
}

// WithStall arms a stall: the worker inserting partition part's
// event-th value (partition-local, zero-based) sleeps for d before
// proceeding — backpressure without state loss.
func (p *Plan) WithStall(part int, event int64, d time.Duration) *Plan {
	p.stallPart, p.stallEvent, p.stallDur, p.stallArmed = part, event, d, true
	return p
}

// WithDuplicateBatch arms duplicate delivery of the n-th shipped event
// batch (zero-based): the engine ships it twice, exercising the
// workers' sequence-number dedupe.
func (p *Plan) WithDuplicateBatch(n int64) *Plan {
	p.dupBatch, p.dupArmed = n, true
	return p
}

// Corruption modes for WithCorruptCheckpoint.
const (
	CorruptTruncate = "truncate"
	CorruptBitflip  = "bitflip"
)

// WithCorruptCheckpoint arms checkpoint corruption: the snapshot stored
// under seq is truncated or bit-flipped on its way into the store
// (silently — the Put succeeds), so the damage is only discoverable by
// checksum validation at resume time.
func (p *Plan) WithCorruptCheckpoint(seq uint64, mode string) *Plan {
	p.corruptSeq, p.corruptMode, p.corruptArmed = seq, mode, true
	return p
}

// WithEIO arms a transient write failure: the Put for checkpoint seq
// fails its first n attempts with an error wrapping syscall.EIO, then
// succeeds — the shape checkpoint.RetryStore is built to absorb.
func (p *Plan) WithEIO(seq uint64, n int64) *Plan {
	if n < 1 {
		panic("faultinject: eio failure count must be >= 1")
	}
	p.eioSeq, p.eioArmed = seq, true
	p.eioLeft.Store(n)
	return p
}

// WithSlowPut arms a one-shot stall on the Put for checkpoint seq: the
// write sleeps for d before reaching the store, modelling a disk that
// went away briefly without failing.
func (p *Plan) WithSlowPut(seq uint64, d time.Duration) *Plan {
	if d < 0 {
		panic("faultinject: slow duration must be >= 0")
	}
	p.slowSeq, p.slowDur, p.slowArmed = seq, d, true
	return p
}

// WithTornPut arms a one-shot torn write on checkpoint seq: the first
// Put writes only half the payload to the store and then reports EIO,
// so a retry must overwrite the partial record. Against DirStore the
// half-written file lands under the final name, exercising both the
// retry path and the envelope checksum that guards reads.
func (p *Plan) WithTornPut(seq uint64) *Plan {
	p.tornSeq, p.tornArmed = seq, true
	return p
}

// OnEvent is the per-insert hook: worker is the inserting worker,
// part the event's partition, workerEvent and partEvent the
// worker-local and partition-local insert counts (zero-based). It may
// sleep (stall fault) or panic with a Fault (panic fault). Nil-safe.
func (p *Plan) OnEvent(worker, part int, workerEvent, partEvent int64) {
	if p == nil {
		return
	}
	if p.stallArmed && part == p.stallPart && partEvent == p.stallEvent &&
		p.stallFired.CompareAndSwap(false, true) {
		time.Sleep(p.stallDur)
	}
	if p.panicArmed && worker == p.panicWorker && workerEvent == p.panicEvent &&
		p.panicFired.CompareAndSwap(false, true) {
		panic(Fault{Worker: worker, Event: workerEvent})
	}
}

// DuplicateBatch reports whether the shipped-th batch (zero-based)
// should be delivered twice. Nil-safe.
func (p *Plan) DuplicateBatch(shipped int64) bool {
	if p == nil || !p.dupArmed || shipped != p.dupBatch {
		return false
	}
	return p.dupFired.CompareAndSwap(false, true)
}

// WrapStore wraps store so the configured checkpoint faults (silent
// corruption and the loud transient failures) are applied on Put. With
// no store fault armed (or a nil Plan) it returns store unchanged.
func (p *Plan) WrapStore(store checkpoint.Store) checkpoint.Store {
	if p == nil || store == nil ||
		(!p.corruptArmed && !p.eioArmed && !p.slowArmed && !p.tornArmed) {
		return store
	}
	return &corruptingStore{Store: store, plan: p}
}

// corruptingStore applies the plan's checkpoint faults on Put.
type corruptingStore struct {
	checkpoint.Store
	plan *Plan
}

func (c *corruptingStore) Put(seq uint64, data []byte) error {
	p := c.plan
	if p.slowArmed && seq == p.slowSeq && p.slowFired.CompareAndSwap(false, true) {
		time.Sleep(p.slowDur)
	}
	if p.tornArmed && seq == p.tornSeq && p.tornFired.CompareAndSwap(false, true) {
		// Land the partial record under the final key, then fail: only
		// a retry (or the envelope checksum at read time) saves us.
		_ = c.Store.Put(seq, data[:len(data)/2])
		return fmt.Errorf("faultinject: torn write at seq %d: %w", seq, syscall.EIO)
	}
	if p.eioArmed && seq == p.eioSeq && p.eioLeft.Load() > 0 {
		if left := p.eioLeft.Add(-1); left >= 0 {
			return fmt.Errorf("faultinject: transient write failure at seq %d (%d more): %w",
				seq, left, syscall.EIO)
		}
	}
	if p.corruptArmed && seq == p.corruptSeq && p.corruptFired.CompareAndSwap(false, true) {
		switch p.corruptMode {
		case CorruptTruncate:
			data = data[:len(data)/2]
		default: // CorruptBitflip
			flipped := make([]byte, len(data))
			copy(flipped, data)
			flipped[len(flipped)/2] ^= 0x10
			data = flipped
		}
	}
	return c.Store.Put(seq, data)
}

// Parse builds a Plan from a comma-separated fault spec, the
// `quantbench -fault` syntax:
//
//	panic@w<worker>:<event>          panic worker w at its event-th insert
//	stall@p<part>:<event>:<duration> stall partition part for duration
//	dup@<batch>                      deliver the batch-th batch twice
//	corrupt@<seq>:truncate|bitflip   damage checkpoint seq on Put
//	eio@<seq>:<n>                    fail checkpoint seq's first n Puts with EIO
//	slow@<seq>:<duration>            stall checkpoint seq's Put once
//	torn@<seq>                       write half of checkpoint seq, then fail once
//
// Example: -fault "panic@w1:5000,corrupt@2:bitflip,eio@3:2".
func Parse(spec string) (*Plan, error) {
	p := New()
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		kind, arg, ok := strings.Cut(part, "@")
		if !ok {
			return nil, fmt.Errorf("faultinject: %q: want <kind>@<args>", part)
		}
		switch kind {
		case "panic":
			rest, okW := strings.CutPrefix(arg, "w")
			wStr, evStr, okC := strings.Cut(rest, ":")
			if !okW || !okC {
				return nil, fmt.Errorf("faultinject: %q: want panic@w<worker>:<event>", part)
			}
			w, err1 := strconv.Atoi(wStr)
			ev, err2 := strconv.ParseInt(evStr, 10, 64)
			if err1 != nil || err2 != nil || w < 0 || ev < 0 {
				return nil, fmt.Errorf("faultinject: %q: bad worker or event", part)
			}
			p.WithPanic(w, ev)
		case "stall":
			rest, okP := strings.CutPrefix(arg, "p")
			fields := strings.Split(rest, ":")
			if !okP || len(fields) != 3 {
				return nil, fmt.Errorf("faultinject: %q: want stall@p<part>:<event>:<duration>", part)
			}
			pt, err1 := strconv.Atoi(fields[0])
			ev, err2 := strconv.ParseInt(fields[1], 10, 64)
			d, err3 := time.ParseDuration(fields[2])
			if err1 != nil || err2 != nil || err3 != nil || pt < 0 || ev < 0 || d < 0 {
				return nil, fmt.Errorf("faultinject: %q: bad partition, event or duration", part)
			}
			p.WithStall(pt, ev, d)
		case "dup":
			n, err := strconv.ParseInt(arg, 10, 64)
			if err != nil || n < 0 {
				return nil, fmt.Errorf("faultinject: %q: want dup@<batch>", part)
			}
			p.WithDuplicateBatch(n)
		case "corrupt":
			seqStr, mode, okC := strings.Cut(arg, ":")
			seq, err := strconv.ParseUint(seqStr, 10, 64)
			if !okC || err != nil || (mode != CorruptTruncate && mode != CorruptBitflip) {
				return nil, fmt.Errorf("faultinject: %q: want corrupt@<seq>:truncate|bitflip", part)
			}
			p.WithCorruptCheckpoint(seq, mode)
		case "eio":
			seqStr, nStr, okC := strings.Cut(arg, ":")
			seq, err1 := strconv.ParseUint(seqStr, 10, 64)
			n, err2 := strconv.ParseInt(nStr, 10, 64)
			if !okC || err1 != nil || err2 != nil || n < 1 {
				return nil, fmt.Errorf("faultinject: %q: want eio@<seq>:<n>", part)
			}
			p.WithEIO(seq, n)
		case "slow":
			seqStr, dStr, okC := strings.Cut(arg, ":")
			seq, err1 := strconv.ParseUint(seqStr, 10, 64)
			d, err2 := time.ParseDuration(dStr)
			if !okC || err1 != nil || err2 != nil || d < 0 {
				return nil, fmt.Errorf("faultinject: %q: want slow@<seq>:<duration>", part)
			}
			p.WithSlowPut(seq, d)
		case "torn":
			seq, err := strconv.ParseUint(arg, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("faultinject: %q: want torn@<seq>", part)
			}
			p.WithTornPut(seq)
		default:
			return nil, fmt.Errorf("faultinject: unknown fault kind %q (panic, stall, dup, corrupt, eio, slow, torn)", kind)
		}
	}
	return p, nil
}
