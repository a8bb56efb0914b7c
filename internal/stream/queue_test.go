package stream

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// refQueue is the arrival queue's reference model: a slice kept
// sorted by Before, popped from the front.
type refQueue struct{ evs []Event }

func (r *refQueue) Push(ev Event) {
	i := sort.Search(len(r.evs), func(i int) bool { return ev.Before(r.evs[i]) })
	r.evs = append(r.evs, Event{})
	copy(r.evs[i+1:], r.evs[i:])
	r.evs[i] = ev
}

func (r *refQueue) PopUntil(limit time.Duration) (Event, bool) {
	if len(r.evs) == 0 || r.evs[0].Arrival > limit {
		return Event{}, false
	}
	ev := r.evs[0]
	r.evs = r.evs[1:]
	return ev, true
}

// queueTestInterval is the source interval of the queue unit tests;
// queueHorizon bounds the ring's reach at that interval from above (a
// bucket spans at most queueBucketIntervals intervals), so any later
// arrival spills.
const (
	queueTestInterval = 10 * time.Microsecond
	queueHorizon      = queueTestInterval * queueBucketIntervals * queueBuckets
)

// queueDelay draws one delay from a mix that exercises every path of
// the queue: zero delay, short exponential delays, delays snapped to a
// coarse grid so that many events share an Arrival with different
// GenTimes, and delays past the ring's horizon that go through the
// spill heap and migrate back.
func queueDelay(rng *rand.Rand, gen time.Duration) time.Duration {
	switch r := rng.Float64(); {
	case r < 0.2:
		return 0
	case r < 0.4:
		// Snap the arrival to a 1 ms grid: a tie on Arrival, broken by
		// GenTime.
		const grid = time.Millisecond
		return (gen/grid+1)*grid - gen
	case r < 0.5:
		return queueHorizon + time.Duration(rng.Int63n(int64(2*queueHorizon)))
	default:
		return time.Duration(rng.ExpFloat64() * float64(2*time.Millisecond))
	}
}

// drainBoth pops q and ref up to limit in lockstep and fails on the
// first divergence. The limit must be non-negative.
func drainBoth(t *testing.T, q *arrivalQueue, ref *refQueue, limit time.Duration) int {
	t.Helper()
	n := 0
	for {
		got, ok := q.PopUntil(limit)
		want, wok := ref.PopUntil(limit)
		if ok != wok || got != want {
			t.Fatalf("PopUntil(%v): got %+v,%v, want %+v,%v", limit, got, ok, want, wok)
		}
		if !ok {
			// The cursor stops at limit's bucket, so pushes that keep
			// the drain contract land at or ahead of it.
			if q.cursor > q.bucketOf(limit) {
				t.Fatalf("PopUntil(%v) moved the cursor to bucket %d, past the limit's %d", limit, q.cursor, q.bucketOf(limit))
			}
			return n
		}
		n++
		if q.Len() != len(ref.evs) {
			t.Fatalf("Len %d, want %d", q.Len(), len(ref.evs))
		}
	}
}

// TestArrivalQueueMatchesReference is the queue's differential test:
// under the engine's drain contract (every push arrives at or after the
// last PopUntil limit) the queue pops exactly the reference's
// Before-sorted sequence. The last third of each run also pushes
// events that arrive before limits already drained, below the cursor:
// those break the contract, yet must still pop in order.
func TestArrivalQueueMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		q := newArrivalQueue(queueTestInterval)
		var ref refQueue
		popped, spilled := 0, 0
		gen := time.Duration(0)
		for i := 0; i < 60_000; i++ {
			ev := Event{GenTime: gen, Arrival: gen + queueDelay(rng, gen), Value: float64(i), Partition: i % 3}
			if i >= 40_000 && rng.Intn(10) == 0 {
				// Below the cursor: arrives before limits already drained.
				ev.Arrival = time.Duration(rng.Int63n(int64(gen) + 1))
			}
			if q.bucketOf(ev.Arrival) >= q.cursor+queueBuckets {
				spilled++
			}
			q.Push(ev)
			ref.Push(ev)
			// Drain to gen, sometimes skipping ahead a few intervals
			// first; later pushes then still arrive after the limit.
			limit := gen
			if rng.Intn(4) == 0 {
				gen += time.Duration(rng.Intn(5)) * queueTestInterval
				limit = gen
			}
			popped += drainBoth(t, &q, &ref, limit)
			gen += queueTestInterval
		}
		popped += drainBoth(t, &q, &ref, math.MaxInt64)
		if popped != 60_000 || q.Len() != 0 {
			t.Fatalf("seed %d: popped %d of 60000, %d left", seed, popped, q.Len())
		}
		if spilled == 0 {
			t.Fatalf("seed %d: no push went past the horizon", seed)
		}
	}
}

// TestArrivalQueueSpillOnly keeps the ring empty: every event arrives
// past the horizon, so each pop first jumps the cursor to the spill
// heap's minimum, which must wait until the limit reaches its bucket.
func TestArrivalQueueSpillOnly(t *testing.T) {
	q := newArrivalQueue(queueTestInterval)
	var ref refQueue
	for i := 0; i < 2_000; i++ {
		gen := time.Duration(i) * 100 * queueTestInterval
		ev := Event{GenTime: gen, Arrival: gen + 2*queueHorizon + time.Duration(i%7)*queueTestInterval}
		q.Push(ev)
		ref.Push(ev)
		drainBoth(t, &q, &ref, gen)
	}
	if n := drainBoth(t, &q, &ref, math.MaxInt64); n == 0 {
		t.Fatal("nothing left for the final drain")
	}
}

// TestArrivalQueueRestoreOrder checks appendOrdered against the
// reference and the restore path: re-pushing a mid-run queue's events
// into a fresh queue, in pop order or shuffled, pops the same sequence.
func TestArrivalQueueRestoreOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	q := newArrivalQueue(queueTestInterval)
	var ref refQueue
	gen := time.Duration(0)
	for i := 0; i < 20_000; i++ {
		ev := Event{GenTime: gen, Arrival: gen + queueDelay(rng, gen), Value: float64(i)}
		q.Push(ev)
		ref.Push(ev)
		drainBoth(t, &q, &ref, gen)
		gen += queueTestInterval
	}
	ordered := q.appendOrdered(nil)
	if len(ordered) != q.Len() {
		t.Fatalf("appendOrdered returned %d events, queue holds %d", len(ordered), q.Len())
	}
	for i := 1; i < len(ordered); i++ {
		if !ordered[i-1].Before(ordered[i]) {
			t.Fatalf("appendOrdered not in pop order at %d: %+v then %+v", i, ordered[i-1], ordered[i])
		}
	}
	shuffled := append([]Event(nil), ordered...)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	for _, order := range [][]Event{ordered, shuffled} {
		r := newArrivalQueue(queueTestInterval)
		for _, ev := range order {
			r.Push(ev)
		}
		var want refQueue
		for _, ev := range shuffled {
			want.Push(ev)
		}
		if n := drainBoth(t, &r, &want, math.MaxInt64); n != len(ordered) {
			t.Fatalf("restored queue popped %d of %d", n, len(ordered))
		}
	}
}

// BenchmarkArrivalQueue measures one push plus its drain per op with
// the paper's late-data shape: 50k events/s and exponential delays of
// 150 ms mean, so ~7,500 events are in flight. "heap" is the binary
// heap the queue replaced, kept as the spill level.
func BenchmarkArrivalQueue(b *testing.B) {
	const interval = 20 * time.Microsecond
	delays := make([]time.Duration, 1<<16)
	rng := rand.New(rand.NewSource(1))
	for i := range delays {
		delays[i] = time.Duration(rng.ExpFloat64() * float64(150*time.Millisecond))
	}
	b.Run("wheel", func(b *testing.B) {
		q := newArrivalQueue(interval)
		for i := 0; i < b.N; i++ {
			gen := time.Duration(i) * interval
			q.Push(Event{GenTime: gen, Arrival: gen + delays[i&(len(delays)-1)]})
			for {
				if _, ok := q.PopUntil(gen); !ok {
					break
				}
			}
		}
	})
	b.Run("heap", func(b *testing.B) {
		var h minHeap[Event]
		for i := 0; i < b.N; i++ {
			gen := time.Duration(i) * interval
			h.Push(Event{GenTime: gen, Arrival: gen + delays[i&(len(delays)-1)]})
			for h.Len() > 0 && h.Min().Arrival <= gen {
				h.Pop()
			}
		}
	})
}
