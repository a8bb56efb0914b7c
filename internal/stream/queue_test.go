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

// TestArrivalQueueRestoreMidBucket snapshots a queue whose staged
// bucket is partly popped: appendOrdered must emit only its unpopped
// events, ahead of the later buckets, and a queue restored from them
// pops the rest of the reference's sequence.
func TestArrivalQueueRestoreMidBucket(t *testing.T) {
	q := newArrivalQueue(queueTestInterval)
	var ref refQueue
	// Three events in one bucket (two tie on Arrival), one in a later
	// bucket, one past the horizon.
	for i, at := range []time.Duration{5, 5, 2, 40 * queueTestInterval, 2 * queueHorizon} {
		ev := Event{GenTime: time.Duration(i), Arrival: at, Value: float64(i)}
		q.Push(ev)
		ref.Push(ev)
	}
	for range 2 {
		got, ok := q.PopUntil(queueTestInterval)
		want, _ := ref.PopUntil(queueTestInterval)
		if !ok || got != want {
			t.Fatalf("PopUntil: got %+v,%v, want %+v", got, ok, want)
		}
	}
	if q.pos == 0 || q.pos == len(q.staged) {
		t.Fatalf("staged bucket not partly popped: pos %d of %d", q.pos, len(q.staged))
	}
	ordered := q.appendOrdered(nil)
	if len(ordered) != len(ref.evs) {
		t.Fatalf("appendOrdered returned %d events, want %d", len(ordered), len(ref.evs))
	}
	for i := range ordered {
		if ordered[i] != ref.evs[i] {
			t.Fatalf("appendOrdered[%d] = %+v, want %+v", i, ordered[i], ref.evs[i])
		}
	}
	r := newArrivalQueue(queueTestInterval)
	for _, ev := range ordered {
		r.Push(ev)
	}
	if n := drainBoth(t, &r, &ref, math.MaxInt64); n != len(ordered) {
		t.Fatalf("restored queue popped %d of %d", n, len(ordered))
	}
}

// FuzzArrivalQueue is the queue's differential fuzz target: every
// operation runs on the queue and on refQueue, and every pop must
// agree. Each pair of input bytes (op, arg) is one operation. op mod 8
// selects it; for a push, op's next two bits add one to four quarter
// intervals to the generation time first, so generation times are
// unique and Before is a total order:
//
//	0 push, arriving as generated
//	1 push, delayed arg eighths of an interval
//	2 push, tied on Arrival with the previous push (or on the next
//	  eight-interval grid point when that lies in the past)
//	3 push past the ring's horizon
//	4 push below the cursor: arriving at gen·arg/256
//	5 advance gen arg quarter intervals and drain up to it
//	6 pop up to 1 + arg mod 4 events arriving by gen, which can leave
//	  the staged bucket partly popped
//	7 check appendOrdered against the reference; with odd arg, restore
//	  it into a fresh queue that carries on in place of the old one
//
// Its seeds (testdata/fuzz/FuzzArrivalQueue) cover each case, a restore
// of a partly popped staged bucket among them.
func FuzzArrivalQueue(f *testing.F) {
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		q := newArrivalQueue(queueTestInterval)
		var ref refQueue
		var gen, last time.Duration
		for i := 0; i+1 < len(data); i += 2 {
			op, arg := data[i], time.Duration(data[i+1])
			if op%8 < 5 {
				gen += time.Duration(1+op>>3&3) * queueTestInterval / 4
				ev := Event{GenTime: gen, Arrival: gen, Value: float64(i)}
				switch op % 8 {
				case 1:
					ev.Arrival += arg * queueTestInterval / 8
				case 2:
					const grid = 8 * queueTestInterval
					ev.Arrival = last
					if last < gen {
						ev.Arrival = (gen/grid + 1) * grid
					}
				case 3:
					ev.Arrival += queueHorizon + arg*queueHorizon/16
				case 4:
					ev.Arrival = gen * arg / 256
				}
				last = ev.Arrival
				q.Push(ev)
				ref.Push(ev)
				continue
			}
			switch op % 8 {
			case 5:
				gen += arg * queueTestInterval / 4
				drainBoth(t, &q, &ref, gen)
			case 6:
				for range 1 + arg%4 {
					got, ok := q.PopUntil(gen)
					want, wok := ref.PopUntil(gen)
					if ok != wok || got != want {
						t.Fatalf("op %d: PopUntil(%v): got %+v,%v, want %+v,%v", i/2, gen, got, ok, want, wok)
					}
				}
			case 7:
				ordered := q.appendOrdered(nil)
				if len(ordered) != len(ref.evs) || q.Len() != len(ref.evs) {
					t.Fatalf("op %d: appendOrdered returned %d events, Len %d, want %d", i/2, len(ordered), q.Len(), len(ref.evs))
				}
				for j := range ordered {
					if ordered[j] != ref.evs[j] {
						t.Fatalf("op %d: appendOrdered[%d] = %+v, want %+v", i/2, j, ordered[j], ref.evs[j])
					}
				}
				if arg&1 == 1 {
					q = newArrivalQueue(queueTestInterval)
					for _, ev := range ordered {
						q.Push(ev)
					}
				}
			}
		}
		drainBoth(t, &q, &ref, math.MaxInt64)
		if q.Len() != 0 || len(ref.evs) != 0 {
			t.Fatalf("%d events left after the final drain, reference %d", q.Len(), len(ref.evs))
		}
	})
}

// BenchmarkArrivalQueue measures one push plus its drain per op at the
// paper's 50k events/s. "wheel" has its late-data shape: exponential
// delays of 150 ms mean, so ~7,500 events are in flight, and "heap"
// runs the same delays through the binary heap the queue replaced,
// kept as the spill level. In "spill" every delay lies past the ring's
// horizon, so each event goes through the spill heap and migrates into
// the ring. In "in-order" events arrive as generated, except one in 16
// that draws the 150 ms delay, so ~470 events are in flight while the
// rest pass straight through.
func BenchmarkArrivalQueue(b *testing.B) {
	const interval = 20 * time.Microsecond
	horizon := interval * queueBucketIntervals * queueBuckets // at least the ring's reach
	exp := make([]time.Duration, 1<<16)
	rng := rand.New(rand.NewSource(1))
	for i := range exp {
		exp[i] = time.Duration(rng.ExpFloat64() * float64(150*time.Millisecond))
	}
	shape := func(f func(i int, d time.Duration) time.Duration) []time.Duration {
		out := make([]time.Duration, len(exp))
		for i, d := range exp {
			out[i] = f(i, d)
		}
		return out
	}
	wheel := func(delays []time.Duration) func(*testing.B) {
		return func(b *testing.B) {
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
		}
	}
	b.Run("wheel", wheel(exp))
	b.Run("heap", func(b *testing.B) {
		var h minHeap[Event]
		for i := 0; i < b.N; i++ {
			gen := time.Duration(i) * interval
			h.Push(Event{GenTime: gen, Arrival: gen + exp[i&(len(exp)-1)]})
			for h.Len() > 0 && h.Min().Arrival <= gen {
				h.Pop()
			}
		}
	})
	b.Run("spill", wheel(shape(func(_ int, d time.Duration) time.Duration { return horizon + d })))
	b.Run("in-order", wheel(shape(func(i int, d time.Duration) time.Duration {
		if i%16 == 0 {
			return d
		}
		return 0
	})))
}
