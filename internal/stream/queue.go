package stream

import (
	"math/bits"
	"slices"
	"time"
)

// Arrival-queue geometry. A bucket is the largest power-of-two number
// of nanoseconds within queueBucketIntervals source intervals (1 to 2
// of them), and the ring holds queueBuckets buckets. At the paper's
// 50k events/s a bucket is 32.8 µs (1.6 intervals) and the ring's
// horizon 537 ms, ~3.6 mean delays of its 150 ms exponential: ~3% of
// arrivals go to the spill heap.
const (
	queueBuckets         = 16384 // ring slots; a power of two
	queueMask            = queueBuckets - 1
	queueBucketIntervals = 2
)

// noNode marks an empty bucket or the end of a bucket's list. Node 0 is
// a sentinel that is never linked, so a freshly allocated (zeroed) ring
// is all empty buckets.
const noNode = 0

// queueNode is one in-flight event in a bucket's singly linked list.
// It packs the partition and the link into one word so a node is no
// larger than the Event it holds: the pool is the queue's footprint.
// Partition indices fit in int32 (a sink with 2^31 partitions would
// not fit in memory).
type queueNode struct {
	gen, arrival time.Duration
	value        float64
	part         int32
	next         int32 // index of the next node in nodes, or noNode
}

// event unpacks the node's event.
func (n *queueNode) event() Event {
	return Event{GenTime: n.gen, Arrival: n.arrival, Value: n.value, Partition: int(n.part)}
}

// arrivalQueue is the engine's reorder buffer: it holds the in-flight
// events and releases them in Event.Before order. It is a hashed timing
// wheel (Varghese & Lauck, SOSP 1987) sized from the source rate, in
// place of a binary heap whose every pop sifts log2(in-flight) levels.
//
// The ring maps absolute bucket b = Arrival >> shift to slot b mod
// queueBuckets and covers buckets [cursor, cursor+queueBuckets). A
// bucket ahead of the cursor is an unsorted list, threaded through a
// free-listed node pool by int32 index: a push links its event at the
// list's head. When the cursor reaches a bucket, its events (one or
// two at the source rate) move once into the staged run, a slice kept
// sorted by Before, and pops take the run's front. A push at or below
// the cursor joins the staged run at its Before position. Steady-state
// pushes and pops allocate nothing. Arrivals past the ring's horizon
// wait in a spill minHeap and migrate into the ring as the cursor
// advances. Every event in the staged run lies in a bucket at or below
// the cursor and every linked one above it, so popping the run's front
// and staging the next bucket only once the run is empty yields the
// exact Before order: Before is a total order, so the pop sequence is
// exactly a binary heap's.
//
// PopUntil never moves the cursor past its limit's bucket. Under the
// drain contract (every later push arrives at or after the last limit)
// pushes therefore land at or ahead of the cursor.
//
// The queue lives inside runState, whose size TestRunStateSizeClass
// pins, so shift and free share a word and heads is a pointer to a
// fixed array rather than a slice.
type arrivalQueue struct {
	shift  uint32               // log2 of the bucket width in ns
	free   int32                // free-list head, or noNode
	cursor int64                // absolute bucket index of the ring's first slot
	ring   int                  // events in the ring: staged and linked (excluding the spill heap)
	heads  *[queueBuckets]int32 // per ring slot: first node or noNode; allocated by the first Push
	nodes  []queueNode
	// staged is the cursor's bucket, sorted by Before; staged[:pos]
	// are already popped.
	staged []Event
	pos    int
	spill  minHeap[Event]
}

// newArrivalQueue returns an empty queue for a source emitting one
// event per interval.
func newArrivalQueue(interval time.Duration) arrivalQueue {
	return arrivalQueue{shift: uint32(bits.Len64(uint64(interval*queueBucketIntervals))) - 1}
}

// Len reports the number of buffered events.
func (q *arrivalQueue) Len() int { return q.ring + q.spill.Len() }

// bucketOf is the absolute bucket index of time t.
func (q *arrivalQueue) bucketOf(t time.Duration) int64 { return int64(t) >> q.shift }

// Push adds ev: into the staged run if its bucket is at or below the
// cursor, at its bucket's head if the ring covers it, else into the
// spill heap.
//
//sketch:hotpath
func (q *arrivalQueue) Push(ev Event) {
	if q.heads == nil {
		q.heads = new([queueBuckets]int32)
		q.nodes = make([]queueNode, 1)
	}
	switch b := q.bucketOf(ev.Arrival); {
	case b <= q.cursor:
		q.stage(ev)
	case b < q.cursor+queueBuckets:
		q.link(int(b&queueMask), ev)
	default:
		q.spill.Push(ev)
		return
	}
	q.ring++
}

// link adds ev at the head of slot's list.
//
//sketch:hotpath
func (q *arrivalQueue) link(slot int, ev Event) {
	var n int32
	if q.free != noNode {
		n = q.free
		q.free = q.nodes[n].next
	} else {
		n = int32(len(q.nodes))
		q.nodes = append(q.nodes, queueNode{})
	}
	// Field by field: a composite-literal store goes through a stack
	// temporary whose wide reload stalls store forwarding.
	nd := &q.nodes[n]
	nd.gen, nd.arrival, nd.value = ev.GenTime, ev.Arrival, ev.Value
	nd.part, nd.next = int32(ev.Partition), q.heads[slot]
	q.heads[slot] = n
}

// stage inserts ev into the unpopped part of the staged run at its
// Before position, searching from the back: a bucket holds a source
// interval or two of arrivals, so the search is a step or two.
//
//sketch:hotpath
func (q *arrivalQueue) stage(ev Event) {
	s := append(q.staged, ev)
	i := len(s) - 1
	for ; i > q.pos && ev.Before(s[i-1]); i-- {
		s[i] = s[i-1]
	}
	s[i] = ev
	q.staged = s
}

// PopUntil removes and returns the smallest event if it arrives at or
// before limit; otherwise it reports false and leaves the queue as it
// was, apart from advancing the cursor to at most limit's bucket.
//
//sketch:hotpath
func (q *arrivalQueue) PopUntil(limit time.Duration) (Event, bool) {
	for {
		if q.pos < len(q.staged) {
			if q.staged[q.pos].Arrival > limit {
				return Event{}, false
			}
			ev := q.staged[q.pos]
			q.pos++
			if q.pos == len(q.staged) {
				q.staged, q.pos = q.staged[:0], 0
			}
			q.ring--
			return ev, true
		}
		if !q.advance(limit) {
			return Event{}, false
		}
	}
}

// advance moves the cursor off its bucket, whose staged run is empty,
// toward the next event, provided that event's bucket is at or below
// limit's: one slot at a time while the ring holds events, straight to
// the spill heap's minimum when it does not. It then stages the new
// cursor bucket's list and migrates the spilled events the ring now
// covers. It reports whether the cursor moved.
func (q *arrivalQueue) advance(limit time.Duration) bool {
	lb := q.bucketOf(limit)
	switch {
	case q.ring > 0:
		if q.cursor >= lb {
			return false
		}
		q.cursor++
	case q.spill.Len() > 0:
		b := q.bucketOf(q.spill.Min().Arrival)
		if b > lb {
			return false
		}
		q.cursor = b
	default:
		return false
	}
	slot := q.cursor & queueMask
	for n := q.heads[slot]; n != noNode; {
		nd := &q.nodes[n]
		q.stage(nd.event())
		next := nd.next
		nd.next = q.free
		q.free = n
		n = next
	}
	q.heads[slot] = noNode
	// Spilled events whose bucket the ring now covers move in, in
	// ascending order.
	end := q.cursor + queueBuckets
	for q.spill.Len() > 0 && q.bucketOf(q.spill.Min().Arrival) < end {
		q.Push(q.spill.Pop())
	}
	return true
}

// appendOrdered appends every buffered event to dst in pop order,
// leaving the queue unchanged: the staged run's unpopped events, then
// each later bucket sorted, then the spill heap sorted.
func (q *arrivalQueue) appendOrdered(dst []Event) []Event {
	if q.Len() == 0 {
		return dst
	}
	dst = append(dst, q.staged[q.pos:]...)
	for i := int64(1); i < queueBuckets; i++ {
		start := len(dst)
		for n := q.heads[(q.cursor+i)&queueMask]; n != noNode; n = q.nodes[n].next {
			dst = append(dst, q.nodes[n].event())
		}
		// Most buckets hold one event or none.
		if len(dst)-start > 1 {
			slices.SortFunc(dst[start:], compareEvents)
		}
	}
	// Every spilled event's bucket lies past the ring's last slot.
	start := len(dst)
	dst = append(dst, q.spill.data...)
	slices.SortFunc(dst[start:], compareEvents)
	return dst
}

// compareEvents orders events by Before.
func compareEvents(a, b Event) int {
	if a.Before(b) {
		return -1
	}
	if b.Before(a) {
		return 1
	}
	return 0
}
