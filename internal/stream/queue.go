package stream

import (
	"math/bits"
	"slices"
	"time"
)

// Arrival-queue geometry. A bucket is the largest power-of-two number
// of nanoseconds within queueBucketIntervals source intervals (8 to 16
// of them), and the ring holds queueBuckets buckets. At the paper's
// 50k events/s a bucket is 262 µs (13.1 intervals) and the ring's
// horizon 537 ms, ~3.6 mean delays of its 150 ms exponential: ~3% of
// arrivals go to the spill heap.
const (
	queueBuckets         = 2048 // ring slots; a power of two
	queueMask            = queueBuckets - 1
	queueBucketIntervals = 16
)

// noNode marks an empty bucket or the end of a bucket's list.
const noNode = -1

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

// after reports whether the node's event sorts strictly after ev.
func (n *queueNode) after(ev Event) bool {
	return ev.Before(Event{GenTime: n.gen, Arrival: n.arrival})
}

// arrivalQueue is the engine's reorder buffer: it holds the in-flight
// events and releases them in Event.Before order. It is a hashed timing
// wheel (Varghese & Lauck, SOSP 1987) sized from the source rate, in
// place of a binary heap whose every pop sifts log2(in-flight) levels.
//
// The ring maps absolute bucket b = Arrival >> shift to slot b mod
// queueBuckets and covers buckets [cursor, cursor+queueBuckets). Each
// bucket is a list sorted by Before, threaded through a free-listed
// node pool by int32 index, so steady-state pushes and pops allocate
// nothing. Arrivals past the ring's horizon wait in a spill minHeap and
// migrate into the ring as the cursor advances; an arrival below the
// cursor joins the cursor's bucket, whose sorted list still yields it
// first. Before is a total order, so the pop sequence is exactly a
// binary heap's.
//
// PopUntil never moves the cursor past its limit's bucket. Under the
// drain contract (every later push arrives at or after the last limit)
// pushes therefore land at or ahead of the cursor.
type arrivalQueue struct {
	shift  uint    // log2 of the bucket width in ns
	cursor int64   // absolute bucket index of the ring's first slot
	ring   int     // events in the ring (excluding the spill heap)
	heads  []int32 // per ring slot: first node or noNode; allocated by the first Push
	nodes  []queueNode
	free   int32 // free-list head, or noNode
	spill  minHeap[Event]
}

// newArrivalQueue returns an empty queue for a source emitting one
// event per interval.
func newArrivalQueue(interval time.Duration) arrivalQueue {
	return arrivalQueue{
		shift: uint(bits.Len64(uint64(interval*queueBucketIntervals))) - 1,
		free:  noNode,
	}
}

// Len reports the number of buffered events.
func (q *arrivalQueue) Len() int { return q.ring + q.spill.Len() }

// bucketOf is the absolute bucket index of time t.
func (q *arrivalQueue) bucketOf(t time.Duration) int64 { return int64(t) >> q.shift }

// Push adds ev.
//
//sketch:hotpath
func (q *arrivalQueue) Push(ev Event) {
	if q.heads == nil {
		q.heads = make([]int32, queueBuckets)
		for i := range q.heads {
			q.heads[i] = noNode
		}
	}
	b := q.bucketOf(ev.Arrival)
	if b >= q.cursor+queueBuckets {
		q.spill.Push(ev)
		return
	}
	if b < q.cursor {
		b = q.cursor
	}
	q.insert(int(b&queueMask), ev)
}

// insert links ev into slot's list at its Before position. Events
// arrive at the source rate on average, so a list holds about as many
// events as its bucket spans source intervals (8 to 16).
func (q *arrivalQueue) insert(slot int, ev Event) {
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
	nd.part, nd.next = int32(ev.Partition), noNode
	q.ring++
	h := q.heads[slot]
	if h == noNode || q.nodes[h].after(ev) {
		nd.next = h
		q.heads[slot] = n
		return
	}
	prev := h
	for {
		next := q.nodes[prev].next
		if next == noNode || q.nodes[next].after(ev) {
			nd.next = next
			q.nodes[prev].next = n
			return
		}
		prev = next
	}
}

// PopUntil removes and returns the smallest event if it arrives at or
// before limit; otherwise it reports false and leaves the queue as it
// was, apart from advancing the cursor to at most limit's bucket.
//
//sketch:hotpath
func (q *arrivalQueue) PopUntil(limit time.Duration) (Event, bool) {
	for q.ring > 0 || q.spill.Len() > 0 {
		slot := q.cursor & queueMask
		if h := q.heads[slot]; h != noNode {
			nd := &q.nodes[h]
			if nd.arrival > limit {
				break
			}
			ev := nd.event()
			q.heads[slot] = nd.next
			nd.next = q.free
			q.free = h
			q.ring--
			return ev, true
		}
		if !q.advance(limit) {
			break
		}
	}
	return Event{}, false
}

// advance moves the cursor off its empty bucket toward the next event,
// provided that event's bucket is at or below limit's: one slot at a
// time while the ring holds events, straight to the spill heap's
// minimum when it does not. It reports whether the cursor moved.
func (q *arrivalQueue) advance(limit time.Duration) bool {
	lb := q.bucketOf(limit)
	if q.ring > 0 {
		if q.cursor >= lb {
			return false
		}
		q.cursor++
	} else {
		b := q.bucketOf(q.spill.Min().Arrival)
		if b > lb {
			return false
		}
		q.cursor = b
	}
	// Spilled events whose bucket the ring now covers move in, in
	// ascending order.
	end := q.cursor + queueBuckets
	for q.spill.Len() > 0 {
		b := q.bucketOf(q.spill.Min().Arrival)
		if b >= end {
			break
		}
		q.insert(int(b&queueMask), q.spill.Pop())
	}
	return true
}

// appendOrdered appends every buffered event to dst in pop order,
// leaving the queue unchanged.
func (q *arrivalQueue) appendOrdered(dst []Event) []Event {
	if q.Len() == 0 {
		return dst
	}
	for i := int64(0); i < queueBuckets; i++ {
		for n := q.heads[(q.cursor+i)&queueMask]; n != noNode; n = q.nodes[n].next {
			dst = append(dst, q.nodes[n].event())
		}
	}
	// Every spilled event's bucket lies past the ring's last slot.
	start := len(dst)
	dst = append(dst, q.spill.data...)
	slices.SortFunc(dst[start:], func(a, b Event) int {
		if a.Before(b) {
			return -1
		}
		if b.Before(a) {
			return 1
		}
		return 0
	})
	return dst
}
