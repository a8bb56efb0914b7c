package stream

// heapOrdered constrains heap elements to types that define their own
// strict weak ordering. The method receives the other element by value,
// so comparisons compile to direct (inlinable) calls.
type heapOrdered[T any] interface {
	// Before reports whether the receiver sorts strictly before other.
	Before(other T) bool
}

// minHeap is a non-boxing binary min-heap: the arrival queue's spill
// level, holding events whose arrival lies past the ring's horizon.
// It replaces container/heap, which funnels every element through
// `any` (one allocation per Push and per Pop) and every comparison
// through a non-inlinable interface call. sketchlint's container-heap
// rule keeps this package from regressing to the boxed version.
type minHeap[T heapOrdered[T]] struct {
	data []T
}

// Len reports the number of buffered elements.
func (h *minHeap[T]) Len() int { return len(h.data) }

// Min returns the smallest element without removing it. It must not be
// called on an empty heap.
func (h *minHeap[T]) Min() T { return h.data[0] }

// Push adds x.
//
//sketch:hotpath
func (h *minHeap[T]) Push(x T) {
	h.data = append(h.data, x)
	// Sift up.
	i := len(h.data) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.data[i].Before(h.data[parent]) {
			break
		}
		h.data[i], h.data[parent] = h.data[parent], h.data[i]
		i = parent
	}
}

// Pop removes and returns the smallest element. It must not be called
// on an empty heap.
//
//sketch:hotpath
func (h *minHeap[T]) Pop() T {
	d := h.data
	top := d[0]
	n := len(d) - 1
	d[0] = d[n]
	var zero T
	d[n] = zero // release references held by the vacated slot
	h.data = d[:n]

	// Sift down.
	d = h.data
	i := 0
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		small := left
		if right := left + 1; right < n && d[right].Before(d[left]) {
			small = right
		}
		if !d[small].Before(d[i]) {
			break
		}
		d[i], d[small] = d[small], d[i]
		i = small
	}
	return top
}
