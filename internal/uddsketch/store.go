package uddsketch

import (
	"math"
	"sort"
	"sync"
)

// store holds the buckets of one sign: bucket index → count, every
// count positive. Sketch runs insert, collapse, merge, query and serde
// once over this interface. Two stores implement it: mapStore, the
// paper's, which every constructor but NewDense uses, and denseStore.
type store interface {
	// add adds c > 0 to bucket i and reports whether that made a new
	// bucket.
	add(i int, c int64) bool
	// len reports the live bucket count.
	len() int
	// ascending yields every bucket in index order.
	ascending(yield func(i int, c int64) bool)
	// addTo adds round(c·g) of every bucket — c itself at g = 1 — to
	// dst's bucket ⌈i/2^shift⌉, skipping counts that round to 0, and
	// returns the total added. A nil dst only counts. It walks the
	// concrete store, so a merge allocates nothing.
	addTo(dst store, g float64, shift int) int64
	// collapse moves every bucket to ⌈i/2⌉ in place: one uniform
	// collapse.
	collapse()
	// rebuilt returns a new store holding each bucket at ⌈i/2^d⌉ and
	// sized to fit them; Degrade and Trim hand memory back through it.
	rebuilt(d int) store
	// bytes reports the store's share of Sketch.MemoryBytes: its
	// buckets plus half of the sketch's fixed bookkeeping.
	bytes() int
}

// ceilShift computes ⌈i/2^d⌉ for signed i: the bucket that index i
// lands in after d uniform collapses. An arithmetic shift floors, so
// negating around it ceils; for d ≥ 64 it yields 1 for positive i and 0
// otherwise, the fixed points of repeated ⌈i/2⌉.
func ceilShift(i, d int) int { return -(-i >> d) }

// mapStore is the paper's store: UDDSketch's reference implementation
// keeps its buckets in a hash map, and the study attributes UDDSketch's
// slow inserts and merges to it (Sec 4.4.1/4.4.3).
type mapStore map[int]int64

func (m mapStore) add(i int, c int64) bool {
	n := len(m)
	m[i] += c
	return len(m) > n
}

func (m mapStore) len() int { return len(m) }

func (m mapStore) addTo(dst store, g float64, shift int) int64 {
	var total int64
	if d, ok := dst.(mapStore); ok && g == 1 && shift == 0 {
		// The paper's merge at one collapse level moves no index: a
		// plain loop spares each bucket the interface call and the
		// weight and shift tests.
		for i, c := range m {
			d[i] += c
			total += c
		}
		return total
	}
	if _, ok := dst.(*denseStore); ok {
		// A dense store's layout follows the order it is handed
		// buckets in, so it is handed them in index order.
		m.ascending(func(i int, c int64) bool {
			total += addBucket(dst, i, c, g, shift)
			return true
		})
		return total
	}
	for i, c := range m {
		total += addBucket(dst, i, c, g, shift)
	}
	return total
}

// addBucket is one bucket of addTo: it adds round(c·g) to dst's bucket
// ⌈i/2^shift⌉ and returns it.
func addBucket(dst store, i int, c int64, g float64, shift int) int64 {
	if g != 1 {
		c = int64(math.Round(float64(c) * g))
		if c <= 0 {
			return 0
		}
	}
	if dst != nil {
		dst.add(ceilShift(i, shift), c)
	}
	return c
}

func (m mapStore) ascending(yield func(int, int64) bool) {
	keys := make([]int, 0, len(m))
	for i := range m {
		keys = append(keys, i)
	}
	sort.Ints(keys)
	for _, i := range keys {
		if !yield(i, m[i]) {
			return
		}
	}
}

// bucket is one (index, count) pair of a map store.
type bucket struct {
	i int
	c int64
}

// collapseScratch holds the (index, count) buffers that in-place
// collapses stage a map's buckets through. No sketch keeps one, so an
// idle sketch holds no memory beyond its stores.
var collapseScratch = sync.Pool{New: func() any { return new([]bucket) }}

// collapse stages the buckets in a pooled buffer, clears the map —
// which keeps its capacity — and refills it at ⌈i/2⌉, so a warm sketch
// collapses without allocating.
func (m mapStore) collapse() {
	buf := collapseScratch.Get().(*[]bucket)
	staged := (*buf)[:0]
	for i, c := range m {
		staged = append(staged, bucket{i, c})
	}
	clear(m)
	for _, b := range staged {
		m[ceilShift(b.i, 1)] += b.c
	}
	*buf = staged
	collapseScratch.Put(buf)
}

// rebuilt sizes a fresh map to the surviving buckets. A map keeps the
// capacity of its fullest moment through in-place collapses, and only
// a new map releases it.
func (m mapStore) rebuilt(d int) store {
	neu := make(mapStore, ceilShift(len(m), d))
	for i, c := range m {
		neu[ceilShift(i, d)] += c
	}
	return neu
}

// bytes is the paper's accounting for a map store (Sec 4.3): a map
// index, a bucket index and a count per bucket, plus 4 of the sketch's
// 8 numbers of bookkeeping.
func (m mapStore) bytes() int { return 8 * (3*len(m) + 4) }

// maxDecodeSpan caps the index span a decoded dense store may cover:
// the decoder would otherwise allocate whatever span an envelope names.
// Inserts are not capped; the span they reach is the dense store's
// documented cost.
const maxDecodeSpan = 1 << 22

// denseStore is a contiguous count array over the index span, the
// layout the ablation tests the paper's causal claim with. At
// UDDSketch's tiny initial α the span can reach millions of slots
// before the first collapses shrink it, which is why the reference
// implementation chose a map; the dense store pays that memory to win
// steady-state speed.
type denseStore struct {
	counts  []int64 // counts[k] is bucket offset+k
	offset  int
	nonZero int
}

func (d *denseStore) add(i int, c int64) bool {
	if d.counts == nil {
		d.counts = make([]int64, 64)
		d.offset = i - 32
	}
	k := i - d.offset
	for k < 0 || k >= len(d.counts) {
		d.grow(i)
		k = i - d.offset
	}
	grew := d.counts[k] == 0
	if grew {
		d.nonZero++
	}
	d.counts[k] += c
	return grew
}

// grow re-centres the array over the union of the current span and i,
// with 50% headroom so repeated range extensions amortize to O(1) per
// insert.
func (d *denseStore) grow(i int) {
	lo, hi := min(d.offset, i), max(d.offset+len(d.counts)-1, i)
	span := hi - lo + 1
	n := max(span+span/2, roundUp64(span))
	grown := make([]int64, n)
	offset := lo - (n-span)/2
	copy(grown[d.offset-offset:], d.counts)
	d.counts, d.offset = grown, offset
}

func roundUp64(n int) int { return (n + 63) / 64 * 64 }

func (d *denseStore) len() int { return d.nonZero }

func (d *denseStore) addTo(dst store, g float64, shift int) int64 {
	var total int64
	for k, c := range d.counts {
		if c != 0 {
			total += addBucket(dst, d.offset+k, c, g, shift)
		}
	}
	return total
}

func (d *denseStore) ascending(yield func(int, int64) bool) {
	for k, c := range d.counts {
		if c != 0 && !yield(d.offset+k, c) {
			return
		}
	}
}

func (d *denseStore) collapse() { *d = d.folded(1) }

// rebuilt at d = 0 returns the store itself: its allocation is its
// array, which bytes already reports.
func (d *denseStore) rebuilt(levels int) store {
	if levels == 0 {
		return d
	}
	f := d.folded(levels)
	return &f
}

// folded returns the store after levels uniform collapses, in a new
// array spanning the old array's span collapsed, rounded up to 64
// slots.
func (d *denseStore) folded(levels int) denseStore {
	if d.counts == nil {
		return denseStore{}
	}
	lo, hi := ceilShift(d.offset, levels), ceilShift(d.offset+len(d.counts)-1, levels)
	span := hi - lo + 1
	f := denseStore{counts: make([]int64, roundUp64(span))}
	f.offset = lo - (len(f.counts)-span)/2
	for k, c := range d.counts {
		if c == 0 {
			continue
		}
		j := ceilShift(d.offset+k, levels) - f.offset
		if f.counts[j] == 0 {
			f.nonZero++
		}
		f.counts[j] += c
	}
	return f
}

// bytes is the allocated array plus 5 of the sketch's 10 numbers of
// bookkeeping; the accounting difference from the map store is itself
// part of the ablation.
func (d *denseStore) bytes() int { return 8 * (len(d.counts) + 5) }
