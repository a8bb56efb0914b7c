package sketch

import (
	"math"
	"slices"
)

// Size classes of SortFloat32, set from BenchmarkSortFloat32 (the
// numbers are in DESIGN.md §13, "Level-0 sort"). Up to insertionMax
// items an inlined insertion sort runs; from radixMin to radixMax an
// LSD radix sort on the float bits; between and above them slices.Sort
// (pdqsort), whose cost, unlike insertion sort's, does not depend on
// the input order. radixMax also sizes the radix scratch, which lives
// on the stack.
const (
	insertionMax = 12
	radixMin     = 40
	radixMax     = 512
)

// SortFloat32 is the sort kernel of the level-based samplers (KLL,
// ReqSketch) and of LevelView: it sorts b ascending. b must hold no
// NaN, which a level never does: the samplers' Insert drops NaNs and
// ValidLevels rejects them on decode. On such input every class gives
// the same order as slices.Sort, except that −0 and +0, which compare
// equal, may come out in either order (the radix class puts −0 first).
//
//sketch:hotpath
func SortFloat32(b []float32) {
	switch n := len(b); {
	case n <= insertionMax:
		insertionSortFloat32(b)
	case n < radixMin || n > radixMax:
		slices.Sort(b)
	default:
		radixSortFloat32(b)
	}
}

// insertionSortFloat32 sorts b by straight insertion, shifting rather
// than swapping. Up to 12 items slices.Sort runs insertion sort too,
// by swaps, so this is its cheaper form, on every input order.
func insertionSortFloat32(b []float32) {
	for i := 1; i < len(b); i++ {
		v := b[i]
		j := i
		for ; j > 0 && b[j-1] > v; j-- {
			b[j] = b[j-1]
		}
		b[j] = v
	}
}

// floatKey maps float32 bits to a uint32 whose unsigned order is the
// float order for every non-NaN value: negatives have all bits flipped
// (larger magnitude, smaller key), non-negatives only the sign bit.
// −0 maps just below +0.
func floatKey(v float32) uint32 {
	u := math.Float32bits(v)
	return u ^ (uint32(int32(u)>>31) | 1<<31)
}

// keyFloat inverts floatKey.
func keyFloat(k uint32) float32 {
	return math.Float32frombits(k ^ (uint32(int32(^k)>>31) | 1<<31))
}

// radixSortFloat32 sorts 0 < len(b) ≤ radixMax values by an LSD radix
// sort of their floatKeys, one byte per pass. The four digit
// histograms are built in one read of b and packed side by side, one
// 16-bit lane per pass in each digit's uint64 (a count never exceeds
// radixMax), so a single prefix-sum walk turns all four into offsets.
// A pass whose digit is the same for every key is skipped: values
// sharing a sign and exponent skip the top one. The keys ping-pong
// between two stack arrays, so the sort allocates nothing.
//
//sketch:hotpath
func radixSortFloat32(b []float32) {
	var bufA, bufB [radixMax]uint32
	var counts [256]uint64 // lane p (bits 16p to 16p+15) counts digit p
	n := len(b)
	src, dst := &bufA, &bufB
	for i, v := range b {
		k := floatKey(v)
		src[i] = k
		counts[k&0xff] += 1
		counts[k>>8&0xff] += 1 << 16
		counts[k>>16&0xff] += 1 << 32
		counts[k>>24] += 1 << 48
	}
	// skip has bit p set when every key shares the first key's digit p.
	var skip uint
	for p := uint(0); p < 4; p++ {
		if counts[src[0]>>(8*p)&0xff]>>(16*p)&0xffff == uint64(n) {
			skip |= 1 << p
		}
	}
	var sum uint64
	for d, c := range &counts {
		counts[d] = sum
		sum += c
	}
	// One call site per pass: a single loop serving all four passes
	// reads, in pass p+1, the keys it stored in pass p, and the CPU then
	// stops running its loads ahead of earlier stores (1.5× slower at
	// n = 47 on a Xeon).
	if skip&1 == 0 {
		radixPass(src[:n], dst, &counts, 0)
		src, dst = dst, src
	}
	if skip&2 == 0 {
		radixPass(src[:n], dst, &counts, 1)
		src, dst = dst, src
	}
	if skip&4 == 0 {
		radixPass(src[:n], dst, &counts, 2)
		src, dst = dst, src
	}
	if skip&8 == 0 {
		radixPass(src[:n], dst, &counts, 3)
		src = dst
	}
	for i := range b {
		b[i] = keyFloat(src[i&(radixMax-1)])
	}
}

// radixPass scatters src into dst by digit p of each key, advancing
// lane p of counts from each digit's first offset. It inlines, so p is
// a constant at each call site.
func radixPass(src []uint32, dst *[radixMax]uint32, counts *[256]uint64, p uint) {
	shift, lane := 8*p, 16*p
	for _, k := range src {
		d := k >> shift & 0xff
		dst[counts[d]>>lane&(radixMax-1)] = k
		counts[d] += 1 << lane
	}
}

// MergeRun merges the m ascending items run[0], run[2], …, run[2(m−1)]
// into the ascending dst and returns the result: a compaction promotes
// every other item of a sorted region, so its output is such a run.
// dst grows exactly as m single appends would grow it, so the allocated
// capacity (which Footprint reports) is what appending the run would
// leave. The merge runs backward in place, largest items first; run
// must not share dst's array.
func MergeRun(dst, run []float32, m int) []float32 {
	n := len(dst)
	for cap(dst) < n+m {
		dst = append(dst[:cap(dst)], 0)
	}
	dst = dst[:n+m]
	i, j := n-1, m-1
	for k := n + m - 1; j >= 0; k-- {
		if i >= 0 && dst[i] > run[2*j] {
			dst[k] = dst[i]
			i--
		} else {
			dst[k] = run[2*j]
			j--
		}
	}
	return dst
}
