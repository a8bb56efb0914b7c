package stats

import (
	"math"
	"slices"
)

// flagSortMax is the bucket size at or below which SortFloat64 hands a
// bucket to slices.Sort instead of another radix pass, whose 4 KiB of
// digit counts cost more than a comparison sort of so few values
// (BenchmarkSortFloat64).
const flagSortMax = 64

// SortFloat64 sorts b ascending in place, in the order sort.Float64s
// gives: NaNs first, then every other value by <. It is an MSD radix
// sort (American flag sort) on the order-preserving uint64 key of each
// value's bits, one byte per pass, so it allocates nothing: the digit
// counts live on the stack and buckets are permuted in place; buckets
// of at most flagSortMax values go to slices.Sort. Every element comes
// out equal to sort.Float64s's at its position, except that −0 and +0,
// which compare equal, may come out in either order, and NaNs keep no
// particular order among themselves.
func SortFloat64(b []float64) {
	nan := 0
	for i, v := range b {
		if math.IsNaN(v) {
			b[i], b[nan] = b[nan], v
			nan++
		}
	}
	flagSort(b[nan:], 56)
}

// floatKey64 maps float64 bits to a uint64 whose unsigned order is the
// float order for every non-NaN value: negatives have all bits flipped,
// non-negatives only the sign bit. −0 maps just below +0.
func floatKey64(v float64) uint64 {
	u := math.Float64bits(v)
	return u ^ (uint64(int64(u)>>63) | 1<<63)
}

// flagSort sorts b, which holds no NaN and whose keys agree on every
// bit above shift+8, by the key byte at shift and then, bucket by
// bucket, the bytes below it.
func flagSort(b []float64, shift uint) {
	for len(b) > flagSortMax {
		var head, tail [256]int
		for _, v := range b {
			tail[floatKey64(v)>>shift&0xff]++
		}
		if tail[floatKey64(b[0])>>shift&0xff] == len(b) {
			// Every key shares this byte: no pass needed.
			if shift == 0 {
				return // all keys, and so all values, are equal
			}
			shift -= 8
			continue
		}
		sum := 0
		for d, c := range tail {
			head[d] = sum
			sum += c
			tail[d] = sum
		}
		// Place each bucket's unplaced items: an item of another bucket
		// moves to that bucket's next free slot, displacing the item
		// there, until the cycle brings back an item of this bucket.
		for d := range head {
			for head[d] < tail[d] {
				v := b[head[d]]
				for dd := floatKey64(v) >> shift & 0xff; dd != uint64(d); dd = floatKey64(v) >> shift & 0xff {
					b[head[dd]], v = v, b[head[dd]]
					head[dd]++
				}
				b[head[d]] = v
				head[d]++
			}
		}
		if shift == 0 {
			return
		}
		start := 0
		for _, end := range tail {
			if end-start > 1 {
				flagSort(b[start:end], shift-8)
			}
			start = end
		}
		return
	}
	slices.Sort(b)
}
