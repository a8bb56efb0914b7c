// Package hdr implements the HDR Histogram (Tene), the modern
// linear-within-exponential histogram the study surveys in Sec 5.2.2:
// values in a configured trackable range are bucketed so that every
// recorded value is resolved to the configured number of significant
// decimal digits, giving a relative-accuracy style guarantee like
// DDSketch's.
//
// The study cites Masson et al.'s comparison — HDR ≈ DDSketch on
// accuracy and insertion speed, worse on merge speed and total size —
// as the reason HDR is excluded from the main evaluation; this
// implementation lets the `related` experiment verify that claim.
//
// Layout (faithful to the reference design): values are split into
// exponential "buckets" (each covering a power-of-two range) and, within
// each bucket, subBucketCount linear sub-buckets; subBucketCount is the
// smallest power of two ≥ 2·10^digits, which bounds the relative
// quantization error by 10^−digits.
package hdr

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/sketch"
)

// Histogram is an HDR histogram over an integer value range. Float
// streams are recorded at a configured unit scale (e.g. microseconds).
type Histogram struct {
	lowest  int64 // lowest discernible value (≥ 1)
	highest int64 // highest trackable value
	digits  int   // significant decimal digits (1..5)

	subBucketCount     int
	subBucketHalfCount int
	subBucketMask      int64
	unitMagnitude      uint
	bucketCount        int

	counts []int64
	total  int64
	min    int64
	max    int64
}

var _ sketch.Sketch = (*Histogram)(nil)

// New returns an HDR histogram tracking values in [lowest, highest] at
// the given significant decimal digits.
func New(lowest, highest int64, digits int) (*Histogram, error) {
	if lowest < 1 {
		return nil, fmt.Errorf("hdr: lowest discernible value must be >= 1, got %d", lowest)
	}
	if highest < 2*lowest {
		return nil, fmt.Errorf("hdr: highest (%d) must be >= 2*lowest (%d)", highest, lowest)
	}
	if digits < 1 || digits > 5 {
		return nil, fmt.Errorf("hdr: significant digits must be in [1,5], got %d", digits)
	}
	h := &Histogram{lowest: lowest, highest: highest, digits: digits, min: math.MaxInt64}
	largest := 2 * int64(math.Pow(10, float64(digits)))
	subBucketCountMag := uint(math.Ceil(math.Log2(float64(largest))))
	h.subBucketCount = 1 << subBucketCountMag
	h.subBucketHalfCount = h.subBucketCount / 2
	h.unitMagnitude = uint(math.Floor(math.Log2(float64(lowest))))
	h.subBucketMask = int64(h.subBucketCount-1) << h.unitMagnitude

	// Number of exponential buckets needed to cover highest.
	smallestUntrackable := int64(h.subBucketCount) << h.unitMagnitude
	buckets := 1
	for smallestUntrackable <= highest {
		if smallestUntrackable > math.MaxInt64/2 {
			buckets++
			break
		}
		smallestUntrackable <<= 1
		buckets++
	}
	h.bucketCount = buckets
	h.counts = make([]int64, (buckets+1)*h.subBucketHalfCount)
	return h, nil
}

// Name implements sketch.Sketch.
func (h *Histogram) Name() string { return "hdr" }

// SignificantDigits returns the configured precision.
func (h *Histogram) SignificantDigits() int { return h.digits }

// countsIndexFor maps a raw value to its slot.
func (h *Histogram) countsIndexFor(v int64) int {
	bucketIdx := h.bucketIndex(v)
	subIdx := h.subBucketIndex(v, bucketIdx)
	base := (bucketIdx + 1) << uint(bits.Len(uint(h.subBucketHalfCount))-1)
	return base + subIdx - h.subBucketHalfCount
}

func (h *Histogram) bucketIndex(v int64) int {
	return bits.Len64(uint64(v|h.subBucketMask)) - bits.Len(uint(h.subBucketCount-1)) - int(h.unitMagnitude)
}

func (h *Histogram) subBucketIndex(v int64, bucketIdx int) int {
	return int(v >> (uint(bucketIdx) + h.unitMagnitude))
}

// valueFor reconstructs the (lowest) value of a slot; the representative
// returned to callers is the midpoint of the slot's range.
func (h *Histogram) valueFor(index int) (low, high int64) {
	shift := bits.Len(uint(h.subBucketHalfCount)) - 1
	bucketIdx := index>>uint(shift) - 1
	subIdx := index&(h.subBucketHalfCount-1) + h.subBucketHalfCount
	if bucketIdx < 0 {
		bucketIdx = 0
		subIdx = index & (h.subBucketCount - 1)
	}
	low = int64(subIdx) << (uint(bucketIdx) + h.unitMagnitude)
	high = low + (1 << (uint(bucketIdx) + h.unitMagnitude)) - 1
	return
}

// RecordValue adds one integer observation, clamping to the trackable
// range.
func (h *Histogram) RecordValue(v int64) { h.RecordValues(v, 1) }

// RecordValues adds n occurrences of v in O(1).
func (h *Histogram) RecordValues(v int64, n uint64) {
	if n == 0 {
		return
	}
	if v < h.lowest {
		v = h.lowest
	}
	if v > h.highest {
		v = h.highest
	}
	h.counts[h.countsIndexFor(v)] += int64(n)
	h.total += int64(n)
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// Insert implements sketch.Sketch: float values are rounded to integers
// (record at an appropriate unit scale for sub-unit resolution). NaNs
// and non-positive values are clamped to the lowest discernible value.
func (h *Histogram) Insert(x float64) {
	if math.IsNaN(x) {
		return
	}
	h.RecordValue(int64(math.Round(x)))
}

// Count implements sketch.Sketch.
func (h *Histogram) Count() uint64 { return uint64(h.total) }

// Quantile implements sketch.Sketch.
func (h *Histogram) Quantile(q float64) (float64, error) {
	if err := sketch.CheckQuantile(q); err != nil {
		return 0, err
	}
	if h.total == 0 {
		return 0, sketch.ErrEmpty
	}
	target := int64(math.Ceil(q * float64(h.total)))
	if target < 1 {
		target = 1
	}
	var cum int64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		cum += c
		if cum >= target {
			low, high := h.valueFor(i)
			mid := (low + high + 1) / 2
			if mid < h.min {
				mid = h.min
			}
			if mid > h.max {
				mid = h.max
			}
			return float64(mid), nil
		}
	}
	return float64(h.max), nil
}

// Rank implements sketch.Sketch.
func (h *Histogram) Rank(x float64) (float64, error) {
	if h.total == 0 {
		return 0, sketch.ErrEmpty
	}
	// Compare in float64 before converting: int64 of a NaN or of a
	// value past the int64 range is undefined (MinInt64 on amd64).
	r := math.Round(x)
	if math.IsNaN(r) || r < float64(h.lowest) {
		return 0, nil
	}
	v := h.highest
	if r < float64(h.highest) {
		v = int64(r)
	}
	idx := h.countsIndexFor(v)
	var le int64
	for i := 0; i <= idx && i < len(h.counts); i++ {
		le += h.counts[i]
	}
	return float64(le) / float64(h.total), nil
}

// Merge implements sketch.Sketch: slot-wise addition for identically
// configured histograms.
func (h *Histogram) Merge(other sketch.Sketch) error {
	o, ok := other.(*Histogram)
	if !ok {
		return fmt.Errorf("%w: cannot merge %s into hdr", sketch.ErrIncompatible, other.Name())
	}
	if o.lowest != h.lowest || o.highest != h.highest || o.digits != h.digits {
		return fmt.Errorf("%w: hdr config mismatch", sketch.ErrIncompatible)
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.total += o.total
	if o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
	return nil
}

// MemoryBytes implements sketch.Sketch: the full preallocated count
// array (HDR's design point — and why its total size compares poorly to
// DDSketch's, per the study).
func (h *Histogram) MemoryBytes() int { return 8 * (len(h.counts) + 6) }

// Slots reports the allocated count-array length.
func (h *Histogram) Slots() int { return len(h.counts) }

// Reset implements sketch.Sketch.
func (h *Histogram) Reset() {
	for i := range h.counts {
		h.counts[i] = 0
	}
	h.total = 0
	h.min = math.MaxInt64
	h.max = 0
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (h *Histogram) MarshalBinary() ([]byte, error) {
	w := sketch.NewWriter(64 + 8*len(h.counts))
	w.Byte(0x08) // private tag: hdr is not part of the study's five
	w.Byte(sketch.SerdeVersion)
	w.I64(h.lowest)
	w.I64(h.highest)
	w.U32(uint32(h.digits))
	w.I64(h.total)
	w.I64(h.min)
	w.I64(h.max)
	w.I64s(h.counts)
	return w.Bytes(), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (h *Histogram) UnmarshalBinary(data []byte) error {
	r := sketch.NewReader(data)
	if r.Byte() != 0x08 || r.Byte() != sketch.SerdeVersion {
		return sketch.ErrCorrupt
	}
	lowest := r.I64()
	highest := r.I64()
	digits := int(r.U32())
	total := r.I64()
	minV := r.I64()
	maxV := r.I64()
	counts := r.I64s()
	if r.Err() != nil {
		return r.Err()
	}
	if lowest < 1 || highest < 2 || highest > 1<<50 {
		return sketch.ErrCorrupt
	}
	nh, err := New(lowest, highest, digits)
	if err != nil {
		return sketch.ErrCorrupt
	}
	if len(counts) != len(nh.counts) || r.Remaining() != 0 {
		return sketch.ErrCorrupt
	}
	copy(nh.counts, counts)
	nh.total = total
	nh.min = minV
	nh.max = maxV
	*h = *nh
	return nil
}
