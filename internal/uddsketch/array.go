package uddsketch

import (
	"fmt"
	"math"

	"repro/internal/fastlog"
	"repro/internal/sketch"
)

// ArraySketch is UDDSketch with a dense array bucket store instead of the
// map the paper's implementation (and this package's Sketch) uses. The
// study attributes UDDSketch's slow inserts and merges to its
// "unoptimized map-based implementation" (Sec 4.4.1/4.4.3); this variant
// exists to test that causal claim directly — same collapse algorithm,
// same guarantees, different store.
//
// It covers positive values plus an exact-zero counter (negative values
// count as zero), which is all the study's workloads need; the map-backed
// Sketch remains the full-real-line implementation.
type ArraySketch struct {
	initAlpha  float64
	alpha      float64
	gamma      float64
	logGamma   float64
	maxBuckets int
	collapses  int

	// indexer/multiplier mirror Sketch's fast-indexer state (see the
	// field comments there): multiplier is exactly halved per collapse.
	indexer    byte
	multiplier float64

	counts  []int64 // counts[i] = bucket (offset + i)
	offset  int
	nonZero int
	zeroCnt int64
	count   int64
	min     float64
	max     float64
}

var _ sketch.Sketch = (*ArraySketch)(nil)

// NewArray returns an array-backed UDDSketch with initial accuracy
// alpha0 and the given bucket budget.
func NewArray(alpha0 float64, maxBuckets int) (*ArraySketch, error) {
	if !(alpha0 > 0 && alpha0 < 1) {
		return nil, fmt.Errorf("uddsketch: alpha must be in (0,1), got %v", alpha0)
	}
	if maxBuckets < 2 {
		return nil, fmt.Errorf("uddsketch: need at least 2 buckets, got %d", maxBuckets)
	}
	s := &ArraySketch{
		initAlpha:  alpha0,
		maxBuckets: maxBuckets,
		indexer:    indexerCubic,
		min:        math.Inf(1),
		max:        math.Inf(-1),
	}
	s.setAlpha(alpha0)
	s.multiplier = initMultiplier(s.gamma)
	return s, nil
}

// NewArrayWithBudget mirrors NewWithBudget for the array variant.
func NewArrayWithBudget(alphaK float64, maxBuckets, numCollapses int) (*ArraySketch, error) {
	if !(alphaK > 0 && alphaK < 1) || numCollapses < 1 {
		return nil, fmt.Errorf("uddsketch: invalid budget parameters")
	}
	alpha0 := math.Tanh(math.Atanh(alphaK) / math.Pow(2, float64(numCollapses-1)))
	return NewArray(alpha0, maxBuckets)
}

func (s *ArraySketch) setAlpha(alpha float64) {
	s.alpha = alpha
	s.gamma = (1 + alpha) / (1 - alpha)
	s.logGamma = math.Log(s.gamma)
}

// Name implements sketch.Sketch.
func (s *ArraySketch) Name() string { return "uddsketch-array" }

// Alpha returns the current error guarantee.
func (s *ArraySketch) Alpha() float64 { return s.alpha }

// Collapses reports the uniform collapses performed.
func (s *ArraySketch) Collapses() int { return s.collapses }

//sketch:hotpath
func (s *ArraySketch) index(x float64) int {
	if s.indexer == indexerCubic {
		return int(math.Ceil(fastlog.Log2Cubic(x) * s.multiplier))
	}
	return int(math.Ceil(math.Log(x) / s.logGamma))
}

func (s *ArraySketch) value(i int) float64 {
	if s.indexer == indexerCubic {
		lo := fastlog.Log2CubicInverse((float64(i) - 1) / s.multiplier)
		hi := fastlog.Log2CubicInverse(float64(i) / s.multiplier)
		// Overflow-safe harmonic midpoint, as in Sketch.value.
		return 2 * (hi / (1 + hi/lo))
	}
	return 2 * math.Pow(s.gamma, float64(i)) / (s.gamma + 1)
}

// arrMinIndexable is the smallest positive magnitude the sketch buckets;
// below it values count exactly in the zero counter.
func (s *ArraySketch) arrMinIndexable() float64 {
	if s.indexer == indexerCubic {
		return fastlog.MinIndexable
	}
	return math.SmallestNonzeroFloat64
}

// add increments bucket idx by c, growing the array as needed.
func (s *ArraySketch) add(idx int, c int64) {
	if s.counts == nil {
		s.counts = make([]int64, 64)
		s.offset = idx - 32
	}
	pos := idx - s.offset
	for pos < 0 || pos >= len(s.counts) {
		s.grow(idx)
		pos = idx - s.offset
	}
	if s.counts[pos] == 0 {
		s.nonZero++
	}
	s.counts[pos] += c
}

// grow re-centers the array over the union of the current span and idx,
// with 50% headroom so repeated range extensions amortize to O(1) per
// insert. At UDDSketch's tiny initial α the index span can reach
// millions of slots before the first collapses shrink it — the very
// reason the reference implementation chose a map store; the array
// variant pays that memory spike to win steady-state speed.
func (s *ArraySketch) grow(idx int) {
	lo, hi := s.offset, s.offset+len(s.counts)-1
	if idx < lo {
		lo = idx
	}
	if idx > hi {
		hi = idx
	}
	span := hi - lo + 1
	n := span + span/2
	if min := (span + 63) / 64 * 64; n < min {
		n = min
	}
	grown := make([]int64, n)
	newOffset := lo - (n-span)/2
	copy(grown[s.offset-newOffset:], s.counts)
	s.counts = grown
	s.offset = newOffset
}

// Insert implements sketch.Sketch. NaNs are ignored; zeros, negatives
// and sub-normal positives count exactly in the zero bucket.
func (s *ArraySketch) Insert(x float64) { s.InsertN(x, 1) }

// InsertN adds n occurrences of x in O(1).
func (s *ArraySketch) InsertN(x float64, n uint64) {
	if math.IsNaN(x) || n == 0 {
		return
	}
	if x > 0 && x >= s.arrMinIndexable() {
		s.add(s.index(x), int64(n))
	} else {
		s.zeroCnt += int64(n)
	}
	s.count += int64(n)
	if x < s.min {
		s.min = x
	}
	if x > s.max {
		s.max = x
	}
	for s.nonZero > s.maxBuckets {
		s.uniformCollapse()
	}
}

// uniformCollapse halves every bucket index (⌈i/2⌉) in one linear pass.
// It must advance α and the collapse counter even when the store is
// empty (merge aligns collapse counts by collapsing the emptier side).
func (s *ArraySketch) uniformCollapse() {
	if s.counts == nil {
		s.setAlpha(2 * s.alpha / (1 + s.alpha*s.alpha))
		s.multiplier /= 2
		s.collapses++
		return
	}
	lo := s.offset
	hi := s.offset + len(s.counts) - 1
	newLo := ceilShift(lo, 1)
	newHi := ceilShift(hi, 1)
	span := newHi - newLo + 1
	n := (span + 63) / 64 * 64
	grown := make([]int64, n)
	newOffset := newLo - (n-span)/2
	nonZero := 0
	for pos, c := range s.counts {
		if c == 0 {
			continue
		}
		np := ceilShift(lo+pos, 1) - newOffset
		if grown[np] == 0 {
			nonZero++
		}
		grown[np] += c
	}
	s.counts = grown
	s.offset = newOffset
	s.nonZero = nonZero
	s.setAlpha(2 * s.alpha / (1 + s.alpha*s.alpha))
	s.multiplier /= 2
	s.collapses++
}

// Count implements sketch.Sketch.
func (s *ArraySketch) Count() uint64 { return uint64(s.count) }

// Quantile implements sketch.Sketch.
func (s *ArraySketch) Quantile(q float64) (float64, error) {
	if err := sketch.CheckQuantile(q); err != nil {
		return 0, err
	}
	if s.count == 0 {
		return 0, sketch.ErrEmpty
	}
	rank := int64(math.Ceil(q * float64(s.count)))
	if rank <= s.zeroCnt {
		if s.min < 0 {
			return s.min, nil
		}
		return 0, nil
	}
	want := rank - s.zeroCnt
	var cum int64
	for pos, c := range s.counts {
		if c == 0 {
			continue
		}
		cum += c
		if cum >= want {
			return s.clamp(s.value(s.offset + pos)), nil
		}
	}
	return s.clamp(s.max), nil
}

func (s *ArraySketch) clamp(x float64) float64 {
	if x < s.min {
		return s.min
	}
	if x > s.max {
		return s.max
	}
	return x
}

// Rank implements sketch.Sketch.
func (s *ArraySketch) Rank(x float64) (float64, error) {
	if s.count == 0 {
		return 0, sketch.ErrEmpty
	}
	if x < 0 || math.IsNaN(x) {
		return 0, nil
	}
	le := s.zeroCnt
	if x > 0 {
		xi := s.index(x)
		for pos, c := range s.counts {
			if s.offset+pos > xi {
				break
			}
			le += c
		}
	}
	return float64(le) / float64(s.count), nil
}

// Merge implements sketch.Sketch under Sketch.Merge's fusion rule: the
// receiver collapses up to o's level, then o's buckets are folded
// straight to the receiver's level (⌈i/2^d⌉ for a gap of d collapses)
// as they are added, without touching o.
func (s *ArraySketch) Merge(other sketch.Sketch) error {
	o, ok := other.(*ArraySketch)
	if !ok {
		return fmt.Errorf("%w: cannot merge %s into uddsketch-array", sketch.ErrIncompatible, other.Name())
	}
	if math.Abs(o.initAlpha-s.initAlpha) > 1e-15 {
		return fmt.Errorf("%w: initial alpha mismatch", sketch.ErrIncompatible)
	}
	if o.indexer != s.indexer {
		return fmt.Errorf("%w: indexer mismatch %d vs %d", sketch.ErrIncompatible, s.indexer, o.indexer)
	}
	for s.collapses < o.collapses {
		s.uniformCollapse()
	}
	shift := s.collapses - o.collapses
	for pos, c := range o.counts {
		switch {
		case c == 0:
		case shift == 0: // the common merge: no index moves
			s.add(o.offset+pos, c)
		default:
			s.add(ceilShift(o.offset+pos, shift), c)
		}
	}
	s.zeroCnt += o.zeroCnt
	s.count += o.count
	if o.min < s.min {
		s.min = o.min
	}
	if o.max > s.max {
		s.max = o.max
	}
	for s.nonZero > s.maxBuckets {
		s.uniformCollapse()
	}
	return nil
}

// NonEmptyBuckets reports the live bucket count.
func (s *ArraySketch) NonEmptyBuckets() int { return s.nonZero }

// MemoryBytes implements sketch.Sketch: the allocated array plus
// bookkeeping (the accounting difference vs the map store is itself part
// of the ablation).
func (s *ArraySketch) MemoryBytes() int { return 8 * (len(s.counts) + 10) }

// Reset implements sketch.Sketch.
func (s *ArraySketch) Reset() {
	s.counts = nil
	s.offset = 0
	s.nonZero = 0
	s.zeroCnt = 0
	s.count = 0
	s.collapses = 0
	s.min = math.Inf(1)
	s.max = math.Inf(-1)
	s.setAlpha(s.initAlpha)
	s.multiplier = initMultiplier(s.gamma)
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (s *ArraySketch) MarshalBinary() ([]byte, error) {
	w := sketch.NewWriter(64 + 16*s.nonZero)
	w.Byte(0x0B) // private tag: ablation variant
	w.Byte(sketch.SerdeVersion)
	w.F64(s.initAlpha)
	w.U32(uint32(s.maxBuckets))
	// Indexer kind rides in the collapse counter's high bit, as in
	// Sketch.MarshalBinary: pre-fast-indexer envelopes have it clear and
	// decode as exact-log sketches.
	w.U32(uint32(s.collapses) | indexerBits(s.indexer))
	w.I64(s.zeroCnt)
	w.I64(s.count)
	w.F64(s.min)
	w.F64(s.max)
	w.U32(uint32(s.nonZero))
	for pos, c := range s.counts {
		if c != 0 {
			w.I64(int64(s.offset + pos))
			w.I64(c)
		}
	}
	return w.Bytes(), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (s *ArraySketch) UnmarshalBinary(data []byte) error {
	r := sketch.NewReader(data)
	if r.Byte() != 0x0B || r.Byte() != sketch.SerdeVersion {
		return sketch.ErrCorrupt
	}
	initAlpha := r.F64()
	maxBuckets := int(r.U32())
	rawCollapses := r.U32()
	indexer := indexerLog
	if rawCollapses&indexerFlagCubic != 0 {
		indexer = indexerCubic
	}
	collapses := int(rawCollapses &^ indexerFlagCubic)
	zeroCnt := r.I64()
	count := r.I64()
	minV := r.F64()
	maxV := r.F64()
	nb := int(r.U32())
	if r.Err() != nil {
		return r.Err()
	}
	if collapses < 0 || collapses > 4096 || maxBuckets > 1<<24 || nb < 0 || nb > r.Remaining()/16 {
		return sketch.ErrCorrupt
	}
	ns, err := NewArray(initAlpha, maxBuckets)
	if err != nil {
		return sketch.ErrCorrupt
	}
	for i := 0; i < collapses; i++ {
		ns.setAlpha(2 * ns.alpha / (1 + ns.alpha*ns.alpha))
	}
	ns.collapses = collapses
	ns.zeroCnt = zeroCnt
	ns.count = count
	ns.min = minV
	ns.max = maxV
	for i := 0; i < nb; i++ {
		idx := r.I64()
		c := r.I64()
		if r.Err() != nil {
			return r.Err()
		}
		if c < 0 || idx > 1<<26 || idx < -(1<<26) {
			return sketch.ErrCorrupt
		}
		ns.add(int(idx), c)
	}
	if r.Remaining() != 0 {
		return sketch.ErrCorrupt
	}
	ns.indexer = indexer
	ns.multiplier = math.Ldexp(ns.multiplier, -collapses)
	*s = *ns
	return nil
}
