package ddsketch

import "math"

// Store holds bucket counts keyed by integer index. DDSketch's behaviour
// under bounded memory depends on the store implementation, and the study
// calls those differences out explicitly (array-backed dense store vs the
// collapsing variant, Sec 4.3), so the store is pluggable.
type Store interface {
	// Add increments bucket index by count (count > 0).
	Add(index int, count int64)
	// AddOnes increments each listed bucket by one, holding the same
	// counts as Add(i, 1) for each index in order: the bulk path
	// InsertBatch drains its staged indices through.
	AddOnes(indexes []int)
	// Total returns the sum of all bucket counts.
	Total() int64
	// IsEmpty reports whether the store holds no counts.
	IsEmpty() bool
	// MinIndex and MaxIndex return the smallest/largest non-empty bucket
	// index; they must not be called on an empty store.
	MinIndex() int
	MaxIndex() int
	// ForEach visits non-empty buckets in ascending index order, stopping
	// early if fn returns false.
	ForEach(fn func(index int, count int64) bool)
	// NonEmptyBuckets returns the number of buckets holding a count.
	NonEmptyBuckets() int
	// NumbersHeld reports the structural size in 8-byte numbers (array
	// slots for the dense stores; buffer, page and page-table slots for
	// the paginated store), implementing the paper's Table 3 accounting.
	NumbersHeld() int
	// CollapseCount reports how many bucket-collapse operations the store
	// has performed (0 for unbounded stores).
	CollapseCount() int
	// Clone returns a deep copy.
	Clone() Store
	// Reset drops all counts, keeping configuration.
	Reset()
}

// initialDenseBuckets matches the paper's observation that the unbounded
// dense store "would initially create a count array of 64 buckets, and
// expand the array based on the range of the values observed" (Sec 4.3).
const initialDenseBuckets = 64

// DenseStore is the unbounded array-backed store: a contiguous count array
// whose first slot corresponds to bucket index `offset`. Growth re-centers
// the array around the observed index range.
type DenseStore struct {
	counts []int64
	offset int
	total  int64
	minIdx int
	maxIdx int
}

// NewDenseStore returns an empty unbounded dense store.
func NewDenseStore() *DenseStore {
	return &DenseStore{minIdx: int(^uint(0)>>1) - 1, maxIdx: -(int(^uint(0)>>1) - 1)}
}

// Add implements Store.
func (s *DenseStore) Add(index int, count int64) {
	if count <= 0 {
		return
	}
	s.ensure(index)
	s.counts[index-s.offset] += count
	s.total += count
	if index < s.minIdx {
		s.minIdx = index
	}
	if index > s.maxIdx {
		s.maxIdx = index
	}
}

// AddOnes increments each listed bucket by one — the batched-insert hot
// path. The index range is scanned first so the backing array grows at
// most twice for the whole batch (once per range end) instead of
// per-element; the increments themselves are then direct array ops.
// Equivalent to calling Add(i, 1) for each index, except that the
// array's spare capacity (and hence NumbersHeld) may differ slightly
// from the per-element growth sequence; the held counts are identical.
//
//sketch:hotpath
func (s *DenseStore) AddOnes(indexes []int) {
	if len(indexes) == 0 {
		return
	}
	lo, hi := indexes[0], indexes[0]
	for _, i := range indexes[1:] {
		if i < lo {
			lo = i
		}
		if i > hi {
			hi = i
		}
	}
	s.ensure(lo)
	s.ensure(hi)
	counts, offset := s.counts, s.offset
	for _, i := range indexes {
		counts[i-offset]++
	}
	s.total += int64(len(indexes))
	if lo < s.minIdx {
		s.minIdx = lo
	}
	if hi > s.maxIdx {
		s.maxIdx = hi
	}
}

// ensure grows the backing array to include index.
func (s *DenseStore) ensure(index int) {
	if pos := index - s.offset; pos >= 0 && pos < len(s.counts) {
		return
	}
	s.resize(grownSpan(s.offset, len(s.counts), index))
}

// grownSpan returns the offset and length ensure gives an array at
// (offset, n) so that it covers index; an index already covered leaves
// both unchanged. An empty array (n = 0) starts at the
// paper's 64 buckets centred on index. Otherwise the new array covers
// both the current range and the new index, rounded up to the next
// chunk. The chunked growth (rather than doubling) keeps the array close
// to the actually observed index span, matching the reference
// implementation's space behaviour the paper measures in Sec 4.3: the
// range grows only logarithmically with the data, so re-allocation
// stays rare.
func grownSpan(offset, n, index int) (int, int) {
	if n == 0 {
		return index - initialDenseBuckets/2, initialDenseBuckets
	}
	if pos := index - offset; pos >= 0 && pos < n {
		return offset, n
	}
	lo, hi := min(offset, index), max(offset+n-1, index)
	span := hi - lo + 1
	grown := (span + initialDenseBuckets - 1) / initialDenseBuckets * initialDenseBuckets
	return lo - (grown-span)/2, grown
}

// resize moves the counts into a fresh array of length n whose first
// slot is bucket offset, which must cover every slot of the old array.
func (s *DenseStore) resize(offset, n int) {
	grown := make([]int64, n)
	if len(s.counts) > 0 {
		copy(grown[s.offset-offset:], s.counts)
	}
	s.counts = grown
	s.offset = offset
}

// addDense adds src's non-empty buckets to s in ascending index order,
// each index clamped into [lo, hi] and, unless g is 1, each count c
// scaled to round(c·g), skipping counts that round to 0. It returns the
// total count added.
//
// The result is exactly what one Add per bucket in that order would
// leave — the same offset, array length, counts, total and min/max
// index, hence the same NumbersHeld — but the array is allocated at
// most once. When the array does not yet cover src's clamped range, a
// first pass replays ensure's chunked growth on the surviving indices
// alone; the counts then go into the final array in one loop. Per-bucket
// Adds into a store fed in ascending order would re-allocate the whole
// array at every 64-slot chunk boundary.
func (s *DenseStore) addDense(src *DenseStore, lo, hi int, g float64) int64 {
	if src.total == 0 {
		return 0
	}
	srcCounts, srcOff := src.counts, src.offset
	from, to := min(max(src.minIdx, lo), hi), min(max(src.maxIdx, lo), hi)
	if from < s.offset || to >= s.offset+len(s.counts) {
		offset, n := s.offset, len(s.counts)
		for i := src.minIdx; i <= src.maxIdx; i++ {
			if scaleCount(srcCounts[i-srcOff], g) <= 0 {
				continue
			}
			if j := min(max(i, lo), hi); j < offset || j >= offset+n {
				offset, n = grownSpan(offset, n, j)
			}
		}
		if n != len(s.counts) {
			s.resize(offset, n)
		}
	}
	counts, offset := s.counts, s.offset
	var added int64
	first, last := 0, 0
	for i := src.minIdx; i <= src.maxIdx; i++ {
		if c := scaleCount(srcCounts[i-srcOff], g); c > 0 {
			j := min(max(i, lo), hi)
			if added == 0 {
				first = j
			}
			last = j
			counts[j-offset] += c
			added += c
		}
	}
	if added == 0 {
		return 0
	}
	s.total += added
	s.minIdx = min(s.minIdx, first)
	s.maxIdx = max(s.maxIdx, last)
	return added
}

// scaleCount returns c unchanged when g is 1, else round(c·g).
func scaleCount(c int64, g float64) int64 {
	if g == 1 {
		return c
	}
	return int64(math.Round(float64(c) * g))
}

// Total implements Store.
func (s *DenseStore) Total() int64 { return s.total }

// IsEmpty implements Store.
func (s *DenseStore) IsEmpty() bool { return s.total == 0 }

// MinIndex implements Store.
func (s *DenseStore) MinIndex() int { return s.minIdx }

// MaxIndex implements Store.
func (s *DenseStore) MaxIndex() int { return s.maxIdx }

// ForEach implements Store.
func (s *DenseStore) ForEach(fn func(index int, count int64) bool) {
	if s.total == 0 {
		return
	}
	for i := s.minIdx; i <= s.maxIdx; i++ {
		c := s.counts[i-s.offset]
		if c != 0 {
			if !fn(i, c) {
				return
			}
		}
	}
}

// medianBuckets returns the number nb of non-empty buckets and the
// indices of the lower and upper median non-empty buckets, the ⌈nb/2⌉-th
// and the (⌊nb/2⌋+1)-th in ascending order (the same bucket when nb is
// odd), in one array walk that closes in on them from both ends.
func (s *DenseStore) medianBuckets() (nb, lower, upper int) {
	if s.total == 0 {
		return 0, 0, 0
	}
	a, b := s.minIdx, s.maxIdx
	if a == b {
		return 1, a, a
	}
	// a is the na-th non-empty bucket from the bottom, b the nb-th from
	// the top; the side behind advances, so na - nb stays 0 or 1.
	na, nb := 1, 1
	for {
		if na <= nb {
			next := a + 1
			for s.counts[next-s.offset] == 0 {
				next++
			}
			if next == b {
				return na + nb, a, b
			}
			a, na = next, na+1
		} else {
			next := b - 1
			for s.counts[next-s.offset] == 0 {
				next--
			}
			if next == a {
				return na + nb, a, a
			}
			b, nb = next, nb+1
		}
	}
}

// NonEmptyBuckets implements Store.
func (s *DenseStore) NonEmptyBuckets() int {
	n := 0
	s.ForEach(func(int, int64) bool { n++; return true })
	return n
}

// NumbersHeld implements Store.
func (s *DenseStore) NumbersHeld() int {
	// The backing array plus offset/min/max/total bookkeeping.
	return len(s.counts) + 4
}

// CollapseCount implements Store.
func (s *DenseStore) CollapseCount() int { return 0 }

// Clone implements Store.
func (s *DenseStore) Clone() Store {
	c := *s
	c.counts = make([]int64, len(s.counts))
	copy(c.counts, s.counts)
	return &c
}

// Reset implements Store.
func (s *DenseStore) Reset() {
	*s = *NewDenseStore()
}

// CollapsingLowestDenseStore bounds the bucket count at MaxBuckets by
// collapsing the lowest-indexed buckets into one when the range would
// exceed the bound — DDSketch's bounded-memory variant (Sec 3.3), which
// sacrifices the accuracy guarantee of the lowest quantiles only.
type CollapsingLowestDenseStore struct {
	DenseStore
	maxBuckets int
	collapses  int
}

// NewCollapsingLowestDenseStore returns a bounded store collapsing its
// lowest buckets when more than maxBuckets distinct indices are needed.
func NewCollapsingLowestDenseStore(maxBuckets int) *CollapsingLowestDenseStore {
	if maxBuckets < 2 {
		maxBuckets = 2
	}
	return &CollapsingLowestDenseStore{DenseStore: *NewDenseStore(), maxBuckets: maxBuckets}
}

// MaxBuckets returns the configured bucket bound.
func (s *CollapsingLowestDenseStore) MaxBuckets() int { return s.maxBuckets }

// Add implements Store.
func (s *CollapsingLowestDenseStore) Add(index int, count int64) {
	if count <= 0 {
		return
	}
	if s.total == 0 {
		s.DenseStore.Add(index, count)
		return
	}
	switch {
	case index > s.maxIdx && index-s.minIdx+1 > s.maxBuckets:
		// New high bucket forces the low end to fold up.
		s.collapseLowestTo(index - s.maxBuckets + 1)
		s.DenseStore.Add(index, count)
	case index < s.minIdx && s.maxIdx-index+1 > s.maxBuckets:
		// Value below the representable range lands in the lowest bucket.
		s.collapses++
		if metrics != nil {
			metrics.Collapses.Inc()
		}
		s.DenseStore.Add(s.maxIdx-s.maxBuckets+1, count)
	default:
		s.DenseStore.Add(index, count)
	}
}

// collapseLowestTo folds every bucket below newMin into bucket newMin.
func (s *CollapsingLowestDenseStore) collapseLowestTo(newMin int) {
	if newMin <= s.minIdx {
		return
	}
	s.collapses++
	if metrics != nil {
		metrics.Collapses.Inc()
	}
	var folded int64
	for i := s.minIdx; i < newMin && i <= s.maxIdx; i++ {
		pos := i - s.offset
		folded += s.counts[pos]
		s.counts[pos] = 0
	}
	if folded > 0 {
		s.ensure(newMin)
		s.counts[newMin-s.offset] += folded
	}
	if newMin > s.minIdx {
		s.minIdx = newMin
	}
	if s.maxIdx < s.minIdx {
		s.maxIdx = s.minIdx
	}
}

// AddOnes shadows the promoted DenseStore fast path: which buckets a
// collapsing store folds depends on the order indices arrive, so bulk
// increments must go through the collapse-aware Add one at a time.
func (s *CollapsingLowestDenseStore) AddOnes(indexes []int) {
	for _, i := range indexes {
		s.Add(i, 1)
	}
}

// CollapseCount implements Store.
func (s *CollapsingLowestDenseStore) CollapseCount() int { return s.collapses }

// Clone implements Store.
func (s *CollapsingLowestDenseStore) Clone() Store {
	c := *s
	c.counts = make([]int64, len(s.counts))
	copy(c.counts, s.counts)
	return &c
}

// Reset implements Store.
func (s *CollapsingLowestDenseStore) Reset() {
	mb := s.maxBuckets
	*s = *NewCollapsingLowestDenseStore(mb)
}
