// Package req implements ReqSketch (Cormode, Karnin, Liberty, Thaler,
// Veselý; PODS 2021), the relative-error quantile sketch built from
// *relative compactors*. Each compactor keeps a protected half of its
// buffer untouched and compacts only sections from the other end, with a
// schedule that compacts the extreme sections geometrically more often —
// yielding the multiplicative rank guarantee
// |R̂ank(x) − Rank(x)| ≤ ε·Rank(x) (LRA) with high probability.
//
// In high-rank-accuracy (HRA) mode, the mode the study evaluates, the
// *smallest* values are compacted first so upper quantiles are sharpest
// (paper Sec 3.5 and 4.2). Samples are stored as float32, mirroring the
// DataSketches float implementation whose footprint the study reports
// (≈17 KB / ≈4,177 retained items at 1M Pareto inserts, Sec 4.3).
package req

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand/v2"
	"slices"

	"repro/internal/sketch"
)

// DefaultSectionSize is the study's configuration for the compactor
// section size k (which the paper calls num_sections).
const DefaultSectionSize = 30

const (
	minSectionSize  = 4
	initNumSections = 3
	sqrt2           = 1.4142135623730951

	// maxMergeRatio bounds the merge of a promoted run into an
	// ascending compactor. Merging m items into n moves about n+m, so
	// once n exceeds 8m, appending them and sorting the tail at the next
	// compaction is cheaper: on long streams the section size shrinks
	// to a few items while compactors hold hundreds, and merging every
	// run made BenchmarkInsert/req 1.25× slower.
	maxMergeRatio = 8
)

// compactor is one relative compactor at height h; items in it carry
// weight 2^h.
type compactor struct {
	h            int
	sectionSizeF float64
	sectionSize  int
	numSections  int
	state        uint64 // number of compactions performed
	buf          []float32
	// sortedLen is the length of buf's longest ascending prefix, a pure
	// function of buf: every mutator either keeps it exact (Insert,
	// compaction) or re-derives it (markSorted), so a decoded compactor
	// holds exactly the original's and promotes into the same places.
	sortedLen int
	scratch   []float32
}

func newCompactor(h, sectionSize int) *compactor {
	return &compactor{
		h:            h,
		sectionSizeF: float64(sectionSize),
		sectionSize:  sectionSize,
		numSections:  initNumSections,
		buf:          make([]float32, 0, 2*sectionSize*initNumSections),
	}
}

// capacity is the buffer size that triggers compaction: 2·k·numSections,
// half of which is the protected region.
func (c *compactor) capacity() int { return 2 * c.sectionSize * c.numSections }

// ascending reports whether the whole buffer is sorted.
func (c *compactor) ascending() bool { return c.sortedLen == len(c.buf) }

// markSorted re-derives sortedLen after a mutation that changed only
// buf[from:]: buf[:min(from, sortedLen)] is still ascending, so the
// scan resumes there.
func (c *compactor) markSorted(from int) {
	n := min(from, c.sortedLen)
	for n < len(c.buf) && (n == 0 || c.buf[n] >= c.buf[n-1]) {
		n++
	}
	c.sortedLen = n
}

// sort restores full sortedness. The buffer is a sorted prefix plus an
// unsorted tail of new arrivals, so only the tail is sorted (with the
// shared kernel) and then merged with the prefix.
func (c *compactor) sort() {
	if c.ascending() {
		return
	}
	tail := c.buf[c.sortedLen:]
	sketch.SortFloat32(tail)
	if c.sortedLen > 0 {
		c.scratch = append(c.scratch[:0], tail...)
		// Merge backward: largest elements settle at the end first.
		i, j, k := c.sortedLen-1, len(c.scratch)-1, len(c.buf)-1
		for j >= 0 {
			if i >= 0 && c.buf[i] > c.scratch[j] {
				c.buf[k] = c.buf[i]
				i--
			} else {
				c.buf[k] = c.scratch[j]
				j--
			}
			k--
		}
	}
	c.sortedLen = len(c.buf)
}

// nearestEven rounds to the nearest even integer.
func nearestEven(f float64) int {
	return 2 * int(math.Round(f/2))
}

// Sketch is a ReqSketch instance.
type Sketch struct {
	k          int  // initial section size
	hra        bool // high ranks accurate (compact lowest values first)
	compactors []*compactor
	count      uint64
	min, max   float64
	rng        *rand.Rand
	pcg        *rand.PCG // rng's source, kept for exact state serialization
	seed       uint64

	// view is the sorted query view, built lazily at query time and
	// invalidated by mutation. Unlike KLL's, the rebuild must sort the
	// unsorted tail of every compactor, not only of the bottom one,
	// which is why ReqSketch query time grows with data size
	// (Sec 4.4.2).
	view sketch.LevelView
}

var _ sketch.Sketch = (*Sketch)(nil)

// New returns a ReqSketch with section size k in HRA or LRA mode and a
// fixed default seed. Use NewWithSeed to vary the randomization.
func New(k int, hra bool) *Sketch { return NewWithSeed(k, hra, 0x0e90e90e90e90e95) }

// NewWithSeed returns a ReqSketch whose compaction coin flips derive from
// seed. It panics if k is below the minimum section size.
func NewWithSeed(k int, hra bool, seed uint64) *Sketch {
	if k < minSectionSize {
		panic(fmt.Sprintf("req: section size must be >= %d, got %d", minSectionSize, k))
	}
	k = nearestEven(float64(k))
	pcg := rand.NewPCG(seed, seed^0xbf58476d1ce4e5b9)
	return &Sketch{
		k:          k,
		hra:        hra,
		compactors: []*compactor{newCompactor(0, k)},
		min:        math.Inf(1),
		max:        math.Inf(-1),
		rng:        rand.New(pcg),
		pcg:        pcg,
		seed:       seed,
	}
}

// Name implements sketch.Sketch.
func (s *Sketch) Name() string { return "req" }

// K returns the configured initial section size.
func (s *Sketch) K() int { return s.k }

// HighRankAccuracy reports whether the sketch favours upper quantiles.
func (s *Sketch) HighRankAccuracy() bool { return s.hra }

// Insert implements sketch.Sketch. NaNs are ignored.
//
//sketch:hotpath
func (s *Sketch) Insert(x float64) {
	if math.IsNaN(x) {
		return
	}
	if metrics != nil {
		metrics.Inserts.Inc()
	}
	c0 := s.compactors[0]
	xf := float32(x)
	if c0.ascending() && (len(c0.buf) == 0 || xf >= c0.buf[len(c0.buf)-1]) {
		c0.sortedLen++
	}
	c0.buf = append(c0.buf, xf)
	s.count++
	s.view.Invalidate()
	if x < s.min {
		s.min = x
	}
	if x > s.max {
		s.max = x
	}
	if len(c0.buf) >= c0.capacity() {
		s.compress()
	}
}

// compress compacts every over-full compactor from the bottom up.
func (s *Sketch) compress() {
	for h := 0; h < len(s.compactors); h++ {
		c := s.compactors[h]
		if len(c.buf) >= c.capacity() {
			s.compactLevel(h)
			if metrics != nil {
				metrics.Compactions.Inc()
			}
		}
	}
	if metrics != nil {
		metrics.PeakBytes.Max(int64(s.MemoryBytes()))
	}
}

// compactLevel runs one compaction of compactor h, promoting survivors to
// height h+1 (created on demand).
func (s *Sketch) compactLevel(h int) {
	c := s.compactors[h]
	if len(c.buf) < 2 {
		return
	}
	if h+1 >= len(s.compactors) {
		s.compactors = append(s.compactors, newCompactor(h+1, c.sectionSize))
	}
	next := s.compactors[h+1]
	c.sort()

	// The schedule: the number of sections compacted at the C-th
	// compaction is trailingOnes(C)+1, capped at numSections — so the
	// extreme sections compact every time and interior sections
	// geometrically less often (Sec 3.5).
	secs := bits.TrailingZeros64(^c.state) + 1
	if secs > c.numSections {
		secs = c.numSections
	}
	L := secs * c.sectionSize
	// Never touch the protected half of the nominal capacity; with
	// oversized buffers (post-merge) allow compacting the excess too.
	if maxL := len(c.buf) - c.capacity()/2; L > maxL {
		L = maxL
	}
	L &^= 1 // even
	if L < 2 {
		L = 2
		if len(c.buf) < 2 {
			return
		}
	}

	var compactRegion []float32
	if s.hra {
		// High ranks accurate: sacrifice the smallest values.
		compactRegion = c.buf[:L]
	} else {
		compactRegion = c.buf[len(c.buf)-L:]
	}
	offset := 0
	if s.rng.Uint64()&1 == 1 {
		offset = 1
	}
	// The promoted items, every other item of a sorted region, form an
	// ascending run. Merged into an ascending compactor h+1 it keeps
	// h+1 ascending, so h+1 needs no sort at its own compaction or in
	// the query view. Otherwise (h+1 has a descent, or is too long for
	// a merge to pay) it is appended.
	if next.ascending() && len(next.buf) <= maxMergeRatio*(L/2) {
		next.buf = sketch.MergeRun(next.buf, compactRegion[offset:], L/2)
		next.sortedLen = len(next.buf)
	} else {
		n := len(next.buf)
		for i := offset; i < len(compactRegion); i += 2 {
			next.buf = append(next.buf, compactRegion[i])
		}
		next.markSorted(n)
	}
	if s.hra {
		c.buf = append(c.buf[:0], c.buf[L:]...)
	} else {
		c.buf = c.buf[:len(c.buf)-L]
	}
	c.sortedLen = len(c.buf) // removing a contiguous region of a sorted buffer keeps it sorted

	c.state++
	// Grow the number of sections (shrinking their size by √2) once the
	// compaction count warrants it, keeping the ε schedule on track as n
	// grows.
	if c.state >= 1<<uint(c.numSections-1) && c.sectionSize > minSectionSize {
		if ne := nearestEven(c.sectionSizeF / sqrt2); ne >= minSectionSize {
			c.sectionSizeF /= sqrt2
			c.sectionSize = ne
			c.numSections <<= 1
		}
	}
}

// Count implements sketch.Sketch.
func (s *Sketch) Count() uint64 { return s.count }

// buildView brings the sorted query view up to date with the
// compactors.
func (s *Sketch) buildView() {
	if s.view.Begin() {
		for _, c := range s.compactors {
			s.view.AddLevel(c.h, c.buf, c.sortedLen)
		}
		s.view.Sort()
	}
}

// Quantile implements sketch.Sketch; estimates are actual inserted values
// (float32-rounded) and q = 1 returns the exact maximum.
func (s *Sketch) Quantile(q float64) (float64, error) {
	if err := sketch.CheckQuantile(q); err != nil {
		return 0, err
	}
	if s.count == 0 {
		return 0, sketch.ErrEmpty
	}
	if q == 1 {
		return s.max, nil
	}
	s.buildView()
	return s.view.Quantile(q, s.count, s.min, s.max), nil
}

// Rank implements sketch.Sketch.
func (s *Sketch) Rank(x float64) (float64, error) {
	if s.count == 0 {
		return 0, sketch.ErrEmpty
	}
	s.buildView()
	return s.view.Rank(x, s.count), nil
}

// Merge implements sketch.Sketch: same-height compactors concatenate
// their buffers, the compaction schedule states merge by bitwise OR
// (Sec 3.5), and over-full levels are compacted.
func (s *Sketch) Merge(other sketch.Sketch) error {
	o, ok := other.(*Sketch)
	if !ok {
		return fmt.Errorf("%w: cannot merge %s into req", sketch.ErrIncompatible, other.Name())
	}
	if o.hra != s.hra {
		return fmt.Errorf("%w: hra mismatch %v vs %v", sketch.ErrIncompatible, s.hra, o.hra)
	}
	// Differing k merge under the min-k rule (mirroring KLL): the merged
	// sketch adopts the smaller configuration, so budget-degraded
	// partials (Degrade) stay mergeable with full-k ones at the degraded
	// error bound. The accuracy mode itself must match — HRA and LRA
	// sketches protect opposite ends of their buffers.
	if o.k < s.k {
		s.k = o.k
	}
	for len(s.compactors) < len(o.compactors) {
		h := len(s.compactors)
		s.compactors = append(s.compactors, newCompactor(h, s.compactors[h-1].sectionSize))
	}
	for h, oc := range o.compactors {
		c := s.compactors[h]
		// Appended foreign items extend the receiver's sorted prefix
		// only when it covered the whole buffer.
		n := len(c.buf)
		c.buf = append(c.buf, oc.buf...)
		c.markSorted(n)
		c.state |= oc.state
		// Adopt the finer (further advanced) section configuration; at
		// equal advancement, the smaller (degraded) section size wins so
		// the merge direction cannot resurrect a pre-degradation config.
		if oc.numSections > c.numSections ||
			(oc.numSections == c.numSections && oc.sectionSize < c.sectionSize) {
			c.numSections = oc.numSections
			c.sectionSize = oc.sectionSize
			c.sectionSizeF = oc.sectionSizeF
		}
	}
	s.count += o.count
	s.view.Invalidate()
	if o.min < s.min {
		s.min = o.min
	}
	if o.max > s.max {
		s.max = o.max
	}
	s.compress()
	return nil
}

// Retained reports the total number of samples currently held.
func (s *Sketch) Retained() int {
	n := 0
	for _, c := range s.compactors {
		n += len(c.buf)
	}
	return n
}

// NumLevels reports the number of relative compactors.
func (s *Sketch) NumLevels() int { return len(s.compactors) }

// MemoryBytes implements sketch.Sketch: 4 bytes per retained float32
// sample plus per-compactor and global bookkeeping.
func (s *Sketch) MemoryBytes() int {
	return 4*s.Retained() + 5*8*len(s.compactors) + 8*8
}

// Footprint implements sketch.Footprinter: the live bytes actually
// held — allocated buffer and merge-scratch capacity per compactor plus
// the sorted-view caches and fixed bookkeeping — as opposed to
// MemoryBytes' occupancy-based Table 3 accounting.
func (s *Sketch) Footprint() int {
	b := 0
	for _, c := range s.compactors {
		b += 4*(cap(c.buf)+cap(c.scratch)) + 5*8
	}
	return b + s.view.Bytes() + 8*8
}

// Degrade implements sketch.Degrader: halve every compactor's section
// size (floored at the minimum, 4) and force-compact under the shrunken
// capacities, clipping buffers to their new occupancy. The degraded
// sketch stays mergeable with full-k sketches through the min-k Merge
// rule; its relative-error scale grows by ≈√2 per step (AccuracyBound).
func (s *Sketch) Degrade() (int, error) {
	before := s.Footprint()
	shrunk := false
	for _, c := range s.compactors {
		if ne := nearestEven(c.sectionSizeF / 2); ne >= minSectionSize && ne < c.sectionSize {
			c.sectionSizeF /= 2
			c.sectionSize = ne
			shrunk = true
		}
	}
	if !shrunk {
		return 0, sketch.ErrNotDegradable
	}
	if nk := nearestEven(float64(s.k) / 2); nk >= minSectionSize {
		s.k = nk
	}
	s.compress()
	for _, c := range s.compactors {
		c.buf = slices.Clip(c.buf)
		c.scratch = nil
	}
	s.view = sketch.LevelView{} // drop the query view's capacity too
	freed := before - s.Footprint()
	if freed < 0 {
		freed = 0
	}
	return freed, nil
}

// AccuracyBound implements sketch.AccuracyBounder with the DataSketches
// empirical scale for ReqSketch's relative rank error, ε(k) ≈ √(0.0512/k)
// (≈4.1% relative standard error at the study's k = 30). Like KLL's, it
// is a comparable error scale that grows as the sketch degrades, not a
// formal tail bound.
func (s *Sketch) AccuracyBound() float64 {
	return math.Sqrt(0.0512 / float64(s.k))
}

// Reset implements sketch.Sketch.
func (s *Sketch) Reset() {
	*s = *NewWithSeed(s.k, s.hra, s.seed)
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (s *Sketch) MarshalBinary() ([]byte, error) {
	w := sketch.NewWriter(96 + 4*s.Retained())
	w.Header(sketch.TagReq)
	w.U32(uint32(s.k))
	if s.hra {
		w.Byte(1)
	} else {
		w.Byte(0)
	}
	w.U64(s.seed)
	rngState, err := s.pcg.MarshalBinary()
	if err != nil {
		return nil, err
	}
	w.Blob(rngState)
	w.U64(s.count)
	w.F64(s.min)
	w.F64(s.max)
	w.U32(uint32(len(s.compactors)))
	for _, c := range s.compactors {
		w.F64(c.sectionSizeF)
		w.U32(uint32(c.sectionSize))
		w.U32(uint32(c.numSections))
		w.U64(c.state)
		w.U32(uint32(len(c.buf)))
		for _, v := range c.buf {
			w.U32(math.Float32bits(v))
		}
	}
	return w.Bytes(), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler. Like KLL, the
// decoded sketch restores the exact PCG state of its coin-flip RNG, so
// it continues bit-identically to the original.
func (s *Sketch) UnmarshalBinary(data []byte) error {
	r := sketch.NewReader(data)
	if err := r.Header(sketch.TagReq); err != nil {
		return err
	}
	k := int(r.U32())
	hra := r.Byte() == 1
	seed := r.U64()
	rngState := r.Blob()
	count := r.U64()
	minV := r.F64()
	maxV := r.F64()
	numLevels := int(r.U32())
	if r.Err() != nil {
		return r.Err()
	}
	if k < minSectionSize || k > 1<<20 || numLevels < 1 || numLevels > 64 {
		return sketch.ErrCorrupt
	}
	ns := NewWithSeed(k, hra, seed)
	if err := ns.pcg.UnmarshalBinary(rngState); err != nil {
		return sketch.ErrCorrupt
	}
	ns.count = count
	ns.min = minV
	ns.max = maxV
	ns.compactors = make([]*compactor, numLevels)
	for h := range ns.compactors {
		c := newCompactor(h, k)
		c.sectionSizeF = r.F64()
		c.sectionSize = int(r.U32())
		c.numSections = int(r.U32())
		c.state = r.U64()
		n := int(r.U32())
		if r.Err() != nil || n < 0 || n > r.Remaining()/4 {
			return sketch.ErrCorrupt
		}
		if c.sectionSize < minSectionSize || c.sectionSize > 1<<20 || c.numSections < 1 || c.numSections > 1<<20 {
			return sketch.ErrCorrupt
		}
		c.buf = make([]float32, n)
		for i := range c.buf {
			c.buf[i] = math.Float32frombits(r.U32())
		}
		c.markSorted(0)
		ns.compactors[h] = c
	}
	if r.Err() != nil {
		return r.Err()
	}
	if r.Remaining() != 0 {
		return sketch.ErrCorrupt
	}
	// Structural validation, as KLL's decoder: NaN samples, unordered
	// bounds or a count that disagrees with the retained weight would
	// otherwise decode and answer from a sketch no stream produced.
	bufs := make([][]float32, len(ns.compactors))
	for h, c := range ns.compactors {
		bufs[h] = c.buf
	}
	if !sketch.ValidLevels(bufs, ns.count, ns.min, ns.max) {
		return sketch.ErrCorrupt
	}
	*s = *ns
	return nil
}
