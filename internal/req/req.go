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
//
// The compactors are a sketch.CompactorStack, shared with KLL; this
// package keeps only ReqSketch's schedule: each compactor's sections
// and trailing-ones compaction counter, the HRA/LRA choice of region,
// the maxMergeRatio cap on merging a promoted run, the Merge rule that
// ORs the counters, and the header and per-compactor fields of the
// serialized form.
package req

import (
	"fmt"
	"math"
	"math/bits"
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

// compactor is the schedule of one relative compactor: the stack level
// of the same height holds its items, which carry weight 2^h.
type compactor struct {
	sectionSizeF float64
	sectionSize  int
	numSections  int
	state        uint64 // number of compactions performed
}

func newCompactor(sectionSize int) compactor {
	return compactor{
		sectionSizeF: float64(sectionSize),
		sectionSize:  sectionSize,
		numSections:  initNumSections,
	}
}

// capacity is the buffer size that triggers compaction: 2·k·numSections,
// half of which is the protected region.
func (c *compactor) capacity() int { return 2 * c.sectionSize * c.numSections }

// nearestEven rounds to the nearest even integer.
func nearestEven(f float64) int {
	return 2 * int(math.Round(f/2))
}

// Sketch is a ReqSketch instance. Its query view takes each level's
// exact sorted prefix as a run; it is built lazily at query time and
// invalidated by mutation. Unlike KLL's, the rebuild must sort the
// unsorted tail of every compactor, not only of the bottom one, which
// is why ReqSketch query time grows with data size (Sec 4.4.2).
type Sketch struct {
	sketch.CompactorStack
	k          int  // initial section size
	hra        bool // high ranks accurate (compact lowest values first)
	compactors []compactor
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
	return &Sketch{
		CompactorStack: sketch.NewCompactorStack(seed, seed^0xbf58476d1ce4e5b9, 2*k*initNumSections, false),
		k:              k,
		hra:            hra,
		compactors:     []compactor{newCompactor(k)},
	}
}

// addLevel adds a compactor of the given section size on top.
func (s *Sketch) addLevel(sectionSize int) {
	s.AddLevel(2 * sectionSize * initNumSections)
	s.compactors = append(s.compactors, newCompactor(sectionSize))
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
	s.InvalidateView()
	c := s.insert(x)
	if metrics != nil {
		metrics.Inserts.Inc()
		recordCompactions(c)
	}
}

// InsertBatch implements sketch.BatchInserter: the scalar insert body
// per value, so the state is bit-identical to Insert called per value,
// with the metrics counted in locals and published as one delta each.
//
//sketch:hotpath
func (s *Sketch) InsertBatch(xs []float64) {
	n, c := 0, 0
	for _, x := range xs {
		if math.IsNaN(x) {
			continue
		}
		n++
		c += s.insert(x)
	}
	if n == 0 {
		return
	}
	s.InvalidateView()
	if metrics != nil {
		metrics.Inserts.Add(int64(n))
		recordCompactions(c)
	}
}

// insert is the insert body Insert and InsertBatch share: it adds x,
// which is not NaN, and compresses once the bottom compactor is full,
// returning the compactions run. The caller invalidates the query view.
func (s *Sketch) insert(x float64) int {
	if s.Append(x) >= s.compactors[0].capacity() {
		return s.compress()
	}
	return 0
}

// compress compacts every over-full compactor from the bottom up and
// returns how many compactions it ran.
func (s *Sketch) compress() int {
	n := 0
	for h := 0; h < len(s.compactors); h++ {
		if len(s.Levels[h].Items) >= s.compactors[h].capacity() {
			s.compactLevel(h)
			n++
		}
	}
	if metrics != nil {
		metrics.PeakBytes.Max(int64(s.MemoryBytes()))
	}
	s.assertInvariants("compress")
	return n
}

// compactLevel runs one compaction of compactor h, promoting survivors to
// height h+1 (created on demand).
func (s *Sketch) compactLevel(h int) {
	n := len(s.Levels[h].Items)
	if n < 2 {
		return
	}
	if h+1 >= len(s.compactors) {
		s.addLevel(s.compactors[h].sectionSize)
	}
	c := &s.compactors[h]

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
	if maxL := n - c.capacity()/2; L > maxL {
		L = maxL
	}
	L &^= 1 // even
	if L < 2 {
		L = 2
	}

	// High ranks accurate: sacrifice the smallest values; otherwise the
	// largest.
	lo := n - L
	if s.hra {
		lo = 0
	}
	// The promoted items, every other item of a sorted region, form an
	// ascending run. Merged into an ascending compactor h+1 it keeps
	// h+1 ascending, so h+1 needs no sort at its own compaction or in
	// the query view. Otherwise (h+1 has a descent, or is too long for
	// a merge to pay) it is appended.
	merge := s.Ascending(h+1) && len(s.Levels[h+1].Items) <= maxMergeRatio*(L/2)
	s.Compact(h, lo, L, merge)

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
	mergedCount := s.N + o.N
	for len(s.compactors) < len(o.compactors) {
		s.addLevel(s.compactors[len(s.compactors)-1].sectionSize)
	}
	s.Concat(&o.CompactorStack)
	for h, oc := range o.compactors {
		c := &s.compactors[h]
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
	recordCompactions(s.compress())
	s.assertCount("merge", mergedCount)
	return nil
}

// MemoryBytes implements sketch.Sketch: 4 bytes per retained float32
// sample plus per-compactor and global bookkeeping.
func (s *Sketch) MemoryBytes() int {
	return 4*s.Retained() + 5*8*len(s.compactors) + 8*8
}

// Footprint implements sketch.Footprinter: the live bytes actually
// held — the stack's allocated buffer and merge-scratch capacity, query
// view and fixed bookkeeping, plus each compactor's schedule — as
// opposed to MemoryBytes' occupancy-based Table 3 accounting.
func (s *Sketch) Footprint() int {
	return s.CompactorStack.Footprint() + 5*8*len(s.compactors)
}

// Degrade implements sketch.Degrader: halve every compactor's section
// size (floored at the minimum, 4) and force-compact under the shrunken
// capacities, clipping buffers to their new occupancy. The degraded
// sketch stays mergeable with full-k sketches through the min-k Merge
// rule; its relative-error scale grows by ≈√2 per step (AccuracyBound).
func (s *Sketch) Degrade() (int, error) {
	before := s.Footprint()
	shrunk := false
	for h := range s.compactors {
		c := &s.compactors[h]
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
	recordCompactions(s.compress())
	s.Clip()
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
	*s = *NewWithSeed(s.k, s.hra, s.Seed)
}

// Clone returns a deep copy of s that continues bit-identically to it:
// the stack and every compactor's schedule are copied, and the coin
// resumes from s's PCG state. Scratch and the query view are not
// copied.
func (s *Sketch) Clone() *Sketch {
	return &Sketch{
		CompactorStack: s.CompactorStack.Clone(),
		k:              s.k,
		hra:            s.hra,
		compactors:     slices.Clone(s.compactors),
	}
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
	if err := s.MarshalState(w); err != nil {
		return nil, err
	}
	for h, c := range s.compactors {
		w.F64(c.sectionSizeF)
		w.U32(uint32(c.sectionSize))
		w.U32(uint32(c.numSections))
		w.U64(c.state)
		s.MarshalLevel(w, h)
	}
	return w.Bytes(), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler. Like KLL, the
// decoded sketch restores the exact PCG state of its coin, so it
// continues bit-identically to the original; a blob that parses but
// breaks the stack's structure is corrupt.
func (s *Sketch) UnmarshalBinary(data []byte) error {
	r := sketch.NewReader(data)
	if err := r.Header(sketch.TagReq); err != nil {
		return err
	}
	k := int(r.U32())
	hra := r.Byte() == 1
	if k < minSectionSize || k > 1<<20 {
		return sketch.ErrCorrupt
	}
	ns := NewWithSeed(k, hra, 0)
	numLevels, err := ns.UnmarshalState(r)
	if err != nil {
		return err
	}
	if numLevels < 1 || numLevels > 64 {
		return sketch.ErrCorrupt
	}
	ns.compactors = make([]compactor, 0, numLevels)
	for range numLevels {
		c := newCompactor(k)
		c.sectionSizeF = r.F64()
		c.sectionSize = int(r.U32())
		c.numSections = int(r.U32())
		c.state = r.U64()
		if c.sectionSize < minSectionSize || c.sectionSize > 1<<20 || c.numSections < 1 || c.numSections > 1<<20 {
			return sketch.ErrCorrupt
		}
		if err := ns.UnmarshalLevel(r); err != nil {
			return err
		}
		ns.compactors = append(ns.compactors, c)
	}
	if err := ns.Validate(r); err != nil {
		return err
	}
	ns.assertInvariants("unmarshal")
	*s = *ns
	return nil
}
