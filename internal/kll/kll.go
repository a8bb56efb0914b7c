// Package kll implements the KLL sketch (Karnin, Lang, Liberty; FOCS
// 2016) with the practical refinements of Ivkin et al. used by Apache
// DataSketches: a hierarchy of compactors whose capacities decay
// geometrically (factor 2/3) from the top level's k, and exact min/max
// tracking. Compaction is eager: every level compacts as soon as it
// reaches its own capacity. An item retained at level h represents 2^h
// stream items.
//
// The compactors are a sketch.CompactorStack, shared with ReqSketch;
// this package keeps only KLL's schedule: the geometric capacities,
// compress's trigger, which region compacts (all of a level but, on
// odd sizes, its smallest item), the min-k Merge rule and the header
// fields of the serialized form.
//
// Mirroring the DataSketches implementation the study evaluates (a
// *float* sketch), samples are stored as float32; this is what produces
// the paper's Table 3 footprint of ≈4.24 KB for k = 350 (≈1048 retained
// samples at 4 bytes each).
//
// KLL answers rank queries with additive error εn with high probability;
// returned quantile estimates are actual stream values (modulo float32
// rounding), so on data with heavy value repetition it is frequently
// exact (paper Sec 4.5.3).
package kll

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/sketch"
)

// DefaultK is the study's configuration: max_compactor_size = 350, giving
// an expected rank error of ≈0.97% (Sec 4.2).
const DefaultK = 350

// minCompactorSize is the smallest capacity any level may have.
const minCompactorSize = 2

// capacityDecay is the geometric decay of compactor capacities below the
// top level.
const capacityDecay = 2.0 / 3.0

// Sketch is a KLL quantile sketch. Its query view treats a level as a
// sorted run only when all of it is ascending and it is not level 0,
// and is built lazily at query time and invalidated by mutation — the
// same auxiliary structure DataSketches builds, and the reason KLL
// query times are fast and size-stable (Sec 4.4.2).
type Sketch struct {
	sketch.CompactorStack
	k    int
	caps []int // cached per-level capacities for the current height
	// peakStale is set when caps is rebuilt and cleared when compress
	// records the peak-bytes gauge. MemoryBytes after a compaction
	// cascade is a function of the capacity schedule, except for levels
	// a height change in that same cascade left over their new, smaller
	// capacity — and that change rebuilds the schedule too. So only the
	// first cascade after a rebuild can raise the gauge.
	peakStale bool
	// fits is set while every level is known to be under its capacity
	// since compress's last pass: a pass that ran with no capacity
	// rebuild leaves them so, and between passes only Append changes a
	// level. rebuildCaps, Merge and ScaleCount clear it, and a decoded
	// sketch starts without it. While it holds, compress stops at the
	// first level that fits, since nothing above it has changed.
	fits bool
}

var _ sketch.Sketch = (*Sketch)(nil)

// New returns a KLL sketch with max compactor size k and a fixed default
// seed (deterministic across runs). Use NewWithSeed to vary the
// randomization.
func New(k int) *Sketch { return NewWithSeed(k, 0x5eed5eed5eed5eed) }

// NewWithSeed returns a KLL sketch whose compaction coin flips derive
// from seed. It panics if k < 2.
func NewWithSeed(k int, seed uint64) *Sketch {
	if k < minCompactorSize {
		panic(fmt.Sprintf("kll: k must be >= %d, got %d", minCompactorSize, k))
	}
	return &Sketch{
		CompactorStack: sketch.NewCompactorStack(seed, seed^0x9e3779b97f4a7c15, 8, true),
		k:              k,
	}
}

// Name implements sketch.Sketch.
func (s *Sketch) Name() string { return "kll" }

// K returns the configured max compactor size.
func (s *Sketch) K() int { return s.k }

// capacity returns the target capacity of level h given the current
// number of levels: ⌈k·(2/3)^(H−1−h)⌉ bounded below by 2, so the top
// level holds k items and lower levels shrink geometrically. Capacities
// are cached per sketch height since they are consulted on every insert;
// the check stays small enough to inline and rebuildCaps does the rest.
func (s *Sketch) capacity(h int) int {
	if len(s.caps) != len(s.Levels) {
		s.rebuildCaps()
	}
	return s.caps[h]
}

// rebuildCaps recomputes the capacity schedule for the current height.
// It fills a new array rather than the old one, which ShareClone
// leaves shared with the source.
func (s *Sketch) rebuildCaps() {
	s.peakStale = true
	s.fits = false
	s.caps = make([]int, len(s.Levels))
	for lvl := range s.caps {
		depth := len(s.Levels) - 1 - lvl
		c := int(math.Ceil(float64(s.k) * math.Pow(capacityDecay, float64(depth))))
		if c < minCompactorSize {
			c = minCompactorSize
		}
		s.caps[lvl] = c
	}
}

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
// which is not NaN, and compresses once level 0 is full, returning the
// compactions run. The caller invalidates the query view.
func (s *Sketch) insert(x float64) int {
	if s.Append(x) >= s.capacity(0) {
		return s.compress()
	}
	return 0
}

// compress cascades compactions from the lowest over-full level upward
// until every level fits its capacity, and returns how many it ran.
// When every level fitted after the last pass (fits), a level that
// fits ends the cascade: the levels above it are as that pass left
// them. A capacity rebuild during the pass clears fits, and the pass
// then visits every level, as a rebuild can shrink the capacity of
// levels it has already passed.
func (s *Sketch) compress() int {
	n := 0
	early := s.fits
	s.fits = true
	for h := 0; h < len(s.Levels); h++ {
		if len(s.Levels[h].Items) >= s.capacity(h) {
			s.compactLevel(h)
			n++
		} else if early && s.fits {
			break
		}
	}
	if metrics != nil && s.peakStale {
		s.peakStale = false
		metrics.PeakBytes.Max(int64(s.MemoryBytes()))
	}
	s.assertInvariants("compress")
	return n
}

// compactLevel compacts level h whole: it promotes a uniformly chosen
// half (odd- or even-indexed items) to level h+1 and discards the rest.
// When the level holds an odd number of items its smallest item stays
// behind, so total weight is conserved exactly.
//
// Levels above 0 stay sorted, so only level 0 and a level a merge or
// rescale left unsorted pay for a sort. KLL sorts such a level whole
// with one kernel call, which holds no merge scratch that Footprint
// would count, and sorts level 0 even when it is ascending: the radix
// kernel puts −0 before +0, which decides the zero promoted on data
// holding both, and the byte goldens pin that choice. The promoted
// half is merged into an ascending level h+1 and appended to any
// other. A float32 multiset
// without ±0 ties has one ascending order, so every compaction promotes
// the same items and draws the same coin flips as sorting the whole
// level each time would: answers are unchanged, and only the order of
// samples inside a level (visible in serialized bytes) differs.
func (s *Sketch) compactLevel(h int) {
	n := len(s.Levels[h].Items)
	if n < minCompactorSize {
		return
	}
	if h+1 >= len(s.Levels) {
		s.AddLevel(s.capacity(h) + 1)
	}
	if h == 0 || !s.Ascending(h) {
		s.SortWhole(h)
	}
	even := n &^ 1
	s.Compact(h, n-even, even, s.Ascending(h+1))
}

// Merge implements sketch.Sketch: compactors at the same height are
// concatenated and any level exceeding the merged sketch's capacity
// schedule is compacted (Sec 3.1).
//
// Sketches with different k merge under the DataSketches min-k rule:
// the receiver adopts the smaller of the two k values before
// concatenating, so its capacity schedule (and error bound) degrades to
// the coarser sketch's. This is what keeps budget-degraded partials
// (Degrade) mergeable with fresh full-k partials at window boundaries.
func (s *Sketch) Merge(other sketch.Sketch) error {
	o, ok := other.(*Sketch)
	if !ok {
		return fmt.Errorf("%w: cannot merge %s into kll", sketch.ErrIncompatible, other.Name())
	}
	if o.k < s.k {
		s.k = o.k
		s.caps = nil
	}
	s.fits = false
	mergedCount := s.N + o.N
	for len(s.Levels) < len(o.Levels) {
		s.AddLevel(0)
	}
	s.Concat(&o.CompactorStack)
	recordCompactions(s.compress())
	s.assertCount("merge", mergedCount)
	return nil
}

// SampleValues returns the values of every retained sample (unsorted,
// duplicates preserved) as float64s. KLL± uses them as quantile-search
// candidates.
func (s *Sketch) SampleValues() []float64 {
	out := make([]float64, 0, s.Retained())
	for _, lv := range s.Levels {
		for _, v := range lv.Items {
			out = append(out, float64(v))
		}
	}
	return out
}

// MemoryBytes implements sketch.Sketch: 4 bytes per allocated float32
// slot. Like the DataSketches implementation the study measured, the
// accounting covers the full compactor capacities (the paper's "total
// sample size of 1048" for k = 350 is the capacity sum k·Σ(2/3)^i ≈ 3k),
// not just their current occupancy, plus fixed bookkeeping.
func (s *Sketch) MemoryBytes() int {
	slots := 0
	for h := range s.Levels {
		c := s.capacity(h)
		if n := len(s.Levels[h].Items); n > c {
			c = n
		}
		slots += c
	}
	return 4*slots + 8*8
}

// minDegradeK is the floor Degrade will not shrink k below: at k = 8
// the sketch is already a near-constant-size summary and further
// halving frees almost nothing.
const minDegradeK = 8

// Degrade implements sketch.Degrader: force-compact to half the
// current k. The capacity schedule shrinks geometrically with k, so
// every over-full level compacts, the sample arrays are clipped to
// their new occupancy and the query caches are dropped. The degraded
// sketch stays mergeable with full-k sketches through the min-k Merge
// rule, at the min-k error bound (AccuracyBound grows accordingly).
func (s *Sketch) Degrade() (int, error) {
	if s.k <= minDegradeK {
		return 0, sketch.ErrNotDegradable
	}
	before := s.Footprint()
	nk := s.k / 2
	if nk < minDegradeK {
		nk = minDegradeK
	}
	s.k = nk
	s.caps = nil
	recordCompactions(s.compress())
	s.Clip()
	freed := before - s.Footprint()
	if freed < 0 {
		freed = 0
	}
	return freed, nil
}

// AccuracyBound implements sketch.AccuracyBounder with the DataSketches
// empirical fit for KLL's normalized rank error, ε(k) ≈ 2.296/k^0.9433
// (≈0.97% at the study's k = 350). It is a comparable error scale — it
// doubles-ish every Degrade — rather than a formal tail bound.
func (s *Sketch) AccuracyBound() float64 {
	return 2.296 / math.Pow(float64(s.k), 0.9433)
}

// Reset implements sketch.Sketch.
func (s *Sketch) Reset() {
	*s = *NewWithSeed(s.k, s.Seed)
}

// Clone returns a deep copy that continues (inserts, compaction coin
// flips, serialization) bit-identically to the receiver while sharing
// no mutable state with it. The sorted-view caches are not copied —
// they are query-time scratch the copy rebuilds on demand. Clone only
// reads the receiver, so any number of goroutines may Clone the same
// immutable sketch concurrently; the concurrent layer's CAS handoff and
// snapshot reads are built on exactly that property.
func (s *Sketch) Clone() *Sketch {
	return &Sketch{
		CompactorStack: s.CompactorStack.Clone(),
		k:              s.k,
		caps:           slices.Clone(s.caps),
		peakStale:      s.peakStale,
		fits:           s.fits,
	}
}

// ShareClone returns a copy that continues bit-identically to the
// receiver, like Clone, but borrows the receiver's sample arrays and
// capacity schedule and copies a level only when the copy first writes
// it (sketch.CompactorStack.ShareClone). The receiver must not be
// mutated while the copy lives; a sketch that nothing mutates may be
// ShareCloned by any number of goroutines concurrently. The
// concurrent layer's published versions
// are such sketches: a handoff touches only the few levels its
// compaction cascade reaches, and a snapshot, which only queries,
// copies none.
func (s *Sketch) ShareClone() *Sketch {
	return &Sketch{
		CompactorStack: s.CompactorStack.ShareClone(),
		k:              s.k,
		caps:           s.caps,
		peakStale:      s.peakStale,
		fits:           s.fits,
	}
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (s *Sketch) MarshalBinary() ([]byte, error) {
	w := sketch.NewWriter(96 + 4*s.Retained())
	w.Header(sketch.TagKLL)
	w.U32(uint32(s.k))
	if err := s.MarshalState(w); err != nil {
		return nil, err
	}
	for h := range s.Levels {
		s.MarshalLevel(w, h)
	}
	return w.Bytes(), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler. The decoded
// sketch restores the exact PCG state of the compaction coin, so it
// continues (inserts, compaction coin flips, future serializations)
// bit-identically to the original — the contract stream checkpoint
// recovery relies on. A blob that parses but breaks the stack's
// structure (weight conservation, ordered bounds, NaN samples) is
// corrupt.
func (s *Sketch) UnmarshalBinary(data []byte) error {
	r := sketch.NewReader(data)
	if err := r.Header(sketch.TagKLL); err != nil {
		return err
	}
	k := int(r.U32())
	if k < minCompactorSize || k > 1<<24 {
		return sketch.ErrCorrupt
	}
	ns := NewWithSeed(k, 0)
	numLevels, err := ns.UnmarshalState(r)
	if err != nil {
		return err
	}
	if numLevels < 1 || numLevels > 64 {
		return sketch.ErrCorrupt
	}
	for range numLevels {
		if err := ns.UnmarshalLevel(r); err != nil {
			return err
		}
	}
	if err := ns.Validate(r); err != nil {
		return err
	}
	ns.assertInvariants("unmarshal")
	*s = *ns
	return nil
}
