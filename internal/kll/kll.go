// Package kll implements the KLL sketch (Karnin, Lang, Liberty; FOCS
// 2016) with the practical refinements of Ivkin et al. used by Apache
// DataSketches: a hierarchy of compactors whose capacities decay
// geometrically (factor 2/3) from the top level's k, lazy compaction, and
// exact min/max tracking. An item retained at level h represents 2^h
// stream items.
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
	"math/rand/v2"
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

// Sketch is a KLL quantile sketch.
type Sketch struct {
	k      int
	levels [][]float32 // levels[h] holds items of weight 2^h
	// sorted has bit h set exactly when levels[h], h ≥ 1, is ascending;
	// bit 0 is never set, since inserts append to level 0 unsorted.
	// Compaction keeps the levels it promotes into sorted (see
	// compactLevel), and every other mutator re-derives the bits of the
	// levels it touches, so the mask is a pure function of the levels —
	// which is what lets UnmarshalBinary restore it by scanning.
	sorted uint64
	count  uint64
	min    float64
	max    float64
	rng    *rand.Rand
	pcg    *rand.PCG // rng's source, kept for exact state serialization
	seed   uint64
	caps   []int // cached per-level capacities for the current height
	// peakStale is set when caps is rebuilt and cleared when compress
	// records the peak-bytes gauge. MemoryBytes after a compaction
	// cascade is a function of the capacity schedule, except for levels
	// a height change in that same cascade left over their new, smaller
	// capacity — and that change rebuilds the schedule too. So only the
	// first cascade after a rebuild can raise the gauge.
	peakStale bool

	// view is the sorted query view, built lazily at query time and
	// invalidated by mutation — the same auxiliary structure DataSketches
	// builds, and the reason KLL query times are fast and size-stable
	// (Sec 4.4.2).
	view sketch.LevelView
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
	pcg := rand.NewPCG(seed, seed^0x9e3779b97f4a7c15)
	return &Sketch{
		k:      k,
		levels: [][]float32{make([]float32, 0, 8)},
		min:    math.Inf(1),
		max:    math.Inf(-1),
		rng:    rand.New(pcg),
		pcg:    pcg,
		seed:   seed,
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
	if len(s.caps) != len(s.levels) {
		s.rebuildCaps()
	}
	return s.caps[h]
}

// rebuildCaps recomputes the capacity schedule for the current height.
func (s *Sketch) rebuildCaps() {
	s.peakStale = true
	s.caps = slices.Grow(s.caps[:0], len(s.levels))[:len(s.levels)]
	for lvl := range s.caps {
		depth := len(s.levels) - 1 - lvl
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
	if metrics != nil {
		metrics.Inserts.Inc()
	}
	s.levels[0] = append(s.levels[0], float32(x))
	s.count++
	s.view.Invalidate()
	if x < s.min {
		s.min = x
	}
	if x > s.max {
		s.max = x
	}
	if len(s.levels[0]) >= s.capacity(0) {
		s.compress()
	}
}

// compress cascades compactions from the lowest over-full level upward
// until every level fits its capacity.
func (s *Sketch) compress() {
	for h := 0; h < len(s.levels); h++ {
		if len(s.levels[h]) >= s.capacity(h) {
			s.compactLevel(h)
			if metrics != nil {
				metrics.Compactions.Inc()
			}
		}
	}
	if metrics != nil && s.peakStale {
		s.peakStale = false
		metrics.PeakBytes.Max(int64(s.MemoryBytes()))
	}
	s.assertInvariants("compress")
}

// compactLevel sorts level h, promotes a uniformly chosen half (odd- or
// even-indexed items) to level h+1 and discards the rest. When the level
// holds an odd number of items one item stays behind so total weight is
// conserved exactly.
//
// Levels above 0 are kept sorted, so only level 0 and a level whose
// sorted bit a merge or rescale cleared pay for a sort. The promoted
// half is itself ascending, and it is merged into a sorted level h+1 in
// place, from the back, reading the run straight out of level h's array;
// an unsorted level h+1 just takes it appended. A float32 multiset
// without ±0 ties has one ascending order, so every compaction promotes
// the same items and draws the same coin flips as sorting the whole
// level each time would: answers are unchanged, and only the order of
// samples inside a level (visible in serialized bytes) differs. −0 and
// +0 compare equal, so on data holding both, which zero is promoted —
// and so which one an answer returns — may differ from that reference.
func (s *Sketch) compactLevel(h int) {
	buf := s.levels[h]
	if len(buf) < minCompactorSize {
		return
	}
	if h+1 >= len(s.levels) {
		s.levels = append(s.levels, make([]float32, 0, s.capacity(h)+1))
	}
	if h == 0 || s.sorted&(1<<h) == 0 {
		sketch.SortFloat32(buf)
	}
	// Keep one leftover on odd sizes: compact items buf[start:start+2m].
	m := len(buf) / 2
	start := len(buf) - 2*m // 0 or 1; the smallest item stays on odd sizes
	offset := 0
	if s.rng.Uint64()&1 == 1 {
		offset = 1
	}
	run := buf[start+offset:] // the promoted items are run[0], run[2], …
	next := s.levels[h+1]
	if len(next) == 0 || s.sorted&(1<<(h+1)) != 0 {
		s.levels[h+1] = sketch.MergeRun(next, run, m)
		s.sorted |= 1 << (h + 1)
	} else {
		for i := 0; i < m; i++ {
			next = append(next, run[2*i])
		}
		s.levels[h+1] = next
	}
	if start == 1 {
		s.levels[h] = append(s.levels[h][:0], buf[0])
	} else {
		s.levels[h] = s.levels[h][:0]
	}
	if h > 0 {
		s.sorted |= 1 << h // at most one item is left
	}
}

// markSorted re-derives bit h of the sorted mask from levels[h], for a
// mutator that changed the level other than by compaction.
func (s *Sketch) markSorted(h int) {
	if h > 0 && slices.IsSorted(s.levels[h]) {
		s.sorted |= 1 << h
	} else {
		s.sorted &^= 1 << h
	}
}

// Count implements sketch.Sketch.
func (s *Sketch) Count() uint64 { return s.count }

// buildView brings the sorted query view up to date with the levels.
func (s *Sketch) buildView() {
	if s.view.Begin() {
		for h, lv := range s.levels {
			sorted := 0
			if s.sorted&(1<<h) != 0 {
				sorted = len(lv)
			}
			s.view.AddLevel(h, lv, sorted)
		}
		s.view.Sort()
	}
}

// Quantile implements sketch.Sketch: the retained sample whose cumulative
// weight first reaches ⌈qN⌉. Estimates are actual inserted values
// (float32-rounded); q = 1 returns the exact maximum.
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
	mergedCount := s.count + o.count
	for len(s.levels) < len(o.levels) {
		s.levels = append(s.levels, nil)
	}
	for h, lv := range o.levels {
		s.levels[h] = append(s.levels[h], lv...)
		s.markSorted(h)
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
	s.assertCount("merge", mergedCount)
	return nil
}

// SampleValues returns the values of every retained sample (unsorted,
// duplicates preserved) as float64s. KLL± uses them as quantile-search
// candidates.
func (s *Sketch) SampleValues() []float64 {
	out := make([]float64, 0, s.Retained())
	for _, lv := range s.levels {
		for _, v := range lv {
			out = append(out, float64(v))
		}
	}
	return out
}

// Retained reports the total number of samples currently held.
func (s *Sketch) Retained() int {
	n := 0
	for _, lv := range s.levels {
		n += len(lv)
	}
	return n
}

// NumLevels reports the current compactor count.
func (s *Sketch) NumLevels() int { return len(s.levels) }

// MemoryBytes implements sketch.Sketch: 4 bytes per allocated float32
// slot. Like the DataSketches implementation the study measured, the
// accounting covers the full compactor capacities (the paper's "total
// sample size of 1048" for k = 350 is the capacity sum k·Σ(2/3)^i ≈ 3k),
// not just their current occupancy, plus fixed bookkeeping.
func (s *Sketch) MemoryBytes() int {
	slots := 0
	for h := range s.levels {
		c := s.capacity(h)
		if n := len(s.levels[h]); n > c {
			c = n
		}
		slots += c
	}
	return 4*slots + 8*8
}

// Footprint implements sketch.Footprinter: the live bytes actually
// held — allocated sample-slot capacity (not the schedule's target
// capacities) plus the sorted-view caches and fixed bookkeeping.
func (s *Sketch) Footprint() int {
	slots := 0
	for _, lv := range s.levels {
		slots += cap(lv)
	}
	return 4*slots + s.view.Bytes() + 8*8
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
	s.compress()
	for h := range s.levels {
		s.levels[h] = slices.Clip(s.levels[h])
	}
	s.view = sketch.LevelView{} // drop the query view's capacity too
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
	*s = *NewWithSeed(s.k, s.seed)
}

// Clone returns a deep copy that continues (inserts, compaction coin
// flips, serialization) bit-identically to the receiver while sharing
// no mutable state with it. The sorted-view caches are not copied —
// they are query-time scratch the copy rebuilds on demand. Clone only
// reads the receiver, so any number of goroutines may Clone the same
// immutable sketch concurrently; the concurrent layer's CAS handoff and
// snapshot reads are built on exactly that property. It panics if the
// compaction RNG state fails to round-trip, which cannot happen for a
// state the RNG itself produced.
func (s *Sketch) Clone() *Sketch {
	c := &Sketch{
		k:      s.k,
		count:  s.count,
		min:    s.min,
		max:    s.max,
		seed:   s.seed,
		caps:   slices.Clone(s.caps),
		sorted: s.sorted,

		peakStale: s.peakStale,
	}
	c.levels = make([][]float32, len(s.levels))
	for h, lv := range s.levels {
		c.levels[h] = slices.Clone(lv)
	}
	state, err := s.pcg.MarshalBinary()
	if err != nil {
		panic(fmt.Sprintf("kll: clone: marshal rng state: %v", err))
	}
	pcg := rand.NewPCG(s.seed, s.seed^0x9e3779b97f4a7c15)
	if err := pcg.UnmarshalBinary(state); err != nil {
		panic(fmt.Sprintf("kll: clone: restore rng state: %v", err))
	}
	c.pcg = pcg
	c.rng = rand.New(pcg)
	return c
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (s *Sketch) MarshalBinary() ([]byte, error) {
	w := sketch.NewWriter(96 + 4*s.Retained())
	w.Header(sketch.TagKLL)
	w.U32(uint32(s.k))
	w.U64(s.seed)
	rngState, err := s.pcg.MarshalBinary()
	if err != nil {
		return nil, err
	}
	w.Blob(rngState)
	w.U64(s.count)
	w.F64(s.min)
	w.F64(s.max)
	w.U32(uint32(len(s.levels)))
	for _, lv := range s.levels {
		w.U32(uint32(len(lv)))
		for _, v := range lv {
			w.U32(math.Float32bits(v))
		}
	}
	return w.Bytes(), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler. The decoded
// sketch restores the exact PCG state of the compaction RNG, so it
// continues (inserts, compaction coin flips, future serializations)
// bit-identically to the original — the contract stream checkpoint
// recovery relies on.
func (s *Sketch) UnmarshalBinary(data []byte) error {
	r := sketch.NewReader(data)
	if err := r.Header(sketch.TagKLL); err != nil {
		return err
	}
	k := int(r.U32())
	seed := r.U64()
	rngState := r.Blob()
	count := r.U64()
	minV := r.F64()
	maxV := r.F64()
	numLevels := int(r.U32())
	if r.Err() != nil {
		return r.Err()
	}
	if k < minCompactorSize || k > 1<<24 || numLevels < 1 || numLevels > 64 {
		return sketch.ErrCorrupt
	}
	ns := NewWithSeed(k, seed)
	if err := ns.pcg.UnmarshalBinary(rngState); err != nil {
		return sketch.ErrCorrupt
	}
	ns.count = count
	ns.min = minV
	ns.max = maxV
	ns.levels = make([][]float32, numLevels)
	for h := range ns.levels {
		n := int(r.U32())
		if r.Err() != nil || n < 0 || n > (r.Remaining())/4 {
			return sketch.ErrCorrupt
		}
		lv := make([]float32, n)
		for i := range lv {
			lv[i] = math.Float32frombits(r.U32())
		}
		ns.levels[h] = lv
	}
	if r.Err() != nil {
		return r.Err()
	}
	if r.Remaining() != 0 {
		return sketch.ErrCorrupt
	}
	// Structural validation: a blob that decodes but breaks the sketch's
	// invariants (weight conservation, ordered bounds, NaN samples) is
	// corrupt, even if every field parsed.
	if !sketch.ValidLevels(ns.levels, ns.count, ns.min, ns.max) {
		return sketch.ErrCorrupt
	}
	// The sorted mask is a pure function of the levels, so scanning
	// restores exactly the original's, and the decoded sketch merges
	// where the original would have: resume stays byte-identical.
	for h := range ns.levels {
		ns.markSorted(h)
	}
	ns.assertInvariants("unmarshal")
	*s = *ns
	return nil
}
