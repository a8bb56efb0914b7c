package sketch

import (
	"math"
	"math/rand/v2"
	"slices"
)

// CompactorStack is the hierarchy of compactors KLL and ReqSketch are
// built from (Karnin, Lang, Liberty): level h holds float32 items of
// weight 2^h, and a compaction sorts a level, keeps every other item of
// a region of it by a coin flip and promotes those items to level h+1
// at double weight. The two sketches differ only in which region
// compacts and when — their schedules, which stay in their own
// packages and drive the stack through Append, AddLevel and Compact.
// The stack owns everything else: level storage with the length of
// each level's sorted prefix, the count and bounds, the seeded coin,
// the compaction body, the query view, Clone, the level part of
// serialization and its validation, decay re-placement, Footprint and
// Degrade's clip.
//
// The sketches embed it. Its fields are exported for the schedules to
// read and for tests to build states; the methods keep the sorted
// prefixes. Code that shortens or reorders a level's Items itself must
// replace the Level, whose zero value claims no sorted prefix.
//
// A stack made by ShareClone borrows its source's items arrays; every
// mutator takes ownership of a level (own) before it writes it, so
// such a copy never writes memory its source can see.
type CompactorStack struct {
	Levels []Level
	// N is the number of items summarized, which equals the retained
	// weight Σ_h len(Levels[h].Items)·2^h.
	N        uint64
	Min, Max float64
	Seed     uint64
	// PCG is the coin. Its state is serialized, so a decoded stack
	// continues (inserts, coin flips, serializations) bit-identically.
	PCG rand.PCG

	// wholeRuns selects KLL's query view: a level enters the view as a
	// sorted run only when all of it is ascending and it is not level
	// 0. Otherwise each level's exact prefix is a run (ReqSketch's
	// view). The view's arrays, which Footprint counts, are sized by
	// that split, so each sketch keeps the one it always had.
	wholeRuns bool
	view      levelView
	// scratch[h] holds level h's unsorted tail while a sort merges it
	// with the prefix; Footprint counts its capacity. It grows only as
	// far as a level that needed it, so a sketch whose levels never
	// merge a tail (KLL) holds none, and Levels stays two words and a
	// length per level, which ShareClone copies on every concurrent
	// handoff.
	scratch [][]float32
	// borrowed has bit h set while Levels[h].Items is an array this
	// stack shares with the stack it was ShareCloned from.
	borrowed uint64
}

// Level is one compactor's storage.
type Level struct {
	Items []float32
	// sorted is the length of an ascending prefix of Items. On every
	// level above 0 it is the longest one: each mutator keeps it exact
	// or re-derives it. Append leaves level 0's behind, since tracking
	// it per insert costs a mispredicted branch on a bottom level that
	// compacts every few inserts; settle brings it up to date before
	// anything reads it. Read that way it is a pure function of Items,
	// so a decoded level holds exactly the original's and promotes into
	// the same places.
	sorted int
}

// NewCompactorStack returns an empty stack with one level of the given
// capacity whose coin is PCG(seed, stream). wholeRuns picks KLL's query
// view (see CompactorStack).
func NewCompactorStack(seed, stream uint64, capacity int, wholeRuns bool) CompactorStack {
	st := CompactorStack{
		Min:       math.Inf(1),
		Max:       math.Inf(-1),
		Seed:      seed,
		PCG:       *rand.NewPCG(seed, stream),
		wholeRuns: wholeRuns,
	}
	st.AddLevel(capacity)
	return st
}

// AddLevel appends an empty top level whose items array has the given
// capacity (none for 0).
func (st *CompactorStack) AddLevel(capacity int) {
	var items []float32
	if capacity > 0 {
		items = make([]float32, 0, capacity)
	}
	st.Levels = append(st.Levels, Level{Items: items})
}

// Count reports the number of items summarized.
func (st *CompactorStack) Count() uint64 { return st.N }

// NumLevels reports the number of compactors.
func (st *CompactorStack) NumLevels() int { return len(st.Levels) }

// Retained reports the total number of items held.
func (st *CompactorStack) Retained() int {
	n := 0
	for _, lv := range st.Levels {
		n += len(lv.Items)
	}
	return n
}

// SortedPrefix returns the length of level h's longest ascending
// prefix, as the stack keeps it: settled on level 0 and read as stored
// above it.
func (st *CompactorStack) SortedPrefix(h int) int {
	lv := &st.Levels[h]
	if h == 0 {
		lv.settle()
	}
	return lv.sorted
}

// Ascending reports whether all of level h, which must be above 0, is
// sorted: the level a compaction promotes into. It reads the prefix
// without settling it, which only level 0's would need.
func (st *CompactorStack) Ascending(h int) bool {
	return st.Levels[h].sorted == len(st.Levels[h].Items)
}

// InvalidateView marks the query view stale. Append leaves that to its
// caller, so a batch of inserts invalidates once.
func (st *CompactorStack) InvalidateView() { st.view.Invalidate() }

// own makes level h's items array private to this stack before a
// mutator writes it: a borrowed array is copied, with headroom for the
// level to grow into. The copy stays in ownSlow so that Append, which
// calls own on every insert, keeps an allocation-free body.
func (st *CompactorStack) own(h int) {
	if st.borrowed&(1<<uint(h)) != 0 {
		st.ownSlow(h)
	}
}

func (st *CompactorStack) ownSlow(h int) {
	st.borrowed &^= 1 << uint(h)
	lv := &st.Levels[h]
	items := make([]float32, len(lv.Items), 2*len(lv.Items)+8)
	copy(items, lv.Items)
	lv.Items = items
}

// Append adds x, which must not be NaN, to level 0, counts it and
// widens the bounds, and returns level 0's new length. The caller runs
// its schedule's trigger and invalidates the view.
//
//sketch:hotpath
func (st *CompactorStack) Append(x float64) int {
	st.own(0)
	lv := &st.Levels[0]
	lv.Items = append(lv.Items, float32(x))
	st.N++
	if x < st.Min {
		st.Min = x
	}
	if x > st.Max {
		st.Max = x
	}
	return len(lv.Items)
}

// SortWhole sorts all of level h with one SortFloat32 call, which needs
// no merge scratch, where Compact sorts only the unsorted tail and
// merges it with the prefix.
func (st *CompactorStack) SortWhole(h int) {
	st.own(h)
	lv := &st.Levels[h]
	SortFloat32(lv.Items)
	lv.sorted = len(lv.Items)
}

// Compact runs one compaction of level h over the region
// Items[lo:lo+n], n even and at least 2, promoting into level h+1,
// which must exist. The level is sorted first: the unsorted tail only,
// then merged with the prefix. One coin flip picks the even- or
// odd-indexed half of the region; that half is an ascending run, which
// is merged into level h+1 when merge is set (level h+1 must then be
// ascending) and appended to it otherwise. The region is then dropped
// from level h, which stays sorted.
func (st *CompactorStack) Compact(h, lo, n int, merge bool) {
	st.own(h)
	st.own(h + 1)
	lv := &st.Levels[h]
	lv.settle()
	if lv.sorted < len(lv.Items) {
		st.sort(h)
	}
	offset := int(st.PCG.Uint64() & 1)
	run := lv.Items[lo+offset:] // the promoted items are run[0], run[2], …
	m := n / 2
	next := &st.Levels[h+1]
	if merge {
		next.Items = mergeRun(next.Items, run, m)
		next.sorted = len(next.Items)
	} else {
		k := len(next.Items)
		for i := 0; i < m; i++ {
			next.Items = append(next.Items, run[2*i])
		}
		next.markSorted(k)
	}
	if rest := lv.Items[lo+n:]; len(rest) > 0 {
		copy(lv.Items[lo:], rest)
	}
	lv.Items = lv.Items[:len(lv.Items)-n]
	lv.sorted = len(lv.Items)
}

// sort restores full sortedness of level h, which has an unsorted
// tail. Only the tail is sorted (with the shared kernel) and then
// merged backward with the prefix, through scratch[h].
func (st *CompactorStack) sort(h int) {
	lv := &st.Levels[h]
	tail := lv.Items[lv.sorted:]
	SortFloat32(tail)
	if lv.sorted > 0 {
		for len(st.scratch) <= h {
			st.scratch = append(st.scratch, nil)
		}
		scratch := append(st.scratch[h][:0], tail...)
		st.scratch[h] = scratch
		// Merge backward: largest items settle at the end first.
		i, j, k := lv.sorted-1, len(scratch)-1, len(lv.Items)-1
		for j >= 0 {
			if i >= 0 && lv.Items[i] > scratch[j] {
				lv.Items[k] = lv.Items[i]
				i--
			} else {
				lv.Items[k] = scratch[j]
				j--
			}
			k--
		}
	}
	lv.sorted = len(lv.Items)
}

// markSorted re-derives sorted after a mutation that changed only
// Items[from:]: Items[:min(from, sorted)] is still ascending, so the
// scan resumes there.
func (lv *Level) markSorted(from int) {
	n := min(from, lv.sorted)
	for n < len(lv.Items) && (n == 0 || lv.Items[n] >= lv.Items[n-1]) {
		n++
	}
	lv.sorted = n
}

// settle brings sorted up to date with items appended since it was
// last exact, the only change Append makes; on an exact prefix it costs
// at most one comparison.
func (lv *Level) settle() { lv.markSorted(len(lv.Items)) }

// mergeRun merges the m ascending items run[0], run[2], …, run[2(m−1)]
// into the ascending dst and returns the result: a compaction promotes
// every other item of a sorted region, so its output is such a run.
// dst grows exactly as m single appends would grow it, so the allocated
// capacity (which Footprint reports) is what appending the run would
// leave. The merge runs backward in place, largest items first; run
// must not share dst's array.
func mergeRun(dst, run []float32, m int) []float32 {
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

// Concat appends o's levels to the receiver's, level by level, and adds
// o's count and bounds: the body of a merge. The receiver must have at
// least as many levels as o. Over-full levels are left to the caller's
// schedule.
func (st *CompactorStack) Concat(o *CompactorStack) {
	for h := range o.Levels {
		st.own(h)
		lv := &st.Levels[h]
		n := len(lv.Items)
		lv.Items = append(lv.Items, o.Levels[h].Items...)
		lv.markSorted(n)
	}
	st.N += o.N
	st.view.Invalidate()
	if o.Min < st.Min {
		st.Min = o.Min
	}
	if o.Max > st.Max {
		st.Max = o.Max
	}
}

// Scale re-places every item for a weight scaled by g (scaleLevels):
// an item at level h moves to every set bit of round(g·2^h), so the
// count is conserved exactly for the new weight and the result is a
// pure function of the levels and g. Each level keeps its place, and
// its sorted prefix is re-derived. When everything rounds away Scale changes
// nothing and reports false; the caller resets. Min and Max are kept as
// conservative bounds.
func (st *CompactorStack) Scale(g float64) bool {
	newLevels, count := scaleLevels(st.Levels, g)
	if count == 0 {
		return false
	}
	for h := range st.Levels {
		st.own(h)
		lv := &st.Levels[h]
		lv.Items = append(lv.Items[:0], newLevels[h]...)
		lv.markSorted(0)
	}
	st.N = count
	st.view.Invalidate()
	return true
}

// Clip drops the spare capacity of every level, the sort scratch and
// the query view's arrays: Degrade's last step. A borrowed level is
// copied at its length: clipped in place, it would still pin the
// source's whole array.
func (st *CompactorStack) Clip() {
	for h := range st.Levels {
		lv := &st.Levels[h]
		if st.borrowed&(1<<uint(h)) != 0 {
			lv.Items = slices.Clone(lv.Items)
		}
		lv.Items = slices.Clip(lv.Items)
	}
	st.borrowed = 0
	st.scratch = nil
	st.view = levelView{}
}

// Clone returns a deep copy that continues (inserts, coin flips,
// serialization) bit-identically to the receiver while sharing no
// mutable state with it. The sort scratch and query view are not
// copied; the copy rebuilds them on demand. Clone only reads the
// receiver, so any number of goroutines may clone one immutable stack
// concurrently.
func (st *CompactorStack) Clone() CompactorStack {
	c := CompactorStack{
		Levels:    make([]Level, len(st.Levels)),
		N:         st.N,
		Min:       st.Min,
		Max:       st.Max,
		Seed:      st.Seed,
		PCG:       st.PCG,
		wholeRuns: st.wholeRuns,
	}
	for h, lv := range st.Levels {
		c.Levels[h] = Level{Items: slices.Clone(lv.Items), sorted: lv.sorted}
	}
	return c
}

// ShareClone returns a copy that continues bit-identically to the
// receiver, like Clone, but copies only the level headers: it borrows
// every items array, and a mutation of the copy first takes a private
// copy of each level it writes (own). The copy never writes a borrowed
// array, but it reads them, so the receiver must not be mutated while
// the copy lives. A stack that nothing mutates may be ShareCloned by
// any number of goroutines concurrently. A stack of more than 64
// levels, with no ownership bit for each, gets a deep Clone.
func (st *CompactorStack) ShareClone() CompactorStack {
	if len(st.Levels) > 64 {
		return st.Clone()
	}
	return CompactorStack{
		Levels:    slices.Clone(st.Levels),
		N:         st.N,
		Min:       st.Min,
		Max:       st.Max,
		Seed:      st.Seed,
		PCG:       st.PCG,
		wholeRuns: st.wholeRuns,
		borrowed:  ^uint64(0) >> (64 - len(st.Levels)),
	}
}

// Footprint reports the live bytes the stack holds: the allocated
// capacity of every level's items and scratch, the query view's arrays
// and fixed bookkeeping.
func (st *CompactorStack) Footprint() int {
	slots := 0
	for _, lv := range st.Levels {
		slots += cap(lv.Items)
	}
	for _, b := range st.scratch {
		slots += cap(b)
	}
	return 4*slots + st.view.Bytes() + 8*8
}

// buildView brings the sorted query view up to date with the levels.
func (st *CompactorStack) buildView() {
	if st.view.Begin() {
		for h := range st.Levels {
			lv := &st.Levels[h]
			lv.settle()
			sorted := lv.sorted
			if st.wholeRuns && (h == 0 || sorted < len(lv.Items)) {
				sorted = 0
			}
			st.view.AddLevel(h, lv.Items, sorted)
		}
		st.view.Sort()
	}
}

// Quantile implements sketch.Sketch: the retained item whose cumulative
// weight first reaches ⌈qN⌉. Estimates are inserted values (rounded to
// float32); q = 1 returns the exact maximum.
func (st *CompactorStack) Quantile(q float64) (float64, error) {
	if err := CheckQuantile(q); err != nil {
		return 0, err
	}
	if st.N == 0 {
		return 0, ErrEmpty
	}
	if q == 1 {
		return st.Max, nil
	}
	st.buildView()
	return st.view.Quantile(q, st.N, st.Min, st.Max), nil
}

// Rank implements sketch.Sketch.
func (st *CompactorStack) Rank(x float64) (float64, error) {
	if st.N == 0 {
		return 0, ErrEmpty
	}
	st.buildView()
	return st.view.Rank(x, st.N), nil
}

// MarshalState writes the stack's seed, coin state, count, bounds and
// level count. Each level follows from MarshalLevel, after whatever
// per-level fields the sketch writes first.
func (st *CompactorStack) MarshalState(w *Writer) error {
	w.U64(st.Seed)
	state, err := st.PCG.MarshalBinary()
	if err != nil {
		return err
	}
	w.Blob(state)
	w.U64(st.N)
	w.F64(st.Min)
	w.F64(st.Max)
	w.U32(uint32(len(st.Levels)))
	return nil
}

// MarshalLevel writes level h's items, length-prefixed.
func (st *CompactorStack) MarshalLevel(w *Writer, h int) {
	items := st.Levels[h].Items
	w.U32(uint32(len(items)))
	for _, v := range items {
		w.U32(math.Float32bits(v))
	}
}

// UnmarshalState reads what MarshalState wrote into st, a freshly
// built stack whose levels it drops, and returns the level count the
// levels to follow must number. A short or malformed input is
// ErrCorrupt.
func (st *CompactorStack) UnmarshalState(r *Reader) (int, error) {
	st.Seed = r.U64()
	state := r.Blob()
	st.N = r.U64()
	st.Min = r.F64()
	st.Max = r.F64()
	numLevels := int(r.U32())
	if r.Err() != nil {
		return 0, r.Err()
	}
	if st.PCG.UnmarshalBinary(state) != nil {
		return 0, ErrCorrupt
	}
	st.Levels = make([]Level, 0, min(numLevels, 64))
	st.borrowed = 0
	return numLevels, nil
}

// UnmarshalLevel reads what MarshalLevel wrote as a new top level.
func (st *CompactorStack) UnmarshalLevel(r *Reader) error {
	n := int(r.U32())
	if r.Err() != nil || n < 0 || n > r.Remaining()/4 {
		return ErrCorrupt
	}
	items := make([]float32, n)
	for i := range items {
		items[i] = math.Float32frombits(r.U32())
	}
	lv := Level{Items: items}
	lv.markSorted(0)
	st.Levels = append(st.Levels, lv)
	return nil
}

// Validate finishes a decode: the input must be used up, and the levels
// structurally sound — weight conservation, no NaN, ordered bounds. A
// blob that parses but breaks them is ErrCorrupt.
func (st *CompactorStack) Validate(r *Reader) error {
	if r.Err() != nil {
		return r.Err()
	}
	if r.Remaining() != 0 || !validLevels(st.Levels, st.N, st.Min, st.Max) {
		return ErrCorrupt
	}
	return nil
}
