package sketch

import (
	"math"
	"math/bits"
	"slices"
	"sort"
)

// LevelView is the sorted query view of a level-based sampler (KLL,
// ReqSketch): an item retained at level h weighs 2^h, and every item is
// sorted by value with its cumulative weight so quantile and rank
// queries are binary searches. The view is built lazily once per
// mutation epoch, and its arrays keep their capacity across rebuilds,
// so a warm rebuild allocates nothing. The zero value is an empty,
// invalid view.
//
// The samplers keep most of their items in sorted runs (KLL's levels
// above 0, the sorted prefix of each REQ compactor), so a rebuild takes
// each level as an ascending prefix plus an unsorted tail, sorts only
// the tails (into one scratch array, with SortFloat32) and merges all
// the runs. A rebuild is closure-free:
//
//	if v.Begin() {
//		for h, items := range levels {
//			v.AddLevel(h, items, sortedLen[h])
//		}
//		v.Sort()
//	}
type LevelView struct {
	valid   bool
	vals    []float32  // item values, ascending
	cum     []uint64   // cum[i] is the total weight of vals[:i+1]
	runs    []levelRun // the ascending runs being merged
	tails   []levelRun // the unsorted tails, sorted into scratch by Sort
	scratch []float32
}

// levelRun is a run of items that all weigh w.
type levelRun struct {
	items []float32
	w     uint64
}

// Invalidate marks the view stale; the next Begin starts a rebuild.
// Every mutation of the summarized levels must call it.
func (v *LevelView) Invalidate() { v.valid = false }

// Begin starts a rebuild and reports true, or reports false when the
// view is still valid and needs none.
func (v *LevelView) Begin() bool {
	if v.valid {
		return false
	}
	v.runs, v.tails = v.runs[:0], v.tails[:0]
	return true
}

// AddLevel adds the items of level h, each weighing 2^h, to the view
// being rebuilt. items[:sorted] must be ascending; the rest may be in
// any order. The view reads items until Sort returns, so the level must
// not change before then.
func (v *LevelView) AddLevel(h int, items []float32, sorted int) {
	w := uint64(1) << uint(h)
	if sorted > 0 {
		v.runs = append(v.runs, levelRun{items[:sorted], w})
	}
	if sorted < len(items) {
		v.tails = append(v.tails, levelRun{items[sorted:], w})
	}
}

// Sort finishes a rebuild: the tails are sorted, every run is merged by
// value and the weights are accumulated. Equal values from different
// runs may land in any order, which cannot be observed: Quantile and
// Rank only consult cumulative weight at value boundaries.
func (v *LevelView) Sort() {
	n, tn := 0, 0
	for _, r := range v.runs {
		n += len(r.items)
	}
	for _, r := range v.tails {
		tn += len(r.items)
	}
	scratch := slices.Grow(v.scratch[:0], tn)[:tn]
	v.scratch = scratch
	for _, r := range v.tails {
		t := scratch[:len(r.items)]
		scratch = scratch[len(r.items):]
		copy(t, r.items)
		SortFloat32(t)
		v.runs = append(v.runs, levelRun{t, r.w})
	}
	n += tn
	vals := slices.Grow(v.vals[:0], n)[:n]
	cums := slices.Grow(v.cum[:0], n)[:n]
	mergeRuns(vals, cums, v.runs)
	v.vals, v.cum = vals, cums
	// Drop the references to the levels, which may be replaced before
	// the next rebuild.
	clear(v.runs)
	clear(v.tails)
	v.valid = true
}

// mergeRuns writes the items of the ascending runs into vals in value
// order, and into cum their cumulative weight, by repeatedly taking the
// smallest head of a binary min-heap of the runs. vals and cum must
// hold exactly the runs' items. The runs are consumed.
func mergeRuns(vals []float32, cum []uint64, runs []levelRun) {
	for i := len(runs)/2 - 1; i >= 0; i-- {
		siftRun(runs, i)
	}
	var c uint64
	for i := 0; len(runs) > 1; i++ {
		r := &runs[0]
		c += r.w
		vals[i], cum[i] = r.items[0], c
		if r.items = r.items[1:]; len(r.items) == 0 {
			runs[0] = runs[len(runs)-1]
			runs = runs[:len(runs)-1]
		}
		siftRun(runs, 0)
	}
	if len(runs) == 1 {
		r := runs[0]
		off := len(vals) - len(r.items)
		copy(vals[off:], r.items)
		for i := off; i < len(vals); i++ {
			c += r.w
			cum[i] = c
		}
	}
}

// siftRun restores the min-heap order of runs, keyed by each run's
// first item, below position i.
func siftRun(runs []levelRun, i int) {
	for {
		m := i
		if l := 2*i + 1; l < len(runs) && runs[l].items[0] < runs[m].items[0] {
			m = l
		}
		if r := 2*i + 2; r < len(runs) && runs[r].items[0] < runs[m].items[0] {
			m = r
		}
		if m == i {
			return
		}
		runs[i], runs[m] = runs[m], runs[i]
		i = m
	}
}

// Quantile returns the item whose cumulative weight first reaches
// ⌈q·count⌉, clamped to [min, max], or max when no item reaches it. q
// must be valid and the view built.
func (v *LevelView) Quantile(q float64, count uint64, min, max float64) float64 {
	target := uint64(math.Ceil(q * float64(count)))
	if target < 1 {
		target = 1
	}
	i := sort.Search(len(v.cum), func(i int) bool { return v.cum[i] >= target })
	if i >= len(v.vals) {
		return max
	}
	// Not math.Min/Max: those order −0 below +0, and estimates must stay
	// bit-identical to the samplers' original clamp.
	x := float64(v.vals[i])
	if x < min {
		return min
	}
	if x > max {
		return max
	}
	return x
}

// Rank returns the weight of the items ≤ x (compared as float32) as a
// fraction of count, and 0 for NaN. The view must be built.
func (v *LevelView) Rank(x float64, count uint64) float64 {
	if math.IsNaN(x) {
		return 0
	}
	xf := float32(x)
	// Last position with value ≤ x.
	i := sort.Search(len(v.vals), func(i int) bool { return v.vals[i] > xf })
	if i == 0 {
		return 0
	}
	return float64(v.cum[i-1]) / float64(count)
}

// Weight reports the total weight of the built view, which equals the
// sampler's count whenever its levels conserve weight.
func (v *LevelView) Weight() uint64 {
	if len(v.cum) == 0 {
		return 0
	}
	return v.cum[len(v.cum)-1]
}

// Bytes reports the capacity the view holds, for Footprint accounting.
func (v *LevelView) Bytes() int {
	return 4*cap(v.vals) + 8*cap(v.cum) + 4*cap(v.scratch) + 32*(cap(v.runs)+cap(v.tails))
}

// ScaleLevels rescales the weight of level-based samples by g in (0, 1)
// through binary re-decomposition: an item at level h weighs 2^h, so
// after scaling it should weigh W = round(g·2^h), and it is re-placed at
// every set bit of W (all bits are ≤ h, so the hierarchy never grows).
// It returns the new levels, as many as given, and their total weight
// Σ_h |levels[h]|·W_h, which conserves the retained weight exactly.
// Levels are visited in ascending order and items in retained order, so
// the result is a pure function of levels and g. Levels whose scaled
// weight rounds to 0 drop their items; a total of 0 (always so for
// g ≤ 0) means everything rounded away.
func ScaleLevels(levels [][]float32, g float64) ([][]float32, uint64) {
	if g <= 0 {
		return nil, 0
	}
	out := make([][]float32, len(levels))
	var count uint64
	for h, lv := range levels {
		if len(lv) == 0 {
			continue
		}
		w := uint64(math.Round(g * float64(uint64(1)<<uint(h))))
		if w == 0 {
			continue
		}
		count += w * uint64(len(lv))
		for b := uint(0); w>>b != 0; b++ {
			if w&(1<<b) != 0 {
				out[b] = append(out[b], lv...)
			}
		}
	}
	return out, count
}

// ValidLevels reports whether decoded level-based samples are
// structurally sound: no sample is NaN, the retained weight
// Σ_h |levels[h]|·2^h sums without overflow to exactly count, and
// min ≤ max when count > 0. Decoders reject a blob failing it as
// corrupt even when every field parsed; the overflow check matters
// because a wrapped sum can match any count.
func ValidLevels(levels [][]float32, count uint64, min, max float64) bool {
	var weight uint64
	for h, lv := range levels {
		if len(lv) == 0 {
			continue
		}
		if h >= 64 {
			return false
		}
		hi, lo := bits.Mul64(uint64(len(lv)), 1<<uint(h))
		var carry uint64
		weight, carry = bits.Add64(weight, lo, 0)
		if hi != 0 || carry != 0 {
			return false
		}
		for _, v := range lv {
			if math.IsNaN(float64(v)) {
				return false
			}
		}
	}
	return weight == count && (count == 0 || min <= max)
}
