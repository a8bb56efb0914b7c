package ddsketch

import (
	"math"

	"repro/internal/sketch"
)

var _ sketch.CountScaler = (*Sketch)(nil)

// ScaleCount implements sketch.CountScaler by rounded bucket scaling,
// the same mechanism UDDSketch uses: both stores are rebuilt with each
// bucket count c replaced by round(c·g) (buckets rounding to 0 are
// skipped, so they vanish), and the zero counter scales
// the same way. Count() is derived from store totals, so no separate
// count fixup is needed. Stores iterate in ascending index order and
// each bucket transforms independently, so the rebuild is
// deterministic; rebuilding into a fresh store of the same kind keeps
// any collapsing bound intact (the scaled index span is a subset of the
// old one, so no new collapses occur). min/max are kept as conservative
// bounds.
func (s *Sketch) ScaleCount(g float64) {
	if math.IsNaN(g) || g >= 1 {
		return
	}
	if g <= 0 {
		s.Reset()
		return
	}
	scaleStore := func(src Store) Store {
		a := scaledAdder{dst: s.storeFn(), g: g}
		a.addAll(src)
		return a.dst
	}
	s.positive = scaleStore(s.positive)
	s.negative = scaleStore(s.negative)
	s.zeroCnt = int64(math.Round(float64(s.zeroCnt) * g))
	if s.Count() == 0 {
		s.Reset()
	}
}

// MergeScaled implements sketch.CountScaler in one pass over o's
// buckets: each count c adds round(c·g) to the receiver's bucket,
// buckets rounding to 0 are skipped, and the zero counter scales the
// same way — bucket for bucket, in the same ascending order, what
// merging a ScaleCount(g) clone of o adds. o's min/max are taken only
// if some count survives the rounding, because a clone whose counts all
// round away resets and carries no bounds into the merge.
func (s *Sketch) MergeScaled(other sketch.Sketch, g float64) error {
	if math.IsNaN(g) || g >= 1 {
		return s.Merge(other)
	}
	o, err := s.mergeable(other)
	if err != nil || g <= 0 {
		return err
	}
	before := s.Count()
	a := scaledAdder{dst: s.positive, g: g}
	a.addAll(o.positive)
	a.dst = s.negative
	a.addAll(o.negative)
	zero := int64(math.Round(float64(o.zeroCnt) * g))
	s.zeroCnt += zero
	if a.added+zero == 0 {
		return nil
	}
	if o.min < s.min {
		s.min = o.min
	}
	if o.max > s.max {
		s.max = o.max
	}
	if metrics != nil {
		metrics.PeakBytes.Max(int64(s.MemoryBytes()))
	}
	s.assertCount("merge", before+uint64(a.added+zero))
	return nil
}

// scaledAdder adds round(c·g) of every bucket it visits to dst,
// skipping buckets that round to 0, and totals what it added.
type scaledAdder struct {
	dst   Store
	g     float64
	added int64
}

func (a *scaledAdder) add(i int, c int64) bool {
	if sc := int64(math.Round(float64(c) * a.g)); sc > 0 {
		a.dst.Add(i, sc)
		a.added += sc
	}
	return true
}

// addAll visits src's buckets. Between two plain DenseStores it takes
// the bulk path (DenseStore.addDense), which allocates dst's array at
// most once. Otherwise the package's own stores are walked through
// their concrete ForEach, which lets the visitor stay on the stack;
// only a foreign Store implementation costs a heap copy.
func (a *scaledAdder) addAll(src Store) {
	switch st := src.(type) {
	case *DenseStore:
		if d, ok := a.dst.(*DenseStore); ok {
			a.added += d.addDense(st, math.MinInt, math.MaxInt, a.g)
			return
		}
		st.ForEach(a.add)
	case *CollapsingLowestDenseStore:
		st.ForEach(a.add)
	case *BufferedPaginatedStore:
		st.ForEach(a.add)
	default:
		h := *a
		st.ForEach(h.add)
		*a = h
	}
}
