package ddsketch

import (
	"errors"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/sketch"
)

// bulkTrials is how many random cases each bulk-path differential test
// draws.
const bulkTrials = 4000

// randomBuckets adds a random sparse run of buckets to st in random
// order, so its array has grown the way arbitrary arrivals grow it.
// The index range straddles 0 half the time, to cover negative indices.
func randomBuckets(rng *rand.Rand, st Store) {
	n := rng.IntN(400)
	center := rng.IntN(4000) - 2000
	if rng.IntN(2) == 0 {
		center = rng.IntN(200) - 100
	}
	span := 1 + rng.IntN(700)
	for k := 0; k < n; k++ {
		c := 1 + rng.Int64N(1000)
		if rng.IntN(20) == 0 {
			c = 1 + rng.Int64N(1<<40)
		}
		st.Add(center-span/2+rng.IntN(span), c)
	}
}

// randomSketch returns a sketch of the given store kind whose positive
// and negative stores are each empty or randomly filled.
func randomSketch(rng *rand.Rand, mk func() *Sketch) *Sketch {
	s := mk()
	for _, st := range []Store{s.positive, s.negative} {
		if rng.IntN(4) != 0 {
			randomBuckets(rng, st)
		}
	}
	if s.Count() > 0 {
		s.min, s.max = -1, 1
	}
	return s
}

// storeKinds are the destinations the differential tests draw: the
// plain dense store takes the bulk path, the collapsing and paginated
// ones must keep the per-bucket path.
var storeKinds = []struct {
	name string
	mk   func() *Sketch
}{
	{"dense", func() *Sketch { return New(0.01) }},
	{"collapsing", func() *Sketch { return NewCollapsing(0.01, 96) }},
	{"paginated", func() *Sketch { return NewPaginated(0.01) }},
}

// perBucket is the reference the bulk path replaced: one Add per
// non-empty bucket of src, in ascending order, with the index clamped
// into [lo, hi] and the count scaled to round(c·g) unless g is 1.
func perBucket(dst, src Store, lo, hi int, g float64) {
	src.ForEach(func(i int, c int64) bool {
		if g != 1 {
			c = int64(math.Round(float64(c) * g))
		}
		if c > 0 {
			dst.Add(min(max(i, lo), hi), c)
		}
		return true
	})
}

// sameStores fails unless got and want hold identical stores — for the
// dense kinds the same offset, array length, counts, total and min/max
// index — and the same NumbersHeld and MemoryBytes.
func sameStores(t *testing.T, what string, got, want *Sketch) {
	t.Helper()
	for _, p := range []struct {
		side      string
		got, want Store
	}{{"positive", got.positive, want.positive}, {"negative", got.negative, want.negative}} {
		if !sameStore(p.got, p.want) {
			t.Fatalf("%s: %s store differs from the per-bucket reference:\n got %+v\nwant %+v", what, p.side, p.got, p.want)
		}
		if p.got.NumbersHeld() != p.want.NumbersHeld() {
			t.Fatalf("%s: %s NumbersHeld %d, want %d", what, p.side, p.got.NumbersHeld(), p.want.NumbersHeld())
		}
	}
	if got.MemoryBytes() != want.MemoryBytes() || got.Count() != want.Count() {
		t.Fatalf("%s: MemoryBytes/Count %d/%d, want %d/%d", what,
			got.MemoryBytes(), got.Count(), want.MemoryBytes(), want.Count())
	}
}

// sameStore compares two stores of one kind field by field; an empty
// counts array equals a nil one.
func sameStore(a, b Store) bool {
	switch x := a.(type) {
	case *DenseStore:
		y, ok := b.(*DenseStore)
		return ok && sameDense(x, y)
	case *CollapsingLowestDenseStore:
		y, ok := b.(*CollapsingLowestDenseStore)
		return ok && sameDense(&x.DenseStore, &y.DenseStore) &&
			x.maxBuckets == y.maxBuckets && x.collapses == y.collapses
	case *BufferedPaginatedStore:
		y, ok := b.(*BufferedPaginatedStore)
		return ok && samePaginated(x, y)
	default:
		return false
	}
}

// samePaginated compares two paginated stores after flushing their
// insert buffers: the armed build's assertions read (and so flush) the
// store after a merge, which the reference never does.
func samePaginated(x, y *BufferedPaginatedStore) bool {
	x.flush()
	y.flush()
	if !slices.Equal(x.buffer, y.buffer) || len(x.pages) != len(y.pages) ||
		len(x.pages) > 0 && x.minPage != y.minPage ||
		x.total != y.total || x.minIdx != y.minIdx || x.maxIdx != y.maxIdx {
		return false
	}
	for p := range x.pages {
		if (x.pages[p] == nil) != (y.pages[p] == nil) || !slices.Equal(x.pages[p], y.pages[p]) {
			return false
		}
	}
	return true
}

func sameDense(x, y *DenseStore) bool {
	return x.offset == y.offset && slices.Equal(x.counts, y.counts) &&
		x.total == y.total && x.minIdx == y.minIdx && x.maxIdx == y.maxIdx
}

// cloneSketch deep-copies s's stores into a new sketch of the same kind.
func cloneSketch(s *Sketch) *Sketch {
	c := *s
	c.positive = s.positive.Clone()
	c.negative = s.negative.Clone()
	return &c
}

// TestBulkMergeMatchesPerBucket holds Merge to one Add per bucket, into
// empty and non-empty destinations of every store kind.
func TestBulkMergeMatchesPerBucket(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 12))
	for trial := 0; trial < bulkTrials; trial++ {
		kind := storeKinds[rng.IntN(len(storeKinds))]
		dst := randomSketch(rng, kind.mk)
		src := randomSketch(rng, storeKinds[0].mk)
		want := cloneSketch(dst)
		perBucket(want.positive, src.positive, math.MinInt, math.MaxInt, 1)
		perBucket(want.negative, src.negative, math.MinInt, math.MaxInt, 1)
		if err := dst.Merge(src); err != nil {
			t.Fatal(err)
		}
		sameStores(t, kind.name+" Merge", dst, want)
	}
}

// TestBulkMergeScaledMatchesPerBucket holds MergeScaled and ScaleCount
// to one Add of round(c·g) per bucket: g in (0, 1), a g that rounds
// every bucket to 0, and g ≥ 1 or NaN, which merge unscaled.
func TestBulkMergeScaledMatchesPerBucket(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 14))
	for trial := 0; trial < bulkTrials; trial++ {
		kind := storeKinds[rng.IntN(len(storeKinds))]
		var g float64
		switch rng.IntN(6) {
		case 0:
			g = 1e-15 // every count rounds to 0
		case 1:
			g = []float64{1, 1.5, math.NaN()}[rng.IntN(3)]
		default:
			g = rng.Float64()
		}
		scale := g
		if math.IsNaN(g) || g >= 1 {
			scale = 1
		}
		dst := randomSketch(rng, kind.mk)
		src := randomSketch(rng, storeKinds[0].mk)
		want := cloneSketch(dst)
		perBucket(want.positive, src.positive, math.MinInt, math.MaxInt, scale)
		perBucket(want.negative, src.negative, math.MinInt, math.MaxInt, scale)
		if err := dst.MergeScaled(src, g); err != nil {
			t.Fatal(err)
		}
		sameStores(t, kind.name+" MergeScaled", dst, want)

		if scale == 1 || g == 0 {
			continue
		}
		scaled := randomSketch(rng, kind.mk)
		want = cloneSketch(scaled)
		want.positive, want.negative = scaled.storeFn(), scaled.storeFn()
		perBucket(want.positive, scaled.positive, math.MinInt, math.MaxInt, g)
		perBucket(want.negative, scaled.negative, math.MinInt, math.MaxInt, g)
		scaled.ScaleCount(g)
		if want.Count() == 0 || scaled.Count() == 0 {
			continue // ScaleCount resets a sketch whose counts all round away
		}
		sameStores(t, kind.name+" ScaleCount", scaled, want)
	}
}

// referenceCollapse is the Degrade rebuild the bulk path replaced: the
// fold boundary from NonEmptyBuckets and a ForEach walk, then one Add
// per bucket into a fresh store.
func referenceCollapse(st Store, fresh Store, low bool) (Store, bool) {
	nb := st.NonEmptyBuckets()
	if nb < minDegradeBuckets {
		return st, false
	}
	drop := nb / 2
	seen, boundary := 0, 0
	if low {
		st.ForEach(func(i int, _ int64) bool {
			seen++
			boundary = i
			return seen <= drop // stops at the lowest survivor
		})
		perBucket(fresh, st, boundary, math.MaxInt, 1)
	} else {
		st.ForEach(func(i int, _ int64) bool {
			seen++
			boundary = i
			return seen < nb-drop // stops at the highest survivor
		})
		perBucket(fresh, st, math.MinInt, boundary, 1)
	}
	return fresh, true
}

// TestBulkDegradeMatchesPerBucket holds Degrade's rebuild, the low fold
// of the positive store and the high fold of the negative one, to the
// per-bucket reference, repeated until the sketch is exhausted.
func TestBulkDegradeMatchesPerBucket(t *testing.T) {
	rng := rand.New(rand.NewPCG(15, 16))
	for trial := 0; trial < bulkTrials/4; trial++ {
		kind := storeKinds[rng.IntN(len(storeKinds))]
		s := randomSketch(rng, kind.mk)
		for step := 0; ; step++ {
			want := cloneSketch(s)
			pos, posDid := referenceCollapse(want.positive, want.storeFn(), true)
			neg, negDid := referenceCollapse(want.negative, want.storeFn(), false)
			want.positive, want.negative = pos, neg
			_, err := s.Degrade()
			if !posDid && !negDid {
				if !errors.Is(err, sketch.ErrNotDegradable) {
					t.Fatalf("%s step %d: Degrade = %v, want ErrNotDegradable", kind.name, step, err)
				}
				break
			}
			if err != nil {
				t.Fatalf("%s step %d: %v", kind.name, step, err)
			}
			sameStores(t, kind.name+" Degrade", s, want)
		}
	}
}

// TestMedianBucketsMatchesForEach holds the dense store's two-ended
// walk to the ranks counted by ForEach.
func TestMedianBucketsMatchesForEach(t *testing.T) {
	rng := rand.New(rand.NewPCG(17, 18))
	for trial := 0; trial < bulkTrials; trial++ {
		st := NewDenseStore()
		randomBuckets(rng, st)
		var idx []int
		st.ForEach(func(i int, _ int64) bool { idx = append(idx, i); return true })
		nb, lower, upper := st.medianBuckets()
		if nb != len(idx) {
			t.Fatalf("nb = %d, want %d", nb, len(idx))
		}
		if nb == 0 {
			continue
		}
		if lower != idx[(nb+1)/2-1] || upper != idx[nb/2] {
			t.Fatalf("nb=%d: medians (%d, %d), want (%d, %d)", nb, lower, upper, idx[(nb+1)/2-1], idx[nb/2])
		}
	}
}

// BenchmarkMergeScaled merges one Pareto pane into a fresh window
// sketch at weight 0.5, the step a decayed sliding window repeats for
// each of its panes, for the dense store (bulk path) and the
// buffered-paginated one (per-bucket path). Run with -benchmem: the
// window's construction is part of each iteration.
func BenchmarkMergeScaled(b *testing.B) {
	for _, kind := range []struct {
		name string
		mk   func(float64) *Sketch
	}{{"dense", New}, {"paginated", NewPaginated}} {
		pane := paretoPane(b, kind.mk)
		b.Run(kind.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := kind.mk(0.01).MergeScaled(pane, 0.5); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
