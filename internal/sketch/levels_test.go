package sketch

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"
)

// pairView is the query view levelView replaced, kept as the reference:
// every (value, weight) pair of every level, sorted by value with a
// comparison sort, and the weights accumulated.
type pairView struct {
	vals []float32
	cum  []uint64
}

func newPairView(levels [][]float32) pairView {
	type levelItem struct {
		v float32
		w uint64
	}
	var items []levelItem
	for h, lv := range levels {
		for _, x := range lv {
			items = append(items, levelItem{x, 1 << uint(h)})
		}
	}
	slices.SortFunc(items, func(a, b levelItem) int {
		switch {
		case a.v < b.v:
			return -1
		case a.v > b.v:
			return 1
		default:
			return 0
		}
	})
	var p pairView
	var cum uint64
	for _, e := range items {
		cum += e.w
		p.vals = append(p.vals, e.v)
		p.cum = append(p.cum, cum)
	}
	return p
}

// TestLevelViewMergeMatchesPairSort builds views of random levels, each
// an ascending prefix of random length followed by an unsorted tail, at
// heights 0–19 with heavy duplicates across and within levels and some
// empty levels, and checks Quantile and Rank bit-equal against the pair
// sort they replaced, over the same view rebuilt warm as well.
func TestLevelViewMergeMatchesPairSort(t *testing.T) {
	rng := rand.New(rand.NewPCG(17, 19))
	draw := func() float32 {
		switch rng.IntN(3) {
		case 0:
			return float32(rng.IntN(40) - 10)
		case 1:
			return float32(rng.NormFloat64() * 100)
		default:
			return float32(rng.ExpFloat64())
		}
	}
	var v levelView
	for trial := 0; trial < 300; trial++ {
		levels := make([][]float32, 1+rng.IntN(20))
		sorted := make([]int, len(levels))
		var count uint64
		for h := range levels {
			if rng.IntN(5) == 0 {
				continue // an empty level
			}
			n := rng.IntN(400)
			lv := make([]float32, n)
			for i := range lv {
				lv[i] = draw()
			}
			switch rng.IntN(3) {
			case 0: // all sorted
				sorted[h] = n
			case 1: // an unsorted tail
				sorted[h] = rng.IntN(n + 1)
			}
			slices.Sort(lv[:sorted[h]])
			levels[h] = lv
			count += uint64(n) << uint(h)
		}
		if count == 0 {
			continue
		}
		ref := newPairView(levels)
		for rebuild := 0; rebuild < 2; rebuild++ {
			v.Invalidate()
			if !v.Begin() {
				t.Fatal("Begin after Invalidate reported a valid view")
			}
			for h, lv := range levels {
				v.AddLevel(h, lv, sorted[h])
			}
			v.Sort()
			name := fmt.Sprintf("trial %d rebuild %d", trial, rebuild)
			if v.Weight() != count {
				t.Fatalf("%s: weight %d, want %d", name, v.Weight(), count)
			}
			lo, hi := float64(ref.vals[0]), float64(ref.vals[len(ref.vals)-1])
			for i := 0; i <= 200; i++ {
				q := float64(i) / 200
				if got, want := v.Quantile(q, count, lo, hi), refQuantile(ref, q, count, hi); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s: Quantile(%v) = %v, pair sort %v", name, q, got, want)
				}
			}
			for _, x := range append(slices.Clone(ref.vals[:min(len(ref.vals), 50)]), -1e9, -10.5, 0, 0.5, 3, 29, 1e9, float32(math.NaN())) {
				if got, want := v.Rank(float64(x), count), refRank(ref, float64(x), count); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s: Rank(%v) = %v, pair sort %v", name, x, got, want)
				}
			}
		}
	}
}

// refQuantile and refRank are levelView.Quantile and levelView.Rank
// over the pair-sorted reference (no clamping is needed: min and max are
// the reference's own extremes).
func refQuantile(p pairView, q float64, count uint64, hi float64) float64 {
	target := max(1, uint64(math.Ceil(q*float64(count))))
	i := sort.Search(len(p.cum), func(i int) bool { return p.cum[i] >= target })
	if i >= len(p.vals) {
		return hi
	}
	return float64(p.vals[i])
}

func refRank(p pairView, x float64, count uint64) float64 {
	if math.IsNaN(x) {
		return 0
	}
	i := sort.Search(len(p.vals), func(i int) bool { return p.vals[i] > float32(x) })
	if i == 0 {
		return 0
	}
	return float64(p.cum[i-1]) / float64(count)
}

// TestLevelViewRebuildAllocs pins the warm rebuild: once the view's
// arrays have grown to the working size, rebuilding it from levels
// with unsorted tails allocates nothing.
func TestLevelViewRebuildAllocs(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	levels := make([][]float32, 12)
	for h := range levels {
		levels[h] = make([]float32, 50+rng.IntN(300))
		for i := range levels[h] {
			levels[h][i] = rng.Float32()
		}
		if h > 0 {
			slices.Sort(levels[h][:len(levels[h])/2])
		}
	}
	var v levelView
	rebuild := func() {
		v.Invalidate()
		if v.Begin() {
			for h, lv := range levels {
				v.AddLevel(h, lv, len(lv)/2*min(h, 1))
			}
			v.Sort()
		}
	}
	rebuild()
	if avg := testing.AllocsPerRun(100, rebuild); avg != 0 {
		t.Errorf("a warm levelView rebuild allocates %.1f times, want 0", avg)
	}
}
