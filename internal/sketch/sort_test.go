package sketch

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
)

type sortImpl struct {
	name string
	sort func([]float32)
}

// BenchmarkSortFloat32 times the kernel, slices.Sort, and the insertion
// and radix classes on their own, at the level-0 capacities KLL's k =
// 350 passes through (2 up to 350) and one size above the radix bound;
// the class thresholds in sort.go come from it.
// The values are continuous and uniform, like the live-query workload's
// source. Each iteration copies in the next of 64 distinct unsorted
// levels, on both sides: with one level repeated, the branch predictor
// learns the comparison sort's branches and flatters it 2–3×.
func BenchmarkSortFloat32(b *testing.B) {
	sizes := []int{2, 3, 5, 7, 10, 14, 21, 31, 47, 70, 104, 156, 234, 350, radixMax + 88}
	rng := rand.New(rand.NewPCG(1, 2))
	for _, n := range sizes {
		var levels [64][]float32
		for j := range levels {
			levels[j] = make([]float32, n)
			for i := range levels[j] {
				levels[j][i] = float32(100 + rng.Float64()*900)
			}
		}
		buf := make([]float32, n)
		// The single classes run where a threshold could move to.
		impls := []sortImpl{{"kernel", SortFloat32}, {"slices", slices.Sort[[]float32]}}
		if n <= 47 {
			impls = append(impls, sortImpl{"insertion", insertionSortFloat32})
		}
		if n >= 14 && n <= radixMax {
			impls = append(impls, sortImpl{"radix", radixSortFloat32})
		}
		for _, impl := range impls {
			b.Run(fmt.Sprintf("n=%d/%s", n, impl.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					copy(buf, levels[i%len(levels)])
					impl.sort(buf)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/item")
			})
		}
	}
}
