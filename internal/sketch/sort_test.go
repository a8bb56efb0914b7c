package sketch

import (
	"encoding/binary"
	"fmt"
	"math"
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

// sortValueSets are the inputs TestSortFloat32MatchesSlicesSort sorts at
// every length: each draws the i-th value of a level from rng.
var sortValueSets = []struct {
	name string
	draw func(rng *rand.Rand, i int) float32
}{
	{"continuous", func(rng *rand.Rand, _ int) float32 {
		return float32((rng.Float64() - 0.3) * 1e4)
	}},
	{"duplicates", func(rng *rand.Rand, _ int) float32 { return float32(rng.IntN(7) - 3) }},
	{"all-equal", func(*rand.Rand, int) float32 { return 42.5 }},
	{"extremes", func(rng *rand.Rand, _ int) float32 {
		vals := []float32{
			float32(math.Inf(-1)), float32(math.Inf(1)),
			-math.MaxFloat32, math.MaxFloat32,
			math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
			math.Float32frombits(0x007fffff), math.Float32frombits(0x807fffff), // largest subnormals
			math.Float32frombits(0x00012345), -1, 1, 0,
		}
		if rng.IntN(3) == 0 {
			return float32(rng.NormFloat64() * 1e-39) // mostly subnormal
		}
		return vals[rng.IntN(len(vals))]
	}},
	{"one-exponent", func(rng *rand.Rand, _ int) float32 {
		return 1 + float32(rng.IntN(1<<16))/(1<<16) // [1, 2): the top digit is constant
	}},
	{"ascending", func(_ *rand.Rand, i int) float32 { return float32(i) }},
	{"descending", func(_ *rand.Rand, i int) float32 { return -float32(i) }},
	{"signed-zeros", func(rng *rand.Rand, _ int) float32 {
		return []float32{float32(math.Copysign(0, -1)), 0, -1, 1}[rng.IntN(4)]
	}},
}

// checkSorted asserts that got is a correct SortFloat32 result for in:
// bit-equal to slices.Sort when in holds no −0, and otherwise ascending,
// the same multiset of bit patterns, and — in the radix class — with
// every −0 ahead of every +0.
func checkSorted(t *testing.T, in, got []float32) {
	t.Helper()
	want := slices.Clone(in)
	slices.Sort(want)
	negZero := slices.ContainsFunc(in, func(v float32) bool { return v == 0 && math.Signbit(float64(v)) })
	if !negZero {
		for i := range want {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("n=%d: item %d is %v, slices.Sort gives %v", len(in), i, got[i], want[i])
			}
		}
		return
	}
	if !slices.IsSorted(got) {
		t.Fatalf("n=%d: output not ascending", len(in))
	}
	bits := func(vs []float32) []uint32 {
		out := make([]uint32, len(vs))
		for i, v := range vs {
			out[i] = math.Float32bits(v)
		}
		slices.Sort(out)
		return out
	}
	if !slices.Equal(bits(got), bits(want)) {
		t.Fatalf("n=%d: output is not a permutation of the input", len(in))
	}
	if len(in) < radixMin || len(in) > radixMax {
		return
	}
	for i := 1; i < len(got); i++ {
		if got[i] == 0 && math.Signbit(float64(got[i])) && !math.Signbit(float64(got[i-1])) && got[i-1] == 0 {
			t.Fatalf("n=%d: +0 at %d precedes −0 at %d", len(in), i-1, i)
		}
	}
}

// TestSortFloat32MatchesSlicesSort is the differential test of the
// size-classed sort kernel, SortFloat32, which sorts the samplers'
// levels, against slices.Sort at every length from 0 to 64 past the
// radix bound, so every class and both class edges are covered, over
// duplicates, equal levels, infinities, subnormals, ±MaxFloat32, values
// sharing one exponent (radix passes skipped), and signed zeros.
func TestSortFloat32MatchesSlicesSort(t *testing.T) {
	for _, vs := range sortValueSets {
		t.Run(vs.name, func(t *testing.T) {
			rng := rand.New(rand.NewPCG(7, uint64(len(vs.name))))
			for n := 0; n <= radixMax+64; n++ {
				for rep := 0; rep < 2; rep++ {
					in := make([]float32, n)
					for i := range in {
						in[i] = vs.draw(rng, i)
					}
					got := slices.Clone(in)
					SortFloat32(got)
					checkSorted(t, in, got)
				}
			}
		})
	}
}

// FuzzSortFloat32 checks SortFloat32 on arbitrary float32 bit patterns,
// NaNs dropped (levels never hold them), at every length the bytes give.
func FuzzSortFloat32(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0x80, 0, 0, 0, 0})
	seed := make([]byte, 4*200)
	for i := 0; i < len(seed); i += 4 {
		binary.LittleEndian.PutUint32(seed[i:], math.Float32bits(float32(i%37)-18))
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		in := make([]float32, 0, len(data)/4)
		for i := 0; i+4 <= len(data); i += 4 {
			v := math.Float32frombits(binary.LittleEndian.Uint32(data[i:]))
			if v == v {
				in = append(in, v)
			}
		}
		got := slices.Clone(in)
		SortFloat32(got)
		checkSorted(t, in, got)
	})
}
