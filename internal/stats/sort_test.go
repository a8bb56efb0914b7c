package stats

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"
)

// sort64ValueSets are the inputs TestSortFloat64MatchesSortFloat64s
// sorts at every length: each draws the i-th value from rng.
var sort64ValueSets = []struct {
	name string
	draw func(rng *rand.Rand, i int) float64
}{
	{"continuous", func(rng *rand.Rand, _ int) float64 { return (rng.Float64() - 0.3) * 1e4 }},
	{"pareto", func(rng *rand.Rand, _ int) float64 { return math.Pow(1-rng.Float64(), -1/1.5) }},
	{"duplicates", func(rng *rand.Rand, _ int) float64 { return float64(rng.IntN(7) - 3) }},
	{"all-equal", func(*rand.Rand, int) float64 { return 42.5 }},
	{"extremes", func(rng *rand.Rand, _ int) float64 {
		vals := []float64{
			math.Inf(-1), math.Inf(1), -math.MaxFloat64, math.MaxFloat64,
			math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
			math.Float64frombits(0x000fffffffffffff), math.Float64frombits(0x800fffffffffffff), // largest subnormals
			-1, 1, 0, math.NaN(), math.Float64frombits(0xfff8000000000001), // a negative NaN
		}
		if rng.IntN(3) == 0 {
			return rng.NormFloat64() * 1e-310 // mostly subnormal
		}
		return vals[rng.IntN(len(vals))]
	}},
	{"one-exponent", func(rng *rand.Rand, _ int) float64 {
		return 1 + float64(rng.IntN(1<<20))/(1<<20) // [1, 2): the top bytes are constant
	}},
	{"ascending", func(_ *rand.Rand, i int) float64 { return float64(i) }},
	{"descending", func(_ *rand.Rand, i int) float64 { return -float64(i) }},
	{"signed-zeros", func(rng *rand.Rand, _ int) float64 {
		return []float64{math.Copysign(0, -1), 0, -1, 1}[rng.IntN(4)]
	}},
}

// checkSorted64 asserts that got is a correct SortFloat64 result for
// in: element for element what sort.Float64s gives — both NaN, or the
// same bits — when in holds no −0; otherwise sorted in sort.Float64s's
// order and the same multiset of bit patterns.
func checkSorted64(t *testing.T, in, got []float64) {
	t.Helper()
	want := slices.Clone(in)
	sort.Float64s(want)
	negZero := slices.ContainsFunc(in, func(v float64) bool { return v == 0 && math.Signbit(v) })
	if !negZero {
		for i := range want {
			if !(math.IsNaN(got[i]) && math.IsNaN(want[i])) && math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("n=%d: item %d is %v, sort.Float64s gives %v", len(in), i, got[i], want[i])
			}
		}
		return
	}
	if !sort.Float64sAreSorted(got) {
		t.Fatalf("n=%d: output not in sort.Float64s order", len(in))
	}
	bits := func(vs []float64) []uint64 {
		out := make([]uint64, len(vs))
		for i, v := range vs {
			out[i] = math.Float64bits(v)
		}
		slices.Sort(out)
		return out
	}
	if !slices.Equal(bits(got), bits(want)) {
		t.Fatalf("n=%d: output is not a permutation of the input", len(in))
	}
}

// TestSortFloat64MatchesSortFloat64s is the differential test of the
// oracle's radix sort against sort.Float64s at every length from 0 to
// 600, so insertion-sorted buckets, one and several radix passes and
// skipped passes are all covered, and at 10k, over continuous and
// heavy-tailed values, duplicates, equal data, ±Inf, NaNs, subnormals,
// ±MaxFloat64, values sharing one exponent, sorted and reversed input,
// and signed zeros.
func TestSortFloat64MatchesSortFloat64s(t *testing.T) {
	for _, vs := range sort64ValueSets {
		t.Run(vs.name, func(t *testing.T) {
			rng := rand.New(rand.NewPCG(11, uint64(len(vs.name))))
			for _, n := range append(slicesRange(0, 600), 10_000) {
				in := make([]float64, n)
				for i := range in {
					in[i] = vs.draw(rng, i)
				}
				got := slices.Clone(in)
				SortFloat64(got)
				checkSorted64(t, in, got)
			}
		})
	}
}

func slicesRange(lo, hi int) []int {
	out := make([]int, 0, hi-lo+1)
	for n := lo; n <= hi; n++ {
		out = append(out, n)
	}
	return out
}

// FuzzSortFloat64 checks SortFloat64 on arbitrary float64 bit patterns,
// NaNs and signed zeros included, at every length the bytes give.
func FuzzSortFloat64(f *testing.F) {
	f.Add([]byte{})
	seed := make([]byte, 8*300)
	for i := 0; i < len(seed); i += 8 {
		binary.LittleEndian.PutUint64(seed[i:], math.Float64bits(float64(i%37)-18))
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		in := make([]float64, 0, len(data)/8)
		for i := 0; i+8 <= len(data); i += 8 {
			in = append(in, math.Float64frombits(binary.LittleEndian.Uint64(data[i:])))
		}
		got := slices.Clone(in)
		SortFloat64(got)
		checkSorted64(t, in, got)
	})
}

// TestSortFloat64Allocs pins that the sort works in place: the digit
// counts live on the stack, so a window-sized sort allocates nothing.
func TestSortFloat64Allocs(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	src := make([]float64, 20_000)
	for i := range src {
		src[i] = math.Pow(1-rng.Float64(), -1/1.5)
	}
	buf := make([]float64, len(src))
	if avg := testing.AllocsPerRun(20, func() {
		copy(buf, src)
		SortFloat64(buf)
	}); avg != 0 {
		t.Errorf("SortFloat64 of %d values allocates %.1f times, want 0", len(src), avg)
	}
}

// BenchmarkSortFloat64 times SortFloat64 against sort.Float64s on
// window-sized Pareto data, each iteration sorting a fresh copy.
func BenchmarkSortFloat64(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 2))
	for _, n := range []int{100, 1000, 10_000, 100_000} {
		src := make([]float64, n)
		for i := range src {
			src[i] = math.Pow(1-rng.Float64(), -1/1.5)
		}
		buf := make([]float64, n)
		for _, impl := range []struct {
			name string
			sort func([]float64)
		}{{"radix", SortFloat64}, {"sort.Float64s", sort.Float64s}} {
			b.Run(fmt.Sprintf("n=%d/%s", n, impl.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					copy(buf, src)
					impl.sort(buf)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/item")
			})
		}
	}
}
