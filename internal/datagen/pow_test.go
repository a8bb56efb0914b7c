package datagen

import (
	"math"
	"math/rand/v2"
	"testing"
)

// refDriftingPareto is NewDriftingPareto drawing through math.Pow: the
// reference the unitPow kernel must reproduce bit for bit.
func refDriftingPareto(seed uint64, every int) *Drifting {
	pcg := new(rand.PCG)
	rng := rand.New(pcg)
	var alpha, xm float64
	src := SourceFunc(func() float64 { return xm / math.Pow(1-rng.Float64(), 1/alpha) })
	return NewDrifting(seed, every, src, func(r *rand.Rand, s uint64) {
		alpha = clampMin(1+0.05*r.NormFloat64(), 0.5)
		xm = clampMin(1+0.05*r.NormFloat64(), 0.5)
		seedPCG(pcg, s)
	})
}

// samePow fails unless unitPow(u, y) and math.Pow(u, y) are the same
// float64, bit for bit.
func samePow(t *testing.T, u, y float64) {
	t.Helper()
	got, want := unitPow(u, y), math.Pow(u, y)
	if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
		t.Fatalf("unitPow(%v, %v) = %v (%#x), math.Pow = %v (%#x)", u, y, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// TestParetoPow pins Pareto.Next's power kernel to math.Pow: 10 M
// draws of the paper's drifting Pareto match a math.Pow reference bit
// for bit, and so does unitPow on the edges of its fast domain — u at
// 1 and at 2⁻⁵³, the smallest 1 - rand.Float64() can be, and y on
// either side of (0.5, 1.5] and at the squaring loop's boundary y = 1.
func TestParetoPow(t *testing.T) {
	got, want := NewDriftingPareto(11, ResampleEveryAt50k), refDriftingPareto(11, ResampleEveryAt50k)
	for i := range 10_000_000 {
		if g, w := got.Next(), want.Next(); math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("draw %d: Next = %v, math.Pow reference %v", i, g, w)
		}
	}
	us := []float64{
		1, math.Nextafter(1, 0), 0.75, 0.5, math.Nextafter(0.5, 0), 0x1p-26,
		math.Nextafter(0x1p-53, 1), 0x1p-53,
	}
	ys := []float64{
		math.Nextafter(0.5, 1), 0.5, math.Nextafter(0.5, 0), 0.6, 2.0 / 3,
		math.Nextafter(1, 0), 1, math.Nextafter(1, 2), 1.25,
		math.Nextafter(1.5, 1), 1.5, math.Nextafter(1.5, 2), 2, 0.25, 0, -1,
		math.Inf(1), math.NaN(),
	}
	for _, u := range us {
		for _, y := range ys {
			samePow(t, u, y)
		}
	}
}

// FuzzParetoPow checks unitPow against math.Pow on any u in [2⁻⁵³, 1]
// and any y. Bits that do not decode to such a u are read as a
// rand.Float64 draw, the way Pareto.Next forms u. Its seeds are the
// domain's edges (testdata/fuzz/FuzzParetoPow).
func FuzzParetoPow(f *testing.F) {
	f.Fuzz(func(t *testing.T, bits uint64, y float64) {
		u := math.Float64frombits(bits)
		if !(u >= 0x1p-53 && u <= 1) {
			u = 1 - float64(bits<<11>>11)/(1<<53)
		}
		samePow(t, u, y)
	})
}

// BenchmarkDatasetNext measures one draw of each dataset source; the
// Pareto row is the drifting source of the paper's Pareto workload.
func BenchmarkDatasetNext(b *testing.B) {
	for _, name := range DatasetNames() {
		b.Run(name, func(b *testing.B) {
			src, err := NewDataset(name, 1)
			if err != nil {
				b.Fatal(err)
			}
			var sink float64
			for i := 0; i < b.N; i++ {
				sink += src.Next()
			}
			if sink == 0 {
				b.Fatal("no draws")
			}
		})
	}
}
