package uddsketch

import (
	"maps"
	"math"
	"math/rand/v2"
	"sort"
	"testing"
)

// The cubic indexer's collapse exactness: because the multiplier is
// halved exactly in floating point at every uniform collapse,
// index_k(x) = ⌈index_0(x)/2^k⌉ holds bit-exactly, so a sketch
// that collapsed organically mid-stream must end in *bit-identical*
// state to one that ingested everything at full resolution and
// collapsed afterwards. This is the metamorphic pin for the bit-trick
// indexer — any drift between "collapse then insert" and "insert then
// collapse" would show up as differing bucket keys here.
func TestMetamorphicCollapseInsertCommutes(t *testing.T) {
	const budget = 64
	rng := rand.New(rand.NewPCG(41, 43))
	data := make([]float64, 30_000)
	for i := range data {
		// Wide dynamic range with sign mix to force many collapses.
		x := math.Exp(rng.Float64()*50 - 25)
		if rng.IntN(4) == 0 {
			x = -x
		}
		if rng.IntN(50) == 0 {
			x = 0
		}
		data[i] = x
	}
	for _, kind := range storeKinds {
		t.Run(kind.name, func(t *testing.T) {
			limited := build(kind.dense, 0.001, budget)
			for _, x := range data {
				limited.Insert(x)
			}
			if limited.Collapses() == 0 {
				t.Fatal("stream did not force any collapse; test is vacuous")
			}
			unlimited := build(kind.dense, 0.001, 1<<30)
			for _, x := range data {
				unlimited.Insert(x)
			}
			for unlimited.Collapses() < limited.Collapses() {
				unlimited.uniformCollapse()
			}
			if a, b := limited.Alpha(), unlimited.Alpha(); math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("alpha diverged: %x vs %x", math.Float64bits(a), math.Float64bits(b))
			}
			if a, b := limited.multiplier, unlimited.multiplier; math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("multiplier diverged: %x vs %x", math.Float64bits(a), math.Float64bits(b))
			}
			if !maps.Equal(bucketsOf(limited.positive), bucketsOf(unlimited.positive)) {
				t.Fatal("positive buckets diverged")
			}
			if !maps.Equal(bucketsOf(limited.negative), bucketsOf(unlimited.negative)) {
				t.Fatal("negative buckets diverged")
			}
			for _, q := range []float64{0.001, 0.01, 0.25, 0.5, 0.75, 0.99, 0.999} {
				a, err1 := limited.Quantile(q)
				b, err2 := unlimited.Quantile(q)
				if err1 != nil || err2 != nil {
					t.Fatal(err1, err2)
				}
				if math.Float64bits(a) != math.Float64bits(b) {
					t.Fatalf("q=%v: %v vs %v not bit-identical", q, a, b)
				}
			}
		})
	}
}

// bucketsOf copies a store's buckets into a map.
func bucketsOf(st store) map[int]int64 {
	m := make(map[int]int64, st.len())
	st.ascending(func(i int, c int64) bool {
		m[i] = c
		return true
	})
	return m
}

// The fast indexer and the retained exact-log indexer each honor the
// collapsed accuracy contract on a collapse-forcing stream: both stay
// within α_k of the exact stream quantiles, so they can differ from each
// other by at most the contract, never more.
func TestFastVsLegacyIndexerContract(t *testing.T) {
	const budget = 256
	rng := rand.New(rand.NewPCG(59, 61))
	data := make([]float64, 50_000)
	for i := range data {
		data[i] = 1 / math.Pow(1-rng.Float64(), 1.3)
	}
	fast := New(0.01, budget)
	legacy := New(0.01, budget)
	legacy.indexer = indexerLog // pre-fast-indexer behavior, retained for old envelopes
	for _, x := range data {
		fast.Insert(x)
		legacy.Insert(x)
	}
	sorted := append([]float64(nil), data...)
	sort.Float64s(sorted)
	for name, s := range map[string]*Sketch{"fast": fast, "legacy": legacy} {
		if s.Collapses() == 0 {
			t.Fatalf("%s: no collapse forced", name)
		}
		alphaK := s.Alpha()
		for _, q := range []float64{0.05, 0.5, 0.95, 0.99} {
			truth := sorted[int(q*float64(len(sorted)-1))]
			est, err := s.Quantile(q)
			if err != nil {
				t.Fatal(err)
			}
			if re := math.Abs(est-truth) / truth; re > alphaK*(1+1e-6) {
				t.Errorf("%s q=%v: rel err %v > α_k=%v", name, q, re, alphaK)
			}
		}
	}
}

// A pre-fast-indexer envelope — indexer flag clear in the collapse
// counter — must decode as an exact-log sketch whose answers match the
// legacy indexer's bit for bit.
func TestLegacyEnvelopeDecodesAsLog(t *testing.T) {
	legacy := New(0.01, 128)
	legacy.indexer = indexerLog
	rng := rand.New(rand.NewPCG(67, 71))
	for i := 0; i < 20_000; i++ {
		legacy.Insert(math.Exp(rng.Float64()*30 - 15))
	}
	if legacy.Collapses() == 0 {
		t.Fatal("no collapse forced")
	}
	blob, err := legacy.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var d Sketch
	if err := d.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	if d.indexer != indexerLog {
		t.Fatalf("legacy envelope decoded with indexer %d, want log", d.indexer)
	}
	for _, q := range []float64{0.01, 0.5, 0.99} {
		a, _ := legacy.Quantile(q)
		b, _ := d.Quantile(q)
		if math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("q=%v: %v vs %v", q, a, b)
		}
	}
	// And the indexer kinds must not merge: their buckets mean different
	// boundaries.
	fast := New(0.01, 128)
	fast.Insert(1)
	if err := fast.Merge(&d); err == nil {
		t.Fatal("fast sketch absorbed log-indexed buckets")
	}
}
