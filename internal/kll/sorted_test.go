package kll

import (
	"bytes"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/sketch"
)

// refKLL drives a Sketch's state with the sort-every-compaction
// algorithm that predates the sorted mask: compaction sorts the whole
// level every time and appends the promoted half to the level above.
// It reads and writes only the levels, count, bounds, k and RNG, so the
// real sketch's answers, coin flips and level multisets can be checked
// against it step by step. The capacity cache of the wrapped Sketch is
// never consulted, and its sorted mask stays 0, so its query view sorts
// every level.
type refKLL struct{ s *Sketch }

func newRefKLL(k int, seed uint64) refKLL { return refKLL{NewWithSeed(k, seed)} }

// capacity recomputes the schedule from scratch, independent of the
// real sketch's cache.
func (r refKLL) capacity(h int) int {
	depth := len(r.s.levels) - 1 - h
	c := int(math.Ceil(float64(r.s.k) * math.Pow(capacityDecay, float64(depth))))
	if c < minCompactorSize {
		c = minCompactorSize
	}
	return c
}

func (r refKLL) insert(x float64) {
	s := r.s
	if math.IsNaN(x) {
		return
	}
	s.levels[0] = append(s.levels[0], float32(x))
	s.count++
	s.view.Invalidate()
	if x < s.min {
		s.min = x
	}
	if x > s.max {
		s.max = x
	}
	if len(s.levels[0]) >= r.capacity(0) {
		r.compress()
	}
}

func (r refKLL) compress() {
	for h := 0; h < len(r.s.levels); h++ {
		if len(r.s.levels[h]) >= r.capacity(h) {
			r.compactLevel(h)
		}
	}
}

func (r refKLL) compactLevel(h int) {
	s := r.s
	buf := s.levels[h]
	if len(buf) < minCompactorSize {
		return
	}
	if h+1 >= len(s.levels) {
		s.levels = append(s.levels, make([]float32, 0, r.capacity(h)+1))
	}
	slices.Sort(buf)
	m := len(buf) / 2
	start := len(buf) - 2*m
	offset := 0
	if s.rng.Uint64()&1 == 1 {
		offset = 1
	}
	for i := 0; i < m; i++ {
		s.levels[h+1] = append(s.levels[h+1], buf[start+2*i+offset])
	}
	if start == 1 {
		s.levels[h] = append(s.levels[h][:0], buf[0])
	} else {
		s.levels[h] = s.levels[h][:0]
	}
}

func (r refKLL) merge(o refKLL) {
	s := r.s
	if o.s.k < s.k {
		s.k = o.s.k
	}
	for len(s.levels) < len(o.s.levels) {
		s.levels = append(s.levels, nil)
	}
	for h, lv := range o.s.levels {
		s.levels[h] = append(s.levels[h], lv...)
	}
	s.count += o.s.count
	s.view.Invalidate()
	if o.s.min < s.min {
		s.min = o.s.min
	}
	if o.s.max > s.max {
		s.max = o.s.max
	}
	r.compress()
}

func (r refKLL) scaleCount(g float64) {
	s := r.s
	newLevels, count := sketch.ScaleLevels(s.levels, g)
	if count == 0 {
		*s = *NewWithSeed(s.k, s.seed)
		return
	}
	for h := range s.levels {
		s.levels[h] = append(s.levels[h][:0], newLevels[h]...)
	}
	s.count = count
	s.view.Invalidate()
	r.compress()
}

func (r refKLL) degrade() {
	s := r.s
	if s.k <= minDegradeK {
		return
	}
	s.k = max(s.k/2, minDegradeK)
	r.compress()
	for h := range s.levels {
		s.levels[h] = slices.Clip(s.levels[h])
	}
	s.view = sketch.LevelView{}
}

// diffValue draws test data: a mix of continuous values and heavy ties,
// of both signs, never zero — a multiset without ±0 has one ascending
// order, which is what makes the two algorithms agree exactly.
func diffValue(rng *rand.Rand) float64 {
	var x float64
	if rng.IntN(2) == 0 {
		x = 1 + float64(rng.IntN(50))
	} else {
		x = 1e-3 + rng.ExpFloat64()*100
	}
	if rng.IntN(4) == 0 {
		x = -x
	}
	return x
}

// checkSame asserts that the real sketch and the reference hold the
// same state: per-level multisets, RNG state, k, count and bounds, and
// bit-equal Quantile and Rank answers. It also checks, in every build,
// that the real sketch's sorted mask matches its levels.
func checkSame(t *testing.T, step string, got *Sketch, ref refKLL) {
	t.Helper()
	want := ref.s
	if got.k != want.k || got.count != want.count || len(got.levels) != len(want.levels) {
		t.Fatalf("%s: k/count/levels %d/%d/%d, reference %d/%d/%d", step,
			got.k, got.count, len(got.levels), want.k, want.count, len(want.levels))
	}
	if math.Float64bits(got.min) != math.Float64bits(want.min) || math.Float64bits(got.max) != math.Float64bits(want.max) {
		t.Fatalf("%s: bounds [%v, %v], reference [%v, %v]", step, got.min, got.max, want.min, want.max)
	}
	for h := range got.levels {
		a, b := slices.Clone(got.levels[h]), slices.Clone(want.levels[h])
		slices.Sort(a)
		slices.Sort(b)
		if !slices.Equal(a, b) {
			t.Fatalf("%s: level %d multiset differs from the reference (%d vs %d items)", step, h, len(a), len(b))
		}
		if h > 0 && (got.sorted&(1<<h) != 0) != slices.IsSorted(got.levels[h]) {
			t.Fatalf("%s: sorted bit of level %d is %v, level ascending %v", step, h,
				got.sorted&(1<<h) != 0, slices.IsSorted(got.levels[h]))
		}
	}
	if got.sorted&1 != 0 {
		t.Fatalf("%s: sorted mask flags level 0", step)
	}
	ga, err := got.pcg.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	wa, err := want.pcg.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ga, wa) {
		t.Fatalf("%s: RNG state differs from the reference", step)
	}
	if got.count == 0 {
		return
	}
	for _, q := range []float64{1e-6, 0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1} {
		a, errA := got.Quantile(q)
		b, errB := want.Quantile(q)
		if errA != nil || errB != nil || math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("%s: Quantile(%v) = %v (%v), reference %v (%v)", step, q, a, errA, b, errB)
		}
	}
	for _, x := range []float64{-1e9, -60, -1, 1, 2.5, 10, 25, 50, 100, 1e3, 1e9} {
		a, _ := got.Rank(x)
		b, _ := want.Rank(x)
		if math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("%s: Rank(%v) = %v, reference %v", step, x, a, b)
		}
	}
}

// roundTrip decodes s's serialized bytes into a fresh sketch.
func roundTrip(t *testing.T, s *Sketch) *Sketch {
	t.Helper()
	blob, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var d Sketch
	if err := d.UnmarshalBinary(blob); err != nil {
		t.Fatalf("decode: %v", err)
	}
	return &d
}

// TestSortedCompactionDifferential runs the sketch against the
// sort-every-compaction reference through pure insert streams (fresh
// 2.5k and 10k windows at the study's k, and long streams whose bottom
// levels have shrunk to capacity 2) and through random interleavings
// of Insert, InsertAll, Merge (equal and smaller k), ScaleCount,
// Degrade, Clone and a serialization round trip. After every step the
// two must agree exactly.
func TestSortedCompactionDifferential(t *testing.T) {
	streams := []struct {
		k int
		n int
	}{
		{DefaultK, 2500}, {DefaultK, 10_000}, {DefaultK, 100_000},
		{8, 5000}, {20, 50_000}, {2, 3000},
	}
	for _, st := range streams {
		t.Run(fmt.Sprintf("stream/k=%d/n=%d", st.k, st.n), func(t *testing.T) {
			rng := rand.New(rand.NewPCG(uint64(st.k), uint64(st.n)))
			got, ref := NewWithSeed(st.k, 7), newRefKLL(st.k, 7)
			for i := 0; i < st.n; i++ {
				x := diffValue(rng)
				got.Insert(x)
				ref.insert(x)
				if i%997 == 0 {
					checkSame(t, fmt.Sprintf("insert %d", i), got, ref)
				}
			}
			checkSame(t, "end", got, ref)
			if st.k == 8 && got.capacity(0) != minCompactorSize {
				t.Fatalf("bottom capacity %d, the stream should reach capacity-2 bottom levels", got.capacity(0))
			}
		})
	}
	for _, k := range []int{DefaultK, 64, 20} {
		for seed := uint64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("ops/k=%d/seed=%d", k, seed), func(t *testing.T) {
				rng := rand.New(rand.NewPCG(seed, uint64(k)))
				got, ref := NewWithSeed(k, seed), newRefKLL(k, seed)
				batch := make([]float64, 0, 4096)
				for step := 0; step < 60; step++ {
					var name string
					switch op := rng.IntN(10); {
					case op < 5:
						n := 1 + rng.IntN(4000)
						batch = batch[:0]
						for range n {
							batch = append(batch, diffValue(rng))
						}
						if op%2 == 0 {
							sketch.InsertAll(got, batch)
						} else {
							for _, x := range batch {
								got.Insert(x)
							}
						}
						for _, x := range batch {
							ref.insert(x)
						}
						name = fmt.Sprintf("insert %d", n)
					case op == 5:
						ok := []int{k, max(k/2, 2), 8}[rng.IntN(3)]
						oseed, n := rng.Uint64(), rng.IntN(6000)
						o, oref := NewWithSeed(ok, oseed), newRefKLL(ok, oseed)
						for range n {
							x := diffValue(rng)
							o.Insert(x)
							oref.insert(x)
						}
						checkSame(t, "merge operand", o, oref)
						if err := got.Merge(o); err != nil {
							t.Fatal(err)
						}
						ref.merge(oref)
						name = fmt.Sprintf("merge k=%d n=%d", ok, n)
					case op == 6:
						g := []float64{0.9, 0.5, 0.3, 1e-3}[rng.IntN(4)]
						got.ScaleCount(g)
						ref.scaleCount(g)
						name = fmt.Sprintf("scale %v", g)
					case op == 7:
						_, _ = got.Degrade()
						ref.degrade()
						name = "degrade"
					case op == 8:
						got = got.Clone()
						name = "clone"
					default:
						got = roundTrip(t, got)
						ref = refKLL{roundTrip(t, ref.s)}
						ref.s.sorted = 0 // the reference's levels are unordered
						name = "serde"
					}
					checkSame(t, fmt.Sprintf("step %d (%s)", step, name), got, ref)
				}
			})
		}
	}
}

// TestSortedResumeShortSuffix pins resume ≡ uninterrupted byte for byte
// on short suffixes, where the sorted mask decides whether the first
// few compactions merge or append: a decoded copy and an exact clone of
// the original take the same 1–200 further values and must serialize
// identically. The states cover a plain stream, a merge into an empty
// receiver (its levels arrive ascending through Merge, not compaction),
// a merge into a loaded one, a rescale and a degrade.
func TestSortedResumeShortSuffix(t *testing.T) {
	fill := func(s *Sketch, n int, seed uint64) *Sketch {
		rng := rand.New(rand.NewPCG(seed, seed+1))
		for range n {
			s.Insert(diffValue(rng))
		}
		return s
	}
	states := map[string]func() *Sketch{
		"stream-2500": func() *Sketch { return fill(NewWithSeed(DefaultK, 1), 2500, 1) },
		"stream-k8":   func() *Sketch { return fill(NewWithSeed(8, 2), 3000, 2) },
		"merge-into-empty": func() *Sketch {
			s := NewWithSeed(DefaultK, 3)
			if err := s.Merge(fill(NewWithSeed(DefaultK, 4), 10_000, 4)); err != nil {
				t.Fatal(err)
			}
			return s
		},
		"merge-into-loaded": func() *Sketch {
			s := fill(NewWithSeed(DefaultK, 5), 7000, 5)
			if err := s.Merge(fill(NewWithSeed(100, 6), 4000, 6)); err != nil {
				t.Fatal(err)
			}
			return s
		},
		"scaled": func() *Sketch {
			s := fill(NewWithSeed(DefaultK, 7), 20_000, 7)
			s.ScaleCount(0.6)
			return s
		},
		"degraded": func() *Sketch {
			s := fill(NewWithSeed(DefaultK, 8), 20_000, 8)
			if _, err := s.Degrade(); err != nil {
				t.Fatal(err)
			}
			return s
		},
	}
	for name, build := range states {
		t.Run(name, func(t *testing.T) {
			orig := build()
			blob, err := orig.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			for n := 1; n <= 200; n++ {
				a := orig.Clone()
				var b Sketch
				if err := b.UnmarshalBinary(blob); err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewPCG(uint64(n), 99))
				for range n {
					x := diffValue(rng)
					a.Insert(x)
					b.Insert(x)
				}
				ab, _ := a.MarshalBinary()
				bb, _ := b.MarshalBinary()
				if !bytes.Equal(ab, bb) {
					t.Fatalf("suffix of %d values: resumed sketch's bytes diverged from the original's", n)
				}
			}
		})
	}
}

// TestUnmarshalRejectsWeightOverflow: a blob whose retained weight
// Σ|levels[h]|·2^h wraps around uint64 must not decode as a sketch that
// matches its count. Count 0 with two samples at level 63 sums to 2^64,
// which wrapped to 0 and decoded as an empty sketch holding phantom
// samples.
func TestUnmarshalRejectsWeightOverflow(t *testing.T) {
	s := New(DefaultK)
	s.levels = make([][]float32, 64)
	s.levels[63] = []float32{1, 2}
	s.min, s.max = 1, 2
	blob, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var d Sketch
	if err := d.UnmarshalBinary(blob); err != sketch.ErrCorrupt {
		t.Fatalf("decoding a weight-overflowing blob: err = %v, want ErrCorrupt", err)
	}
}
