package req

import (
	"bytes"
	"fmt"
	"math"
	"math/bits"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/sketch"
)

// refReq drives a Sketch's state with the sort-every-compaction
// algorithm that predates sorted runs: compaction sorts the whole
// buffer every time and appends the promoted items to compactor h+1.
// It reads and writes only the compactors' buffers and schedules, the
// count, bounds, k and coin, so the real sketch's answers, coin flips
// and buffer multisets can be checked against it step by step. A
// buffer it compacts restarts with no known sorted prefix; the query
// view finds each buffer's by scanning.
type refReq struct{ s *Sketch }

func newRefReq(k int, hra bool, seed uint64) refReq { return refReq{NewWithSeed(k, hra, seed)} }

func (r refReq) insert(x float64) {
	s := r.s
	if math.IsNaN(x) {
		return
	}
	s.Levels[0].Items = append(s.Levels[0].Items, float32(x))
	s.N++
	s.InvalidateView()
	s.Min, s.Max = min(s.Min, x), max(s.Max, x)
	if len(s.Levels[0].Items) >= s.compactors[0].capacity() {
		r.compress()
	}
}

func (r refReq) compress() {
	for h := 0; h < len(r.s.compactors); h++ {
		if len(r.s.Levels[h].Items) >= r.s.compactors[h].capacity() {
			r.compactLevel(h)
		}
	}
}

func (r refReq) compactLevel(h int) {
	s := r.s
	buf := s.Levels[h].Items
	if len(buf) < 2 {
		return
	}
	if h+1 >= len(s.compactors) {
		s.addLevel(s.compactors[h].sectionSize)
	}
	c := &s.compactors[h]
	next := &s.Levels[h+1]
	slices.Sort(buf)
	secs := min(bits.TrailingZeros64(^c.state)+1, c.numSections)
	L := secs * c.sectionSize
	if maxL := len(buf) - c.capacity()/2; L > maxL {
		L = maxL
	}
	L &^= 1
	if L < 2 {
		L = 2
	}
	region := buf[len(buf)-L:]
	if s.hra {
		region = buf[:L]
	}
	offset := int(s.PCG.Uint64() & 1)
	for i := offset; i < L; i += 2 {
		next.Items = append(next.Items, region[i])
	}
	if s.hra {
		s.Levels[h] = sketch.Level{Items: append(buf[:0], buf[L:]...)}
	} else {
		s.Levels[h] = sketch.Level{Items: buf[:len(buf)-L]}
	}
	c.state++
	if c.state >= 1<<uint(c.numSections-1) && c.sectionSize > minSectionSize {
		if ne := nearestEven(c.sectionSizeF / sqrt2); ne >= minSectionSize {
			c.sectionSizeF /= sqrt2
			c.sectionSize = ne
			c.numSections <<= 1
		}
	}
}

func (r refReq) merge(o refReq) {
	s := r.s
	s.k = min(s.k, o.s.k)
	for len(s.compactors) < len(o.s.compactors) {
		s.addLevel(s.compactors[len(s.compactors)-1].sectionSize)
	}
	for h, oc := range o.s.compactors {
		c := &s.compactors[h]
		s.Levels[h].Items = append(s.Levels[h].Items, o.s.Levels[h].Items...)
		c.state |= oc.state
		if oc.numSections > c.numSections ||
			(oc.numSections == c.numSections && oc.sectionSize < c.sectionSize) {
			c.numSections, c.sectionSize, c.sectionSizeF = oc.numSections, oc.sectionSize, oc.sectionSizeF
		}
	}
	s.N += o.s.N
	s.InvalidateView()
	s.Min, s.Max = min(s.Min, o.s.Min), max(s.Max, o.s.Max)
	r.compress()
}

func (r refReq) scaleCount(g float64) {
	s := r.s
	if !s.Scale(g) {
		*s = *NewWithSeed(s.k, s.hra, s.Seed)
		return
	}
	r.compress()
}

func (r refReq) degrade() {
	s := r.s
	shrunk := false
	for h := range s.compactors {
		c := &s.compactors[h]
		if ne := nearestEven(c.sectionSizeF / 2); ne >= minSectionSize && ne < c.sectionSize {
			c.sectionSizeF /= 2
			c.sectionSize = ne
			shrunk = true
		}
	}
	if !shrunk {
		return
	}
	if nk := nearestEven(float64(s.k) / 2); nk >= minSectionSize {
		s.k = nk
	}
	r.compress()
	s.Clip()
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

// ascendingPrefix is the length of buf's longest ascending prefix.
func ascendingPrefix(buf []float32) int {
	n := 0
	for n < len(buf) && (n == 0 || buf[n] >= buf[n-1]) {
		n++
	}
	return n
}

// checkSame asserts that the real sketch and the reference hold the
// same state — per-compactor multisets and schedules, RNG state, k,
// count and bounds — and give bit-equal Quantile and Rank answers, and
// that every sorted prefix of the real sketch is its buffer's longest
// ascending prefix.
func checkSame(t *testing.T, step string, got *Sketch, ref refReq) {
	t.Helper()
	want := ref.s
	if got.k != want.k || got.N != want.N || len(got.compactors) != len(want.compactors) {
		t.Fatalf("%s: k/count/compactors %d/%d/%d, reference %d/%d/%d", step,
			got.k, got.N, len(got.compactors), want.k, want.N, len(want.compactors))
	}
	if math.Float64bits(got.Min) != math.Float64bits(want.Min) || math.Float64bits(got.Max) != math.Float64bits(want.Max) {
		t.Fatalf("%s: bounds [%v, %v], reference [%v, %v]", step, got.Min, got.Max, want.Min, want.Max)
	}
	for h, c := range got.compactors {
		w := want.compactors[h]
		if c.state != w.state || c.sectionSize != w.sectionSize || c.numSections != w.numSections || c.sectionSizeF != w.sectionSizeF {
			t.Fatalf("%s: compactor %d schedule differs from the reference", step, h)
		}
		lv := got.Levels[h]
		a, b := slices.Clone(lv.Items), slices.Clone(want.Levels[h].Items)
		slices.Sort(a)
		slices.Sort(b)
		if !slices.Equal(a, b) {
			t.Fatalf("%s: compactor %d multiset differs from the reference (%d vs %d items)", step, h, len(a), len(b))
		}
		if p := ascendingPrefix(lv.Items); got.SortedPrefix(h) != p {
			t.Fatalf("%s: compactor %d sorted prefix %d, longest ascending prefix %d", step, h, got.SortedPrefix(h), p)
		}
	}
	ga, err := got.PCG.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	wa, err := want.PCG.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ga, wa) {
		t.Fatalf("%s: RNG state differs from the reference", step)
	}
	if got.N == 0 {
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

// TestReqSortedCompactionDifferential runs the sketch against the
// sort-every-compaction reference, in both accuracy modes, through pure
// insert streams and through random interleavings of Insert,
// InsertAll, Merge (equal and smaller k), ScaleCount, Degrade, clone
// and a serialization round trip. After every step the two must agree
// exactly.
func TestReqSortedCompactionDifferential(t *testing.T) {
	for _, hra := range []bool{true, false} {
		for _, st := range []struct{ k, n int }{{DefaultSectionSize, 2500}, {DefaultSectionSize, 100_000}, {4, 20_000}} {
			t.Run(fmt.Sprintf("stream/hra=%v/k=%d/n=%d", hra, st.k, st.n), func(t *testing.T) {
				rng := rand.New(rand.NewPCG(uint64(st.k), uint64(st.n)))
				got, ref := NewWithSeed(st.k, hra, 7), newRefReq(st.k, hra, 7)
				for i := 0; i < st.n; i++ {
					x := diffValue(rng)
					got.Insert(x)
					ref.insert(x)
					if i%997 == 0 {
						checkSame(t, fmt.Sprintf("insert %d", i), got, ref)
					}
				}
				checkSame(t, "end", got, ref)
			})
		}
		for _, k := range []int{DefaultSectionSize, 12} {
			for seed := uint64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("ops/hra=%v/k=%d/seed=%d", hra, k, seed), func(t *testing.T) {
					rng := rand.New(rand.NewPCG(seed, uint64(k)))
					got, ref := NewWithSeed(k, hra, seed), newRefReq(k, hra, seed)
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
							ok := []int{k, max(k/2, minSectionSize), minSectionSize}[rng.IntN(3)]
							oseed, n := rng.Uint64(), rng.IntN(6000)
							o, oref := NewWithSeed(ok, hra, oseed), newRefReq(ok, hra, oseed)
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
							ref = refReq{roundTrip(t, ref.s)}
							name = "serde"
						}
						checkSame(t, fmt.Sprintf("step %d (%s)", step, name), got, ref)
					}
				})
			}
		}
	}
}

// TestReqSortedResumeShortSuffix pins resume ≡ uninterrupted byte for
// byte on short suffixes, where the sorted prefixes decide whether the
// first few promotions merge or append: a decoded copy and an exact clone of the
// original take the same 1–200 further values and must serialize
// identically. The states cover plain streams in both modes, a merge
// into an empty receiver (its compactors arrive ascending through
// Merge, not compaction), a merge into a loaded one, a rescale and a
// degrade.
func TestReqSortedResumeShortSuffix(t *testing.T) {
	fill := func(s *Sketch, n int, seed uint64) *Sketch {
		rng := rand.New(rand.NewPCG(seed, seed+1))
		for range n {
			s.Insert(diffValue(rng))
		}
		return s
	}
	states := map[string]func() *Sketch{
		"stream-hra": func() *Sketch { return fill(NewWithSeed(DefaultSectionSize, true, 1), 2500, 1) },
		"stream-lra": func() *Sketch { return fill(NewWithSeed(DefaultSectionSize, false, 2), 3000, 2) },
		"merge-into-empty": func() *Sketch {
			s := NewWithSeed(DefaultSectionSize, true, 3)
			if err := s.Merge(fill(NewWithSeed(DefaultSectionSize, true, 4), 10_000, 4)); err != nil {
				t.Fatal(err)
			}
			return s
		},
		"merge-into-loaded": func() *Sketch {
			s := fill(NewWithSeed(DefaultSectionSize, true, 5), 7000, 5)
			if err := s.Merge(fill(NewWithSeed(12, true, 6), 4000, 6)); err != nil {
				t.Fatal(err)
			}
			return s
		},
		"scaled": func() *Sketch {
			s := fill(NewWithSeed(DefaultSectionSize, true, 7), 20_000, 7)
			s.ScaleCount(0.6)
			return s
		},
		"degraded": func() *Sketch {
			s := fill(NewWithSeed(DefaultSectionSize, true, 8), 20_000, 8)
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
