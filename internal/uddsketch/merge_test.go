package uddsketch

import (
	"bytes"
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
)

// refCollapseMap is the map store's uniform collapse as it was before
// collapses ran in place: both stores rebuilt into fresh maps.
func refCollapseMap(s *Sketch) {
	collapse := func(old map[int]int64) map[int]int64 {
		neu := make(map[int]int64, (len(old)+1)/2)
		for i, c := range old {
			neu[ceilShift(i, 1)] += c
		}
		return neu
	}
	s.positive = collapse(s.positive)
	s.negative = collapse(s.negative)
	s.collapsed()
}

// refMergeMap is the fusion path Merge replaced: the less-collapsed
// side is collapsed up to the other's level — other through a private
// clone, so it is not mutated — and the aligned counts are added, then
// the budget is restored by further collapses.
func refMergeMap(s, o *Sketch) {
	src := o
	if o.collapses < s.collapses {
		src = &Sketch{}
		*src = *o
		src.positive = make(map[int]int64, len(o.positive))
		for i, c := range o.positive {
			src.positive[i] = c
		}
		src.negative = make(map[int]int64, len(o.negative))
		for i, c := range o.negative {
			src.negative[i] = c
		}
		for src.collapses < s.collapses {
			refCollapseMap(src)
		}
	}
	for s.collapses < o.collapses {
		refCollapseMap(s)
	}
	for i, c := range src.positive {
		s.positive[i] += c
	}
	for i, c := range src.negative {
		s.negative[i] += c
	}
	s.zeroCnt += src.zeroCnt
	s.count += src.count
	if src.min < s.min {
		s.min = src.min
	}
	if src.max > s.max {
		s.max = src.max
	}
	for len(s.positive)+len(s.negative) > s.maxBuckets {
		refCollapseMap(s)
	}
}

// refMergeArray is refMergeMap for the array store: collapse a copy of
// the less-collapsed other, then add its slots in ascending order.
func refMergeArray(s, o *ArraySketch) {
	src := o
	if o.collapses < s.collapses {
		src = &ArraySketch{}
		*src = *o
		src.counts = append([]int64(nil), o.counts...)
		for src.collapses < s.collapses {
			src.uniformCollapse()
		}
	}
	for s.collapses < o.collapses {
		s.uniformCollapse()
	}
	for pos, c := range src.counts {
		if c != 0 {
			s.add(src.offset+pos, c)
		}
	}
	s.zeroCnt += src.zeroCnt
	s.count += src.count
	if src.min < s.min {
		s.min = src.min
	}
	if src.max > s.max {
		s.max = src.max
	}
	for s.nonZero > s.maxBuckets {
		s.uniformCollapse()
	}
}

// mergeFill is one side's input for the merge differential: n draws of
// kind ("pos", "mixed" — negatives and zeros among positives — or
// "zero"), then extra forced uniform collapses.
type mergeFill struct {
	kind  string
	n     int
	extra int
}

func (f mergeFill) values(seed uint64) []float64 {
	rng := rand.New(rand.NewPCG(seed, 99))
	xs := make([]float64, f.n)
	for i := range xs {
		switch f.kind {
		case "zero":
			xs[i] = 0
		case "mixed":
			xs[i] = math.Exp(rng.Float64()*20 - 10)
			switch rng.IntN(5) {
			case 0:
				xs[i] = -xs[i]
			case 1:
				xs[i] = 0
			}
		default:
			xs[i] = math.Exp(rng.Float64()*20 - 10)
		}
	}
	return xs
}

// mergeCases covers collapse gaps 0–5 in both directions over positive,
// mixed-sign and all-zero inputs, and an empty side on either end.
func mergeCases() [][2]mergeFill {
	var cases [][2]mergeFill
	for _, kind := range []string{"pos", "mixed", "zero"} {
		for gap := 0; gap <= 5; gap++ {
			cases = append(cases,
				[2]mergeFill{{kind, 3000, gap}, {kind, 2000, 0}},
				[2]mergeFill{{kind, 3000, 0}, {kind, 2000, gap}})
		}
	}
	for gap := 0; gap <= 5; gap++ {
		cases = append(cases,
			[2]mergeFill{{"pos", 0, gap}, {"mixed", 2000, 0}},
			[2]mergeFill{{"mixed", 2000, 0}, {"pos", 0, gap}},
			[2]mergeFill{{"pos", 0, 0}, {"pos", 0, gap}})
	}
	return cases
}

// TestMergeMatchesCloneCollapse pins the clone-free fusion path of
// both stores to the clone-and-collapse path it replaced: the merged
// receivers must serialize byte-identically, and the merged-in sketch
// must be left untouched. Self-merges are included.
func TestMergeMatchesCloneCollapse(t *testing.T) {
	const budget = 64
	for ci, tc := range mergeCases() {
		name := fmt.Sprintf("%d/%s-%d+%d/%s-%d+%d", ci, tc[0].kind, tc[0].n, tc[0].extra, tc[1].kind, tc[1].n, tc[1].extra)
		t.Run("map/"+name, func(t *testing.T) {
			build := func(f mergeFill, seed uint64) *Sketch {
				s := New(0.01, budget)
				for _, x := range f.values(seed) {
					s.Insert(x)
				}
				for range f.extra {
					s.uniformCollapse()
				}
				return s
			}
			got, o := build(tc[0], 1), build(tc[1], 2)
			want, wantO := build(tc[0], 1), build(tc[1], 2)
			oBefore := marshal(t, o)
			if err := got.Merge(o); err != nil {
				t.Fatal(err)
			}
			refMergeMap(want, wantO)
			if !bytes.Equal(marshal(t, got), marshal(t, want)) {
				t.Errorf("Merge differs from clone-and-collapse (collapses %d vs %d, count %d vs %d)",
					got.Collapses(), want.Collapses(), got.Count(), want.Count())
			}
			if !bytes.Equal(marshal(t, o), oBefore) {
				t.Error("Merge mutated its argument")
			}
			self, selfRef := build(tc[0], 3), build(tc[0], 3)
			if err := self.Merge(self); err != nil {
				t.Fatal(err)
			}
			refMergeMap(selfRef, selfRef)
			if !bytes.Equal(marshal(t, self), marshal(t, selfRef)) {
				t.Error("self-merge differs from clone-and-collapse")
			}
		})
		t.Run("array/"+name, func(t *testing.T) {
			build := func(f mergeFill, seed uint64) *ArraySketch {
				s, err := NewArray(0.01, budget)
				if err != nil {
					t.Fatal(err)
				}
				for _, x := range f.values(seed) {
					s.Insert(x)
				}
				for range f.extra {
					s.uniformCollapse()
				}
				return s
			}
			got, o := build(tc[0], 1), build(tc[1], 2)
			want, wantO := build(tc[0], 1), build(tc[1], 2)
			oBefore := marshal(t, o)
			if err := got.Merge(o); err != nil {
				t.Fatal(err)
			}
			refMergeArray(want, wantO)
			if !bytes.Equal(marshal(t, got), marshal(t, want)) {
				t.Errorf("Merge differs from clone-and-collapse (collapses %d vs %d, count %d vs %d)",
					got.Collapses(), want.Collapses(), got.Count(), want.Count())
			}
			if got.MemoryBytes() != want.MemoryBytes() {
				t.Errorf("MemoryBytes %d, want %d: the array layout diverged", got.MemoryBytes(), want.MemoryBytes())
			}
			if !bytes.Equal(marshal(t, o), oBefore) {
				t.Error("Merge mutated its argument")
			}
			self, selfRef := build(tc[0], 3), build(tc[0], 3)
			if err := self.Merge(self); err != nil {
				t.Fatal(err)
			}
			refMergeArray(selfRef, selfRef)
			if !bytes.Equal(marshal(t, self), marshal(t, selfRef)) {
				t.Error("self-merge differs from clone-and-collapse")
			}
		})
	}
}

func marshal(t *testing.T, s interface{ MarshalBinary() ([]byte, error) }) []byte {
	t.Helper()
	b, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return b
}
