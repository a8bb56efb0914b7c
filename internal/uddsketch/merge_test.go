package uddsketch

import (
	"bytes"
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
)

// refCollapse is the uniform collapse as it was before map stores
// collapsed in place: each map is rebuilt into a fresh one. The dense
// store has always rebuilt its array, so it collapses as it does.
func refCollapse(s *Sketch) {
	if s.dense() {
		s.positive.collapse()
		s.negative.collapse()
	} else {
		collapse := func(old store) store {
			neu := make(mapStore, (old.len()+1)/2)
			old.ascending(func(i int, c int64) bool {
				neu[ceilShift(i, 1)] += c
				return true
			})
			return neu
		}
		s.positive = collapse(s.positive)
		s.negative = collapse(s.negative)
	}
	s.collapsed()
}

// refClone copies s into fresh stores of its kind, buckets added in
// index order.
func refClone(s *Sketch) *Sketch {
	c := *s
	c.positive, c.negative = newStore(s.dense(), 0), newStore(s.dense(), 0)
	refAdd(c.positive, s.positive)
	refAdd(c.negative, s.negative)
	return &c
}

// refAdd adds every bucket of src to dst in index order.
func refAdd(dst, src store) {
	src.ascending(func(i int, c int64) bool {
		dst.add(i, c)
		return true
	})
}

// refMerge is the fusion path Merge replaced: the less-collapsed side
// is collapsed up to the other's level — other through a private clone,
// so it is not mutated — and the aligned counts are added, then the
// budget is restored by further collapses.
func refMerge(s, o *Sketch) {
	src := o
	if o.collapses < s.collapses {
		src = refClone(o)
		for src.collapses < s.collapses {
			refCollapse(src)
		}
	}
	for s.collapses < o.collapses {
		refCollapse(s)
	}
	refAdd(s.positive, src.positive)
	refAdd(s.negative, src.negative)
	s.zeroCnt += src.zeroCnt
	s.count += src.count
	if src.min < s.min {
		s.min = src.min
	}
	if src.max > s.max {
		s.max = src.max
	}
	for s.NonEmptyBuckets() > s.maxBuckets {
		refCollapse(s)
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
// receivers must serialize byte-identically, a dense receiver must end
// with the same array, and the merged-in sketch must be left untouched.
// Self-merges are included.
func TestMergeMatchesCloneCollapse(t *testing.T) {
	const budget = 64
	for _, kind := range storeKinds {
		for ci, tc := range mergeCases() {
			name := fmt.Sprintf("%s/%d/%s-%d+%d/%s-%d+%d", kind.name, ci, tc[0].kind, tc[0].n, tc[0].extra, tc[1].kind, tc[1].n, tc[1].extra)
			t.Run(name, func(t *testing.T) {
				fill := func(f mergeFill, seed uint64) *Sketch {
					s := build(kind.dense, 0.01, budget)
					for _, x := range f.values(seed) {
						s.Insert(x)
					}
					for range f.extra {
						s.uniformCollapse()
					}
					return s
				}
				got, o := fill(tc[0], 1), fill(tc[1], 2)
				want, wantO := fill(tc[0], 1), fill(tc[1], 2)
				oBefore := marshal(t, o)
				if err := got.Merge(o); err != nil {
					t.Fatal(err)
				}
				refMerge(want, wantO)
				if !bytes.Equal(marshal(t, got), marshal(t, want)) {
					t.Errorf("Merge differs from clone-and-collapse (collapses %d vs %d, count %d vs %d)",
						got.Collapses(), want.Collapses(), got.Count(), want.Count())
				}
				if got.MemoryBytes() != want.MemoryBytes() {
					t.Errorf("MemoryBytes %d, want %d: the store layout diverged", got.MemoryBytes(), want.MemoryBytes())
				}
				if !bytes.Equal(marshal(t, o), oBefore) {
					t.Error("Merge mutated its argument")
				}
				self, selfRef := fill(tc[0], 3), fill(tc[0], 3)
				if err := self.Merge(self); err != nil {
					t.Fatal(err)
				}
				refMerge(selfRef, selfRef)
				if !bytes.Equal(marshal(t, self), marshal(t, selfRef)) {
					t.Error("self-merge differs from clone-and-collapse")
				}
			})
		}
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
