package sketch

import (
	"slices"
	"testing"
)

// TestShareCloneMutatorsOwnFirst: every stack mutator run on a
// ShareClone takes the levels it writes for its own first, so the
// source's arrays stay untouched, their spare capacity included (a
// write there is what two concurrent handoffs from one published
// version would race on), and the copy ends where a deep Clone given
// the same mutation ends.
func TestShareCloneMutatorsOwnFirst(t *testing.T) {
	build := func() *CompactorStack {
		st := NewCompactorStack(1, 2, 0, true)
		st.AddLevel(0)
		st.AddLevel(0)
		// Level 0 and level 1 are unsorted, as inserts and a merge
		// leave them; level 2 is ascending. Each has spare capacity.
		for h, items := range [][]float32{{5, 1, 4, 2}, {3, 9, 2, 7}, {1, 6}} {
			st.Levels[h] = Level{Items: append(make([]float32, 0, 16), items...)}
			st.Levels[h].markSorted(0)
		}
		st.N, st.Min, st.Max = 4+2*4+4*2, 1, 9
		return &st
	}
	other := build()
	for _, m := range []struct {
		name   string
		mutate func(*CompactorStack)
	}{
		{"Append", func(st *CompactorStack) { st.Append(3) }},
		{"SortWhole", func(st *CompactorStack) { st.SortWhole(1) }},
		{"Compact", func(st *CompactorStack) { st.Compact(0, 0, 4, false) }},
		{"CompactMerge", func(st *CompactorStack) { st.Compact(1, 0, 4, true) }},
		{"Concat", func(st *CompactorStack) { st.Concat(other) }},
		{"Scale", func(st *CompactorStack) { st.Scale(0.6) }},
		{"Clip", func(st *CompactorStack) { st.Clip() }},
	} {
		t.Run(m.name, func(t *testing.T) {
			src := build()
			headers := slices.Clone(src.Levels)
			arrays := make([][]float32, len(src.Levels))
			for h, lv := range src.Levels {
				arrays[h] = slices.Clone(lv.Items[:cap(lv.Items)])
			}
			shared, deep := src.ShareClone(), src.Clone()
			m.mutate(&shared)
			m.mutate(&deep)
			for h, lv := range src.Levels {
				if lv.sorted != headers[h].sorted || len(lv.Items) != len(headers[h].Items) {
					t.Errorf("level %d's header moved", h)
				}
				if !slices.Equal(lv.Items[:cap(lv.Items)], arrays[h]) {
					t.Errorf("level %d's array was written: %v, was %v", h, lv.Items[:cap(lv.Items)], arrays[h])
				}
			}
			if shared.N != deep.N || len(shared.Levels) != len(deep.Levels) {
				t.Fatalf("copies differ: N %d vs %d, %d vs %d levels", shared.N, deep.N, len(shared.Levels), len(deep.Levels))
			}
			for h := range deep.Levels {
				if !slices.Equal(shared.Levels[h].Items, deep.Levels[h].Items) || shared.Levels[h].sorted != deep.Levels[h].sorted {
					t.Errorf("level %d: shared copy %v, deep copy %v", h, shared.Levels[h], deep.Levels[h])
				}
			}
		})
	}
}
