//go:build invariants

package sketch

import (
	"math"

	"repro/internal/invariant"
)

// AssertInvariants re-verifies the stack's structural contracts after a
// mutation; name is the sketch and op the mutation, for the report.
//
//   - Weight conservation: Σ_h len(Levels[h].Items)·2^h == N. A
//     compaction promotes exactly half of an even-sized region one
//     level up (its weight doubles), so the retained weight equals the
//     number of items summarized at all times.
//   - No retained item is NaN.
//   - Exact sorted prefix: every level's sorted prefix is its longest
//     ascending prefix — on level 0 once settled, so there it may only
//     understate, by items Append added. A prefix that overstates it
//     would make a compaction skip a needed sort; one above level 0
//     that understates it would make a decoded copy (which re-derives
//     it by scanning) merge where the original appends.
//   - Ordered bounds: Min ≤ Max whenever N > 0.
func (st *CompactorStack) AssertInvariants(name, op string) {
	var weight uint64
	for h, lv := range st.Levels {
		weight += uint64(len(lv.Items)) << uint(h)
		n := 0
		for n < len(lv.Items) && (n == 0 || lv.Items[n] >= lv.Items[n-1]) {
			n++
		}
		if lv.sorted > n || (h > 0 && lv.sorted != n) {
			invariant.Violationf(name, op, "sorted prefix of level %d is %d, its longest ascending prefix %d", h, lv.sorted, n)
		}
		for _, v := range lv.Items {
			if math.IsNaN(float64(v)) {
				invariant.Violationf(name, op, "NaN item at level %d", h)
			}
		}
	}
	if weight != st.N {
		invariant.Violationf(name, op, "weight conservation broken: retained weight %d, count %d", weight, st.N)
	}
	if st.N > 0 && !(st.Min <= st.Max) {
		invariant.Violationf(name, op, "bounds broken: min %v > max %v with count %d", st.Min, st.Max, st.N)
	}
}
