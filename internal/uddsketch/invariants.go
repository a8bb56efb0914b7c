//go:build invariants

package uddsketch

import (
	"math"

	"repro/internal/invariant"
)

// assertInvariants re-verifies UDDSketch's contracts, for either store:
//
//   - Count conservation: Σ positive + Σ negative + zeroCnt == count.
//     Unlike DDSketch the total is stored, so a drifting bucket store
//     would silently skew every rank estimate.
//   - Bucket budget: at most maxBuckets live buckets after any
//     complete operation (uniform collapse enforces it).
//   - Positive bucket counts: neither insertion nor collapse can
//     produce an empty or negative bucket, and each store's live
//     bucket count is the number of buckets it holds.
//   - Accuracy bookkeeping: α ∈ (0,1] and γ consistent with α. A
//     budget too small for the data's value range collapses until α
//     rounds to 1 (γ = +Inf), which means no guarantee (see New); the
//     collapses must still run, so the saturated α is a valid state.
//   - Ordered bounds: min ≤ max (non-NaN) whenever non-empty.
func (s *Sketch) assertInvariants(op string) {
	sum := checkStore(op, "positive", s.positive) + checkStore(op, "negative", s.negative)
	if sum+s.zeroCnt != s.count {
		invariant.Violationf("uddsketch", op, "count conservation broken: buckets %d + zero %d != count %d",
			sum, s.zeroCnt, s.count)
	}
	if n := s.NonEmptyBuckets(); n > s.maxBuckets {
		invariant.Violationf("uddsketch", op, "bucket budget exceeded: %d live buckets, budget %d", n, s.maxBuckets)
	}
	if !(s.alpha > 0 && s.alpha <= 1) {
		invariant.Violationf("uddsketch", op, "alpha %v outside (0,1] after %d collapses", s.alpha, s.collapses)
	}
	if g := (1 + s.alpha) / (1 - s.alpha); math.IsInf(g, 1) != math.IsInf(s.gamma, 1) || math.Abs(g-s.gamma) > 1e-9*g {
		invariant.Violationf("uddsketch", op, "gamma %v inconsistent with alpha %v (want %v)", s.gamma, s.alpha, g)
	}
	if s.count > 0 {
		if math.IsNaN(s.min) || math.IsNaN(s.max) || !(s.min <= s.max) {
			invariant.Violationf("uddsketch", op, "bounds broken: min %v, max %v with count %d", s.min, s.max, s.count)
		}
	}
}

// checkStore checks a store's bucket counts and live bucket count and
// returns their sum. It ranges over the concrete stores rather than
// calling their walk, whose closure would allocate and trip the
// allocation pins of the collapse path.
func checkStore(op, side string, st store) int64 {
	var sum int64
	n := 0
	visit := func(i int, c int64) {
		if c <= 0 {
			invariant.Violationf("uddsketch", op, "%s bucket %d has non-positive count %d", side, i, c)
		}
		sum += c
		n++
	}
	switch st := st.(type) {
	case mapStore:
		for i, c := range st {
			visit(i, c)
		}
	case *denseStore:
		for k, c := range st.counts {
			if c != 0 {
				visit(st.offset+k, c)
			}
		}
	}
	if n != st.len() {
		invariant.Violationf("uddsketch", op, "%s store reports %d live buckets, holds %d", side, st.len(), n)
	}
	return sum
}

// assertCount verifies count conservation across a merge.
func (s *Sketch) assertCount(op string, want int64) {
	if s.count != want {
		invariant.Violationf("uddsketch", op, "count conservation broken: got %d, want %d", s.count, want)
	}
	s.assertInvariants(op)
}
