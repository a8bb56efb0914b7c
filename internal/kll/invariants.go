//go:build invariants

package kll

import (
	"math"

	"repro/internal/invariant"
)

// assertInvariants re-verifies KLL's structural contracts. op names the
// mutation that just ran, for the violation report. The stack checks
// weight conservation, NaN-free samples, every level's exact sorted
// prefix and ordered bounds (sketch.CompactorStack.AssertInvariants);
// KLL adds its schedule:
//
//   - Geometric capacity schedule: capacity(h) must equal
//     max(2, ⌈k·(2/3)^(H−1−h)⌉) — recomputed here independently so a
//     stale cache is caught.
//   - Fitting levels: while fits is set, every level holds fewer items
//     than its capacity. compress's early exit skips the levels above
//     the first one that fits on that promise.
func (s *Sketch) assertInvariants(op string) {
	s.AssertInvariants("kll", op)
	fits := s.fits
	for h := range s.Levels {
		depth := len(s.Levels) - 1 - h
		want := int(math.Ceil(float64(s.k) * math.Pow(capacityDecay, float64(depth))))
		if want < minCompactorSize {
			want = minCompactorSize
		}
		if fits && len(s.Levels[h].Items) >= want {
			invariant.Violationf("kll", op, "level %d holds %d items, capacity %d, with fits set (k=%d, levels=%d)",
				h, len(s.Levels[h].Items), want, s.k, len(s.Levels))
		}
		if got := s.capacity(h); got != want {
			invariant.Violationf("kll", op, "capacity schedule broken at level %d: got %d, want %d (k=%d, levels=%d)",
				h, got, want, s.k, len(s.Levels))
		}
	}
}

// assertCount verifies count conservation across a merge: the merged
// sketch must account for exactly the items of both inputs.
func (s *Sketch) assertCount(op string, want uint64) {
	if s.N != want {
		invariant.Violationf("kll", op, "count conservation broken: got %d, want %d", s.N, want)
	}
	s.assertInvariants(op)
}
