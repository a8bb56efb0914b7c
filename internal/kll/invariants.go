//go:build invariants

package kll

import (
	"math"
	"slices"

	"repro/internal/invariant"
)

// assertInvariants re-verifies KLL's structural contracts. op names the
// mutation that just ran, for the violation report.
//
//   - Weight conservation: Σ_h |levels[h]|·2^h == count. Compaction
//     promotes exactly half of an even-sized prefix one level up (its
//     weight doubles), so the total weight of retained samples must
//     equal the number of inserted items at all times.
//   - Geometric capacity schedule: capacity(h) must equal
//     max(2, ⌈k·(2/3)^(H−1−h)⌉) — recomputed here independently so a
//     stale cache is caught.
//   - Ordered bounds: min ≤ max whenever the sketch is non-empty, and
//     no retained sample may be NaN.
//   - Sorted mask: bit h of sorted is set exactly when level h ≥ 1 is
//     ascending, and bit 0 is clear. A flagged level that is not
//     ascending would make compaction skip a needed sort; an ascending
//     level left unflagged would make a decoded copy (which re-derives
//     the mask by scanning) merge where the original appends.
func (s *Sketch) assertInvariants(op string) {
	var weight uint64
	for h, lv := range s.levels {
		weight += uint64(len(lv)) << uint(h)
		for _, v := range lv {
			if math.IsNaN(float64(v)) {
				invariant.Violationf("kll", op, "NaN sample at level %d", h)
			}
		}
	}
	if weight != s.count {
		invariant.Violationf("kll", op, "weight conservation broken: retained weight %d, count %d", weight, s.count)
	}
	for h := range s.levels {
		depth := len(s.levels) - 1 - h
		want := int(math.Ceil(float64(s.k) * math.Pow(capacityDecay, float64(depth))))
		if want < minCompactorSize {
			want = minCompactorSize
		}
		if got := s.capacity(h); got != want {
			invariant.Violationf("kll", op, "capacity schedule broken at level %d: got %d, want %d (k=%d, levels=%d)",
				h, got, want, s.k, len(s.levels))
		}
	}
	if s.sorted&1 != 0 {
		invariant.Violationf("kll", op, "sorted mask flags level 0")
	}
	for h := 1; h < len(s.levels) && h < 64; h++ {
		flagged := s.sorted&(1<<h) != 0
		if asc := slices.IsSorted(s.levels[h]); flagged != asc {
			invariant.Violationf("kll", op, "sorted mask broken at level %d: flagged %v, ascending %v", h, flagged, asc)
		}
	}
	if s.count > 0 && !(s.min <= s.max) {
		invariant.Violationf("kll", op, "bounds broken: min %v > max %v with count %d", s.min, s.max, s.count)
	}
}

// assertCount verifies count conservation across a merge: the merged
// sketch must account for exactly the items of both inputs.
func (s *Sketch) assertCount(op string, want uint64) {
	if s.count != want {
		invariant.Violationf("kll", op, "count conservation broken: got %d, want %d", s.count, want)
	}
	s.assertInvariants(op)
}
