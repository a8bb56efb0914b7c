//go:build invariants

package req

import "repro/internal/invariant"

// assertInvariants re-verifies ReqSketch's structural contracts. op
// names the mutation that just ran, for the violation report. The stack
// checks weight conservation, NaN-free samples, every level's exact
// sorted prefix and ordered bounds
// (sketch.CompactorStack.AssertInvariants); ReqSketch adds that every
// stack level has exactly one compactor schedule.
func (s *Sketch) assertInvariants(op string) {
	s.AssertInvariants("req", op)
	if len(s.compactors) != len(s.Levels) {
		invariant.Violationf("req", op, "%d compactor schedules for %d levels", len(s.compactors), len(s.Levels))
	}
}

// assertCount verifies count conservation across a merge: the merged
// sketch must account for exactly the items of both inputs.
func (s *Sketch) assertCount(op string, want uint64) {
	if s.N != want {
		invariant.Violationf("req", op, "count conservation broken: got %d, want %d", s.N, want)
	}
	s.assertInvariants(op)
}
