//go:build !invariants

package req

// assertInvariants compiles to an empty inlined call without the
// invariants build tag; see invariants.go for the checked contracts.
func (s *Sketch) assertInvariants(string) {}

// assertCount compiles to an empty inlined call without the invariants
// build tag; see invariants.go for the checked contracts.
func (s *Sketch) assertCount(string, uint64) {}
