//go:build !invariants

package sketch

// AssertInvariants compiles to an empty inlined call without the
// invariants build tag; see compactor_invariants.go for the checked
// contracts.
func (st *CompactorStack) AssertInvariants(string, string) {}
