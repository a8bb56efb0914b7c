package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"time"

	"repro/internal/stats"
	"repro/internal/stream"
)

// tally counts correctness checks. Every window, query and invariant
// the benchmark verifies is one attempted operation; the result line's
// attempted/failed fields are its totals.
type tally struct {
	attempted, failed int64
	notes             []string // first few failure descriptions, for stderr
}

// check records one check and returns ok.
func (t *tally) check(ok bool, format string, args ...any) bool {
	t.attempted++
	if !ok {
		t.failed++
		if len(t.notes) < 8 {
			t.notes = append(t.notes, fmt.Sprintf(format, args...))
		}
	}
	return ok
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	for _, n := range o.notes {
		if len(t.notes) < 8 {
			t.notes = append(t.notes, n)
		}
	}
}

// digest folds a run's answers into a 64-bit FNV-1a hash, so two runs
// (or two commits) can tell whether any answer changed.
type digest struct{ h uint64 }

func newDigest() digest { return digest{h: fnv.New64a().Sum64()} }

func (d *digest) word(x uint64) {
	for i := 0; i < 8; i++ {
		d.h ^= x & 0xff
		d.h *= 1099511628211
		x >>= 8
	}
}

func (d *digest) float(f float64) { d.word(math.Float64bits(f)) }

// checkIdentity verifies the engine's accounting identity.
func checkIdentity(t *tally, st stream.Stats) {
	sum := st.Accepted + st.DroppedLate + st.RejectedInput + st.ShedBudget
	t.check(st.Generated == sum && st.Generated > 0,
		"stats identity: generated %d != accepted %d + late %d + rejected %d + shed %d",
		st.Generated, st.Accepted, st.DroppedLate, st.RejectedInput, st.ShedBudget)
}

// checkOrder verifies that windows arrive in index order.
func checkOrder(t *tally, got, want int) {
	t.check(got == want, "window order: got index %d, want %d", got, want)
}

// checkDigest verifies that a rep reproduced the checked rep's answers.
func checkDigest(t *tally, got, want uint64) {
	t.check(got == want, "answers digest %016x differs from the checked run's %016x", got, want)
}

// checkWindowCount verifies that every window fired.
func checkWindowCount(t *tally, got, want int) {
	t.check(got == want, "window count: %d fired, want %d", got, want)
}

// checkSharedCount verifies that after Flush the shared sketch holds
// exactly the accepted events.
func checkSharedCount(t *tally, count uint64, accepted int64) {
	t.check(int64(count) == accepted, "shared sketch count %d != accepted %d", count, accepted)
}

// checkAnswers verifies that a quantile vector is finite and
// non-decreasing in q.
func checkAnswers(t *tally, what string, ans []float64) bool {
	ok := true
	for i, v := range ans {
		if math.IsNaN(v) || math.IsInf(v, 0) || (i > 0 && v < ans[i-1]) {
			ok = false
		}
	}
	return t.check(ok, "%s: answers not finite and non-decreasing: %v", what, ans)
}

// oracle is the ground truth of one window: exact, or weighted for a
// decayed sliding window.
type oracle interface {
	Quantile(q float64) float64
}

// relBoundOK reports whether est is within relative accuracy alpha of
// the oracle, allowing the rank to be off by eps (decay rounding):
// (1-alpha)·O(q-eps) <= est <= (1+alpha)·O(q+eps). lowerOnly checks
// the first inequality alone.
func relBoundOK(o oracle, q, est, alpha, eps float64, lowerOnly bool) bool {
	const slack = 1e-9 // float rounding in the mapping
	lo := o.Quantile(math.Max(q-eps, 1e-12))
	if est < (1-alpha)*lo*(1-slack) {
		return false
	}
	return lowerOnly || est <= (1+alpha)*o.Quantile(math.Min(q+eps, 1))*(1+slack)
}

// rankBoundOK reports whether est's exact normalized rank is within
// bound of q.
func rankBoundOK(o *stats.ExactQuantiles, q, est, bound float64) bool {
	r := o.NormalizedRank(est)
	// The rank-ceil(qN) convention puts an exact answer up to 1/N above q.
	return r >= q-bound && r <= q+bound+1/float64(o.N())
}

// decayWeights returns the per-value weights the engine applied to a
// decayed sliding window: pane i of n (oldest first) has weight
// exp(-lambda·age_i), age_i = (n-1-i) pane lengths.
func decayWeights(r stream.WindowResult, lambda float64) []float64 {
	n := len(r.PaneCounts)
	paneLen := (r.End - r.Start) / time.Duration(n)
	w := make([]float64, 0, len(r.Values))
	for i, c := range r.PaneCounts {
		g := math.Exp(-lambda * (time.Duration(n-1-i) * paneLen).Seconds())
		for k := 0; k < c; k++ {
			w = append(w, g)
		}
	}
	return w
}

// checkMidError verifies a paper-accuracy table row: a relative-error
// sketch's mean mid-quantile error must stay within its alpha.
func checkMidError(t *tally, alg string, mid, alpha float64) {
	t.check(mid >= 0 && mid <= alpha, "%s mid error %.5f exceeds alpha %.3f", alg, mid, alpha)
}
