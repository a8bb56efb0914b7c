// Equivalence tests for the MultiQuantiler contract: QuantileAll must be
// bitwise-indistinguishable from per-q Quantile calls — same estimates,
// same first error with identical wrapping — so the Quantiles dispatch
// can route through the batch kernel transparently.
package sketch_test

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/sketch"
)

// fallbackQuantiles replicates the per-q loop Quantiles uses for
// sketches without a batch kernel — the reference behavior QuantileAll
// must reproduce exactly.
func fallbackQuantiles(sk sketch.Sketch, qs []float64) ([]float64, error) {
	out := make([]float64, len(qs))
	for i, q := range qs {
		v, err := sk.Quantile(q)
		if err != nil {
			return nil, fmt.Errorf("quantile %v: %w", q, err)
		}
		out[i] = v
	}
	return out, nil
}

// quantileAllGrids covers the shapes a batch kernel must handle: single
// targets, the harness's sorted grid, unsorted order with duplicates and
// extremes, q=1 fast paths, invalid quantiles mid-slice, and empty input.
var quantileAllGrids = [][]float64{
	{0.5},
	{0.05, 0.25, 0.5, 0.75, 0.9, 0.95, 0.98, 0.99},
	{0.99, 0.01, 0.5, 1, 0.5, 1e-9, 0.999},
	{1, 1, 0.25},
	{0.5, -1, 0.9},
	{0.9, 2},
	{math.NaN()},
	{},
}

// quantileAllKernels names the batchBuilders configurations with a
// native QuantileAll: the DDSketch and UDDSketch store sweeps. KLL, REQ
// and moments answer through the per-q loop over their cached view or
// solve.
var quantileAllKernels = map[string]bool{"ddsketch": true, "ddsketch-collapse": true, "uddsketch": true}

// TestQuantileAllEquivalence pins QuantileAll to the scalar path on
// every sketch with a batch kernel across empty, filled, warm-cache and
// post-merge states.
func TestQuantileAllEquivalence(t *testing.T) {
	const n = 20_000
	vals := batchTestValues(n)
	for name, builder := range batchBuilders(t) {
		t.Run(name, func(t *testing.T) {
			sk := builder()
			mq, ok := sk.(sketch.MultiQuantiler)
			if ok != quantileAllKernels[name] {
				t.Fatalf("%s implements sketch.MultiQuantiler: %v, want %v", name, ok, quantileAllKernels[name])
			}
			if !ok {
				return
			}
			check := func(stage string) {
				t.Helper()
				for _, qs := range quantileAllGrids {
					// Batch first (cold caches), then the scalar reference,
					// then batch again (warm caches): both calls must match.
					cold, errC := mq.QuantileAll(qs)
					want, errW := fallbackQuantiles(sk, qs)
					warm, errH := mq.QuantileAll(qs)
					for pass, got := range map[string][]float64{"cold": cold, "warm": warm} {
						errG := errC
						if pass == "warm" {
							errG = errH
						}
						if (errW == nil) != (errG == nil) {
							t.Fatalf("%s %s qs=%v: error mismatch: batch %v, scalar %v", stage, pass, qs, errG, errW)
						}
						if errW != nil {
							if errG.Error() != errW.Error() {
								t.Fatalf("%s %s qs=%v: error text %q, scalar %q", stage, pass, qs, errG, errW)
							}
							for _, sentinel := range []error{sketch.ErrEmpty, sketch.ErrInvalidQuantile} {
								if errors.Is(errW, sentinel) != errors.Is(errG, sentinel) {
									t.Fatalf("%s %s qs=%v: sentinel mismatch on %v", stage, pass, qs, sentinel)
								}
							}
							continue
						}
						if len(got) != len(want) {
							t.Fatalf("%s %s qs=%v: got %d values, want %d", stage, pass, qs, len(got), len(want))
						}
						for i := range want {
							if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
								t.Errorf("%s %s q=%v: batch %v, scalar %v", stage, pass, qs[i], got[i], want[i])
							}
						}
					}
				}
			}
			check("empty")
			for _, x := range vals {
				sk.Insert(x)
			}
			check("filled")
			other := builder()
			for _, x := range vals[:n/2] {
				other.Insert(x)
			}
			if err := sk.Merge(other); err != nil {
				t.Fatal(err)
			}
			check("merged")
		})
	}
}

// TestQuantilesUsesBatchKernel pins the Quantiles dispatch: a sketch
// implementing MultiQuantiler must receive the whole slice in one call.
func TestQuantilesUsesBatchKernel(t *testing.T) {
	rec := &recordingMulti{}
	if _, err := sketch.Quantiles(rec, []float64{0.1, 0.9}); err != nil {
		t.Fatal(err)
	}
	if rec.batch != 1 || rec.scalar != 0 {
		t.Fatalf("Quantiles used %d batch calls and %d scalar queries; want 1 and 0", rec.batch, rec.scalar)
	}
}

// recordingMulti counts which query path Quantiles picked.
type recordingMulti struct {
	sketch.Sketch
	batch  int
	scalar int
}

func (r *recordingMulti) Quantile(float64) (float64, error) {
	r.scalar++
	return 0, nil
}

func (r *recordingMulti) QuantileAll(qs []float64) ([]float64, error) {
	r.batch++
	return make([]float64, len(qs)), nil
}
