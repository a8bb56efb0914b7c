// Equivalence tests for the BatchInserter contract: InsertBatch must be
// indistinguishable from per-element Insert in stream order, across
// every chunking of the input. The external test package lets these
// tests exercise the concrete study sketches against the interface they
// implement.
package sketch_test

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/datagen"
	"repro/internal/ddsketch"
	"repro/internal/kll"
	"repro/internal/moments"
	"repro/internal/obs"
	"repro/internal/req"
	"repro/internal/sketch"
	"repro/internal/uddsketch"
)

// batchBuilders covers the study sketches, configured so the
// interesting state transitions happen mid-batch: small KLL/REQ
// capacities force many compactions, a tiny UDDSketch budget forces
// repeated uniform collapses, and the collapsing DDSketch store
// exercises the per-element fallback of its batch kernel.
func batchBuilders(t *testing.T) map[string]sketch.Builder {
	t.Helper()
	udd, err := uddsketch.NewWithBudget(0.01, 64, 6)
	if err != nil {
		t.Fatal(err)
	}
	uddAlpha, uddBuckets := udd.InitialAlpha(), udd.MaxBuckets()
	return map[string]sketch.Builder{
		"kll":               func() sketch.Sketch { return kll.NewWithSeed(32, 7) },
		"req":               func() sketch.Sketch { return req.NewWithSeed(8, true, 7) },
		"ddsketch":          func() sketch.Sketch { return ddsketch.New(0.01) },
		"ddsketch-collapse": func() sketch.Sketch { return ddsketch.NewCollapsing(0.01, 48) },
		"uddsketch":         func() sketch.Sketch { return uddsketch.New(uddAlpha, uddBuckets) },
		"moments":           func() sketch.Sketch { return moments.New(12) },
		"moments-log":       func() sketch.Sketch { return moments.NewWithTransform(12, moments.TransformLog) },
		"moments-arcsinh":   func() sketch.Sketch { return moments.NewWithTransform(12, moments.TransformArcsinh) },
	}
}

// batchTestValues mixes heavy-tailed positives with the awkward cases
// every kernel must route exactly like the scalar path: NaNs (skipped),
// zeros and subnormals (zero counter / unrepresentable), and negatives
// (negative store, or skipped under the log transform).
func batchTestValues(n int) []float64 {
	src := datagen.NewPareto(1, 1, 17)
	vals := make([]float64, n)
	for i := range vals {
		switch i % 13 {
		case 3:
			vals[i] = math.NaN()
		case 5:
			vals[i] = 0
		case 7:
			vals[i] = -src.Next()
		case 11:
			vals[i] = 5e-324 // subnormal: below every minimum indexable magnitude
		default:
			vals[i] = src.Next()
		}
	}
	return vals
}

// insertKernels names the batchBuilders configurations with a native
// InsertBatch. KLL's and REQ's run their scalar insert body per value
// and differ from Insert only in publishing their metrics once per
// batch (DESIGN.md §13).
var insertKernels = map[string]bool{
	"ddsketch": true, "ddsketch-collapse": true, "uddsketch": true,
	"moments": true, "moments-log": true, "moments-arcsinh": true,
	"kll": true, "req": true,
}

// TestInsertBatchEquivalence feeds the same stream through Insert and
// through InsertBatch at several chunk sizes and requires identical
// serialized state, count and query answers.
func TestInsertBatchEquivalence(t *testing.T) {
	const n = 20_000
	vals := batchTestValues(n)
	for name, builder := range batchBuilders(t) {
		t.Run(name, func(t *testing.T) {
			ref := builder()
			if _, ok := ref.(sketch.BatchInserter); ok != insertKernels[name] {
				t.Fatalf("%s implements sketch.BatchInserter: %v, want %v", name, ok, insertKernels[name])
			}
			if !insertKernels[name] {
				return
			}
			for _, x := range vals {
				ref.Insert(x)
			}
			refBlob, err := ref.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			for _, chunk := range []int{1, 3, 64, 256, 1000, n} {
				got := builder()
				bi := got.(sketch.BatchInserter)
				for i := 0; i < n; i += chunk {
					j := i + chunk
					if j > n {
						j = n
					}
					bi.InsertBatch(vals[i:j])
				}
				if got.Count() != ref.Count() {
					t.Fatalf("chunk=%d: count %d, scalar %d", chunk, got.Count(), ref.Count())
				}
				gotBlob, err := got.MarshalBinary()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(gotBlob, refBlob) {
					t.Errorf("chunk=%d: serialized state differs from scalar inserts", chunk)
				}
				for _, q := range []float64{0.01, 0.5, 0.9, 0.99, 1} {
					want, errW := ref.Quantile(q)
					have, errH := got.Quantile(q)
					if (errW == nil) != (errH == nil) {
						t.Fatalf("chunk=%d q=%v: error mismatch %v vs %v", chunk, q, errH, errW)
					}
					if errW == nil && math.Float64bits(have) != math.Float64bits(want) {
						t.Errorf("chunk=%d q=%v: %v, scalar %v", chunk, q, have, want)
					}
				}
			}
		})
	}
}

// TestInsertAllUsesBatchKernel pins the InsertAll dispatch: a sketch
// implementing BatchInserter must receive the whole slice in one call.
func TestInsertAllUsesBatchKernel(t *testing.T) {
	rec := &recordingBatcher{}
	sketch.InsertAll(rec, []float64{1, 2, 3})
	if rec.batches != 1 || rec.inserts != 0 {
		t.Fatalf("InsertAll used %d batch calls and %d scalar inserts; want 1 and 0", rec.batches, rec.inserts)
	}
}

// recordingBatcher counts which insert path InsertAll picked.
type recordingBatcher struct {
	sketch.Sketch
	batches int
	inserts int
}

func (r *recordingBatcher) Insert(float64)           { r.inserts++ }
func (r *recordingBatcher) InsertBatch(xs []float64) { r.batches++ }

// TestInsertBatchMetrics pins the counters of the KLL and REQ kernels,
// which publish one delta per batch: over the same stream, InsertBatch
// records exactly the inserts (NaNs skipped) and compactions scalar
// Insert does, at every chunk size.
func TestInsertBatchMetrics(t *testing.T) {
	const n = 20_000
	vals := batchTestValues(n)
	builders := batchBuilders(t)
	for name, setMetrics := range map[string]func(*obs.SketchMetrics){
		"kll": kll.SetMetrics,
		"req": req.SetMetrics,
	} {
		t.Run(name, func(t *testing.T) {
			defer setMetrics(nil)
			ref := &obs.SketchMetrics{}
			setMetrics(ref)
			sk := builders[name]()
			for _, x := range vals {
				sk.Insert(x)
			}
			if ref.Inserts.Load() != int64(sk.Count()) || ref.Compactions.Load() == 0 {
				t.Fatalf("scalar inserts recorded %d inserts and %d compactions, count %d",
					ref.Inserts.Load(), ref.Compactions.Load(), sk.Count())
			}
			for _, chunk := range []int{1, 3, 256, n} {
				got := &obs.SketchMetrics{}
				setMetrics(got)
				bi := builders[name]().(sketch.BatchInserter)
				for i := 0; i < n; i += chunk {
					bi.InsertBatch(vals[i:min(i+chunk, n)])
				}
				if got.Inserts.Load() != ref.Inserts.Load() || got.Compactions.Load() != ref.Compactions.Load() {
					t.Errorf("chunk=%d: %d inserts and %d compactions, scalar %d and %d", chunk,
						got.Inserts.Load(), got.Compactions.Load(), ref.Inserts.Load(), ref.Compactions.Load())
				}
			}
		})
	}
}
