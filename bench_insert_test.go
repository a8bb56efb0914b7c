// Benchmarks for the insert-path dimensions the hot-path overhaul
// introduced: the index-mapping family (exact log vs the interpolated
// cubic/linear mappings) and the store layout (DDSketch's dense array vs
// buffered-paginated, UDDSketch's map vs dense array). scripts/bench.sh
// prints, from one run, each legacy variant (exact-log mapping or
// indexer, dense store, the paper's UDDSketch map) over its
// counterpart.
package quantiles_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/ddsketch"
	"repro/internal/sketch"
	"repro/internal/uddsketch"
)

// BenchmarkInsertMapping isolates the mapping cost: same sketch, same
// dense store, same Pareto stream, only the value→bucket index function
// differs. Reported per event over 256-value batches (the stream
// engine's chunk granularity).
func BenchmarkInsertMapping(b *testing.B) {
	const chunk = 256
	vals := paretoValues(1<<20, 11)
	dense := func() ddsketch.Store { return ddsketch.NewDenseStore() }
	for _, tc := range []struct {
		name    string
		mapping func(float64) (ddsketch.IndexMapping, error)
	}{
		{"logarithmic", func(a float64) (ddsketch.IndexMapping, error) { return ddsketch.NewLogarithmic(a) }},
		{"cubic", ddsketch.NewCubicMapping},
		{"linear", ddsketch.NewLinearMapping},
	} {
		m, err := tc.mapping(0.01)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(tc.name, func(b *testing.B) {
			sk, err := ddsketch.NewWithMapping(m, dense)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for n := 0; n < b.N; n += chunk {
				start := n & (1<<20 - 1)
				m := chunk
				if start+m > 1<<20 {
					m = 1<<20 - start
				}
				sk.InsertBatch(vals[start : start+m])
			}
		})
	}
}

// storeSketch is a sketch with a native batch insert, as every store
// arm of BenchmarkInsertStore is.
type storeSketch interface {
	sketch.Sketch
	sketch.BatchInserter
}

// BenchmarkInsertStore isolates the store cost under the default cubic
// mapping, batch and scalar paths: DDSketch's dense array vs
// buffered-paginated, and UDDSketch at the study's configuration over
// the paper's map vs a dense array — the store the paper blames for
// UDDSketch's slow inserts (Sec 4.4.1).
func BenchmarkInsertStore(b *testing.B) {
	const chunk = 256
	vals := paretoValues(1<<20, 11)
	udd := func(newSketch func(float64, int, int) (*uddsketch.Sketch, error)) func() storeSketch {
		return func() storeSketch {
			s, err := newSketch(core.UDDSketchAlpha, core.UDDSketchMaxBuckets, core.UDDSketchNumCollapses)
			if err != nil {
				b.Fatal(err)
			}
			return s
		}
	}
	builders := map[string]func() storeSketch{
		"dense":           func() storeSketch { return ddsketch.New(0.01) },
		"paginated":       func() storeSketch { return ddsketch.NewPaginated(0.01) },
		"uddsketch-map":   udd(uddsketch.NewWithBudget),
		"uddsketch-dense": udd(uddsketch.NewDenseWithBudget),
	}
	for _, name := range []string{"dense", "paginated", "uddsketch-map", "uddsketch-dense"} {
		builder := builders[name]
		b.Run(name+"/batch", func(b *testing.B) {
			sk := builder()
			b.ResetTimer()
			for n := 0; n < b.N; n += chunk {
				start := n & (1<<20 - 1)
				m := chunk
				if start+m > 1<<20 {
					m = 1<<20 - start
				}
				sk.InsertBatch(vals[start : start+m])
			}
		})
		b.Run(name+"/scalar", func(b *testing.B) {
			sk := builder()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sk.Insert(vals[i&(1<<20-1)])
			}
		})
	}
}

// BenchmarkInsertIndexer isolates UDDSketch's indexer cost: the
// bit-trick cubic indexer (default) vs the retained exact-log indexer,
// exercised through the batch kernel a collapse-free budget.
func BenchmarkInsertIndexer(b *testing.B) {
	const chunk = 256
	vals := paretoValues(1<<20, 11)
	run := func(b *testing.B, sk sketch.BatchInserter) {
		for n := 0; n < b.N; n += chunk {
			start := n & (1<<20 - 1)
			m := chunk
			if start+m > 1<<20 {
				m = 1<<20 - start
			}
			sk.InsertBatch(vals[start : start+m])
		}
	}
	b.Run("cubic", func(b *testing.B) {
		sk, err := uddsketch.NewChecked(0.01, 1<<20)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		run(b, sk)
	})
	b.Run("logarithmic", func(b *testing.B) {
		sk, err := uddsketch.NewChecked(0.01, 1<<20)
		if err != nil {
			b.Fatal(err)
		}
		sk.UseLegacyLogIndexer()
		b.ResetTimer()
		run(b, sk)
	})
}
