package sketch_test

import (
	"math"
	"testing"

	"repro/internal/ddsketch"
	"repro/internal/moments"
	"repro/internal/sketch"
	"repro/internal/uddsketch"
)

// bulkSketch is a sketch whose Insert delegates to its O(1) weighted
// InsertN, with that method reached through the concrete type.
type bulkSketch struct {
	name    string
	mk      func() sketch.Sketch
	insertN func(sk sketch.Sketch, x float64, n uint64)
}

// bulkSketches lists the sketches with an InsertN.
func bulkSketches(t *testing.T) []bulkSketch {
	t.Helper()
	return []bulkSketch{
		{"ddsketch", func() sketch.Sketch { return ddsketch.New(0.01) },
			func(sk sketch.Sketch, x float64, n uint64) { sk.(*ddsketch.Sketch).InsertN(x, n) }},
		{"uddsketch", func() sketch.Sketch {
			s, err := uddsketch.NewChecked(0.01, 1024)
			if err != nil {
				t.Fatal(err)
			}
			return s
		}, func(sk sketch.Sketch, x float64, n uint64) { sk.(*uddsketch.Sketch).InsertN(x, n) }},
		{"moments", func() sketch.Sketch { return moments.New(10) },
			func(sk sketch.Sketch, x float64, n uint64) { sk.(*moments.Sketch).InsertN(x, n) }},
	}
}

// InsertN(x, n) must be equivalent to n Insert(x) calls.
func TestBulkInsertEquivalence(t *testing.T) {
	values := []struct {
		x float64
		n uint64
	}{{10, 1000}, {42.5, 500}, {999, 2500}, {3.3, 1}, {77, 7}}
	for _, bs := range bulkSketches(t) {
		t.Run(bs.name, func(t *testing.T) {
			bulk, loop := bs.mk(), bs.mk()
			var total uint64
			for _, v := range values {
				bs.insertN(bulk, v.x, v.n)
				for i := uint64(0); i < v.n; i++ {
					loop.Insert(v.x)
				}
				total += v.n
			}
			if bulk.Count() != total || loop.Count() != total {
				t.Fatalf("counts: bulk %d loop %d want %d", bulk.Count(), loop.Count(), total)
			}
			switch bs.name {
			case "moments":
				// Five point masses are infeasible for the max-entropy
				// solver (the paper's minimum-cardinality caveat), so
				// compare the accumulated power sums instead of queries;
				// they differ only by summation rounding.
				ps1 := bulk.(*moments.Sketch).PowerSums()
				ps2 := loop.(*moments.Sketch).PowerSums()
				for i := range ps1 {
					if math.Abs(ps1[i]-ps2[i]) > 1e-9*(1+math.Abs(ps2[i])) {
						t.Errorf("power sum %d: bulk %v vs loop %v", i, ps1[i], ps2[i])
					}
				}
			default:
				for _, q := range []float64{0.1, 0.5, 0.9, 0.99} {
					a, err1 := bulk.Quantile(q)
					b, err2 := loop.Quantile(q)
					if err1 != nil || err2 != nil {
						t.Fatalf("q=%v: %v / %v", q, err1, err2)
					}
					if a != b {
						t.Errorf("q=%v: bulk %v vs loop %v", q, a, b)
					}
				}
			}
		})
	}
}

// InsertN with n=0 or NaN must be a no-op.
func TestBulkInsertNoOps(t *testing.T) {
	for _, bs := range bulkSketches(t) {
		sk := bs.mk()
		bs.insertN(sk, 5, 0)
		bs.insertN(sk, math.NaN(), 10)
		if sk.Count() != 0 {
			t.Errorf("%s: count %d after no-op inserts", bs.name, sk.Count())
		}
	}
}
