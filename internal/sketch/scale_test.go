package sketch_test

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/ddsketch"
	"repro/internal/invariant"
	"repro/internal/kll"
	"repro/internal/moments"
	"repro/internal/req"
	"repro/internal/sketch"
	"repro/internal/uddsketch"
)

// scalerBuilders returns an empty-sketch builder for every CountScaler
// implementation (all five study sketches, DDSketch in each of its
// store layouts). Seeded builders keep the KLL/REQ coin flips
// reproducible so byte comparisons are meaningful.
func scalerBuilders(t *testing.T) map[string]func() sketch.Sketch {
	t.Helper()
	return map[string]func() sketch.Sketch{
		"kll": func() sketch.Sketch { return kll.NewWithSeed(128, 7) },
		"req": func() sketch.Sketch { return req.NewWithSeed(30, true, 7) },
		"ddsketch": func() sketch.Sketch {
			return ddsketch.New(0.01)
		},
		"ddsketch-collapsing": func() sketch.Sketch { return ddsketch.NewCollapsing(0.01, 256) },
		"ddsketch-paginated":  func() sketch.Sketch { return ddsketch.NewPaginated(0.01) },
		"uddsketch": func() sketch.Sketch {
			s, err := uddsketch.NewWithBudget(0.01, 1024, 12)
			if err != nil {
				t.Fatal(err)
			}
			return s
		},
		"moments": func() sketch.Sketch { return moments.New(8) },
	}
}

// feed inserts n values of a deterministic stream in [1, 1001) starting
// from x; mixed negates every third value and zeroes every seventh.
func feed(s sketch.Sketch, n int, x float64, mixed bool) {
	for i := 0; i < n; i++ {
		v := x
		if mixed && i%7 == 0 {
			v = 0
		} else if mixed && i%3 == 0 {
			v = -x
		}
		s.Insert(v)
		x = math.Mod(x*1.37+0.11, 1000) + 1
	}
}

// scalers builds one loaded instance of every CountScaler
// implementation, each fed the same deterministic positive stream.
func scalers(t *testing.T, n int) map[string]func() sketch.Sketch {
	t.Helper()
	out := map[string]func() sketch.Sketch{}
	for name, build := range scalerBuilders(t) {
		out[name] = func() sketch.Sketch {
			s := build()
			feed(s, n, 1, false)
			return s
		}
	}
	return out
}

// marshalSk serializes a sketch for byte comparison.
func marshalSk(t *testing.T, s sketch.Sketch) []byte {
	t.Helper()
	blob, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestScaleCountContract pins the shared CountScaler clamp contract on
// every implementation: g ≥ 1 and NaN are no-ops (decay weights only
// shrink), g ≤ 0 empties the sketch, and a genuine down-weight shrinks
// the count without corrupting the summary.
func TestScaleCountContract(t *testing.T) {
	for name, mk := range scalers(t, 5000) {
		t.Run(name, func(t *testing.T) {
			for _, g := range []float64{1, 1.5, math.NaN()} {
				s := mk()
				before := marshalSk(t, s)
				s.(sketch.CountScaler).ScaleCount(g)
				if !bytes.Equal(marshalSk(t, s), before) {
					t.Errorf("ScaleCount(%v) mutated the sketch, want no-op", g)
				}
			}
			for _, g := range []float64{0, -0.5} {
				s := mk()
				s.(sketch.CountScaler).ScaleCount(g)
				if c := s.Count(); c != 0 {
					t.Errorf("ScaleCount(%v) left count %d, want empty", g, c)
				}
			}
			s := mk()
			orig := s.Count()
			s.(sketch.CountScaler).ScaleCount(0.5)
			c := s.Count()
			if c == 0 || c >= orig {
				t.Fatalf("ScaleCount(0.5): count %d, want in (0, %d)", c, orig)
			}
			// Rounding slack: KLL/REQ re-place per level, the bucketed
			// sketches round per bucket, moments is exact.
			if lo, hi := orig/4, 3*orig/4; c < lo || c > hi {
				t.Errorf("ScaleCount(0.5): count %d outside the plausible band [%d, %d]", c, lo, hi)
			}
			// The summary stays queryable and inside the data range.
			med, err := s.Quantile(0.5)
			if err != nil {
				t.Fatalf("quantile after scale: %v", err)
			}
			if math.IsNaN(med) || med < 1 || med > 1001 {
				t.Errorf("median %v after scale outside the data range", med)
			}
		})
	}
}

// TestScaleCountDeterministic: scaling is a pure function of the prior
// state and g — two identical sketches scale to byte-identical states,
// an engine requirement (pane decay must replay bit-identically across
// crash recovery).
func TestScaleCountDeterministic(t *testing.T) {
	for name, mk := range scalers(t, 3000) {
		t.Run(name, func(t *testing.T) {
			a, b := mk(), mk()
			if !bytes.Equal(marshalSk(t, a), marshalSk(t, b)) {
				t.Fatal("identically built sketches differ before scaling")
			}
			for _, g := range []float64{0.8, 0.3, 0.05} {
				a.(sketch.CountScaler).ScaleCount(g)
				b.(sketch.CountScaler).ScaleCount(g)
				if !bytes.Equal(marshalSk(t, a), marshalSk(t, b)) {
					t.Fatalf("ScaleCount(%v) diverged across identical sketches", g)
				}
			}
		})
	}
}

// TestScaleCountMomentsExact: the Moments sketch is linear in the
// input multiset, so scaling is exact — the count scales to precisely
// round(g·n) with no structural loss, and repeated scaling composes
// multiplicatively.
func TestScaleCountMomentsExact(t *testing.T) {
	s := moments.New(8)
	for i := 1; i <= 1000; i++ {
		s.Insert(float64(i))
	}
	s.ScaleCount(0.5)
	if c := s.Count(); c != 500 {
		t.Fatalf("count %d after ScaleCount(0.5), want 500", c)
	}
	s.ScaleCount(0.5)
	if c := s.Count(); c != 250 {
		t.Fatalf("count %d after second ScaleCount(0.5), want 250", c)
	}
}

// loadMixed loads a sketch with the mixed-sign stream and then shrinks
// it by up to steps budget degradations (fewer where the sketch reaches
// its floor).
func loadMixed(build func() sketch.Sketch, n int, x float64, steps int) sketch.Sketch {
	s := build()
	feed(s, n, x, true)
	if d, ok := s.(sketch.Degrader); ok {
		for i := 0; i < steps; i++ {
			if _, err := d.Degrade(); err != nil {
				break
			}
		}
	}
	return s
}

// mergeScaledReference is the path MergeScaled replaces: clone src
// through a Marshal/Unmarshal round-trip into a fresh builder product,
// scale the clone and merge it into dst.
func mergeScaledReference(t *testing.T, dst, src sketch.Sketch, build func() sketch.Sketch, g float64) {
	t.Helper()
	clone := build()
	if err := clone.UnmarshalBinary(marshalSk(t, src)); err != nil {
		t.Fatal(err)
	}
	clone.(sketch.CountScaler).ScaleCount(g)
	if err := dst.Merge(clone); err != nil {
		t.Fatal(err)
	}
}

// TestMergeScaledEquivalence pins the fused scaled merge against the
// clone → ScaleCount → Merge reference on every CountScaler: the
// receiver ends byte-identical and the source is left untouched, for
// every clamp region of g (NaN, ≤ 0, whole panes rounding away at 1e-9,
// genuine down-weights, ≥ 1), empty and loaded receivers, and sources
// holding negatives and zeros or already shrunk by Degrade. The
// degraded receivers and sources put UDDSketch's collapse alignment on
// both sides of the merge.
func TestMergeScaledEquivalence(t *testing.T) {
	gs := []float64{math.NaN(), -1, 0, 1e-9, 0.3, 0.5, 0.999, 1, 2}
	for name, build := range scalerBuilders(t) {
		t.Run(name, func(t *testing.T) {
			sources := map[string]func() sketch.Sketch{
				"empty": build,
				"positive": func() sketch.Sketch {
					s := build()
					feed(s, 3000, 1, false)
					return s
				},
				"mixed":    func() sketch.Sketch { return loadMixed(build, 3000, 1, 0) },
				"degraded": func() sketch.Sketch { return loadMixed(build, 3000, 1, 2) },
			}
			receivers := map[string]func() sketch.Sketch{
				"empty": build,
				"loaded": func() sketch.Sketch {
					s := build()
					feed(s, 3000, 3.3, false)
					return s
				},
				"degraded": func() sketch.Sketch { return loadMixed(build, 3000, 3.3, 4) },
			}
			for sn, src := range sources {
				for rn, recv := range receivers {
					for _, g := range gs {
						o := src()
						before := marshalSk(t, o)
						got := recv()
						if err := got.(sketch.CountScaler).MergeScaled(o, g); err != nil {
							t.Fatalf("%s into %s, g=%v: %v", sn, rn, g, err)
						}
						if !bytes.Equal(marshalSk(t, o), before) {
							t.Errorf("%s into %s, g=%v: MergeScaled modified the source", sn, rn, g)
						}
						want := recv()
						mergeScaledReference(t, want, o, build, g)
						if !bytes.Equal(marshalSk(t, got), marshalSk(t, want)) {
							t.Errorf("%s into %s, g=%v: MergeScaled differs from clone, ScaleCount, Merge", sn, rn, g)
						}
					}
				}
			}
		})
	}
}

// TestMergeScaledAllocs pins the fused forms allocation-free: once the
// receiver spans the source's buckets, a DDSketch (every store),
// UDDSketch or moments MergeScaled is pure arithmetic on existing
// state.
func TestMergeScaledAllocs(t *testing.T) {
	if invariant.Enabled {
		t.Skip("the armed build's merge assertions allocate")
	}
	builders := scalerBuilders(t)
	for _, name := range []string{"ddsketch", "ddsketch-collapsing", "ddsketch-paginated", "uddsketch", "moments"} {
		build := builders[name]
		o := loadMixed(build, 3000, 1, 0)
		r := loadMixed(build, 3000, 1, 0)
		cs := r.(sketch.CountScaler)
		if err := cs.MergeScaled(o, 0.5); err != nil {
			t.Fatal(err)
		}
		if avg := testing.AllocsPerRun(100, func() { _ = cs.MergeScaled(o, 0.5) }); avg != 0 {
			t.Errorf("%s: warm MergeScaled allocates %.1f times, want 0", name, avg)
		}
	}
}
