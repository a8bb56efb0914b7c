package uddsketch

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/sketch"
)

// diffQs is the quantile grid the map-vs-dense differential queries.
var diffQs = []float64{1e-4, 0.001, 0.01, 0.05, 0.1, 0.25, 0.4, 0.5, 0.6, 0.75, 0.9, 0.95, 0.99, 0.999, 1}

// diffValues draws n values over a wide range that forces collapse
// cascades at small budgets, mixing in negatives, exact zeros, values
// below the indexable minimum, and NaNs.
func diffValues(n int, seed uint64) []float64 {
	rng := rand.New(rand.NewPCG(seed, 0xd1ff))
	xs := make([]float64, n)
	for i := range xs {
		x := math.Exp(rng.Float64()*60 - 30)
		switch rng.IntN(20) {
		case 0, 1, 2, 3, 4:
			x = -x
		case 5:
			x = 0
		case 6:
			x = 1e-310 // subnormal: counted with the zeros
		case 7:
			if i%7 == 0 {
				x = math.NaN()
			}
		}
		xs[i] = x
	}
	return xs
}

// requireAgree fails unless the map-store sketch m and the dense-store
// sketch d are the same sketch: identical envelope bytes, and
// bit-identical answers from every query.
func requireAgree(t *testing.T, tag string, m, d *Sketch) {
	t.Helper()
	if m.dense() || !d.dense() {
		t.Fatalf("%s: store kinds changed: map sketch dense=%v, dense sketch dense=%v", tag, m.dense(), d.dense())
	}
	if !bytes.Equal(marshal(t, m), marshal(t, d)) {
		t.Fatalf("%s: envelopes differ (count %d/%d, collapses %d/%d, buckets %d/%d)",
			tag, m.Count(), d.Count(), m.Collapses(), d.Collapses(), m.NonEmptyBuckets(), d.NonEmptyBuckets())
	}
	if m.NonEmptyBuckets() != d.NonEmptyBuckets() || math.Float64bits(m.Alpha()) != math.Float64bits(d.Alpha()) {
		t.Fatalf("%s: buckets %d/%d, alpha %v/%v", tag, m.NonEmptyBuckets(), d.NonEmptyBuckets(), m.Alpha(), d.Alpha())
	}
	if m.Count() == 0 {
		return
	}
	am, err1 := m.QuantileAll(diffQs)
	ad, err2 := d.QuantileAll(diffQs)
	if err1 != nil || err2 != nil {
		t.Fatalf("%s: QuantileAll: %v / %v", tag, err1, err2)
	}
	for k, q := range diffQs {
		qm, err1 := m.Quantile(q)
		qd, err2 := d.Quantile(q)
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: Quantile(%v): %v / %v", tag, q, err1, err2)
		}
		if math.Float64bits(qm) != math.Float64bits(qd) || math.Float64bits(am[k]) != math.Float64bits(ad[k]) {
			t.Fatalf("%s: q=%v: map %v (all %v), dense %v (all %v)", tag, q, qm, am[k], qd, ad[k])
		}
	}
	for _, x := range []float64{-1e12, -3, -1e-9, 0, 1e-9, 0.5, 1, 7, 1e12, math.NaN()} {
		rm, err1 := m.Rank(x)
		rd, err2 := d.Rank(x)
		if err1 != nil || err2 != nil || math.Float64bits(rm) != math.Float64bits(rd) {
			t.Fatalf("%s: Rank(%v): map %v (%v), dense %v (%v)", tag, x, rm, err1, rd, err2)
		}
	}
}

// pair builds the same sketch over both stores.
func pair(budget int, legacy bool) (m, d *Sketch) {
	m, d = build(false, 0.001, budget), build(true, 0.001, budget)
	if legacy {
		m.UseLegacyLogIndexer()
		d.UseLegacyLogIndexer()
	}
	return m, d
}

// TestMapDenseDifferential pins the dense store to the paper's map: on
// every operation the two stores must give the same sketch — the same
// envelope bytes and bit-identical answers — for both indexers.
func TestMapDenseDifferential(t *testing.T) {
	for _, legacy := range []bool{false, true} {
		t.Run(fmt.Sprintf("legacy=%v", legacy), func(t *testing.T) { testMapDenseDifferential(t, legacy) })
	}
}

func testMapDenseDifferential(t *testing.T, legacy bool) {
	const budget = 96
	xs := diffValues(40_000, 1)

	// Scalar inserts, InsertN, and the batch kernel, through collapse
	// cascades: all four builds are one sketch.
	m, d := pair(budget, legacy)
	mb, db := pair(budget, legacy)
	for i, x := range xs {
		if i%500 == 0 {
			m.InsertN(x, 3)
			d.InsertN(x, 3)
			mb.InsertN(x, 3)
			db.InsertN(x, 3)
			continue
		}
		m.Insert(x)
		d.Insert(x)
	}
	for i := 0; i < len(xs); i += 256 {
		chunk := xs[i:min(i+256, len(xs))]
		var kept []float64
		for j, x := range chunk {
			if (i+j)%500 != 0 {
				kept = append(kept, x)
			}
		}
		mb.InsertBatch(kept)
		db.InsertBatch(kept)
	}
	if m.Collapses() < 5 {
		t.Fatalf("only %d collapses: the stream does not cascade", m.Collapses())
	}
	requireAgree(t, "scalar", m, d)
	requireAgree(t, "batch", mb, db)
	requireAgree(t, "batch vs scalar", m, db)

	// Merges across collapse levels, in both directions, within each
	// store and across stores: a narrow, less collapsed sketch and the
	// wide one above.
	narrow := func(dense bool) *Sketch {
		s := build(dense, 0.001, budget)
		if legacy {
			s.UseLegacyLogIndexer()
		}
		for _, x := range diffValues(3_000, 2) {
			s.Insert(1 + math.Abs(x)*1e-12)
		}
		s.Insert(-2)
		s.Insert(0)
		return s
	}
	nm, nd := narrow(false), narrow(true)
	if nm.Collapses() >= m.Collapses() {
		t.Fatalf("narrow sketch has %d collapses, wide %d: no level gap", nm.Collapses(), m.Collapses())
	}
	for _, dir := range []struct {
		name string
		recv func(dense bool) *Sketch
		arg  func(dense bool) *Sketch
	}{
		{"wide<-narrow", func(dense bool) *Sketch { return refClone(pick(dense, m, d)) }, func(dense bool) *Sketch { return pick(dense, nm, nd) }},
		{"narrow<-wide", func(dense bool) *Sketch { return refClone(pick(dense, nm, nd)) }, func(dense bool) *Sketch { return pick(dense, m, d) }},
	} {
		rm, rd := dir.recv(false), dir.recv(true)
		if err := rm.Merge(dir.arg(false)); err != nil {
			t.Fatal(err)
		}
		if err := rd.Merge(dir.arg(true)); err != nil {
			t.Fatal(err)
		}
		requireAgree(t, "merge "+dir.name, rm, rd)
		xm, xd := dir.recv(false), dir.recv(true)
		if err := xm.Merge(dir.arg(true)); err != nil {
			t.Fatal(err)
		}
		if err := xd.Merge(dir.arg(false)); err != nil {
			t.Fatal(err)
		}
		requireAgree(t, "cross-store merge "+dir.name, xm, xd)
		requireAgree(t, "cross-store vs same-store merge "+dir.name, xm, rd)
		// A dense receiver is handed a map's buckets in index order, so
		// it ends with the array a dense argument leaves.
		if xd.MemoryBytes() != rd.MemoryBytes() {
			t.Fatalf("merge %s: dense receiver holds %d bytes after a map argument, %d after a dense one", dir.name, xd.MemoryBytes(), rd.MemoryBytes())
		}

		for _, g := range []float64{0.37, 1e-3} {
			sm, sd := dir.recv(false), dir.recv(true)
			if err := sm.MergeScaled(dir.arg(false), g); err != nil {
				t.Fatal(err)
			}
			if err := sd.MergeScaled(dir.arg(true), g); err != nil {
				t.Fatal(err)
			}
			requireAgree(t, fmt.Sprintf("MergeScaled(%v) %s", g, dir.name), sm, sd)
		}
	}

	// An empty dense receiver takes its whole layout from the merge, so
	// it must come out the same whichever store it is handed.
	for trial := 0; trial < 8; trial++ {
		fromMap, fromDense := build(true, 0.001, budget), build(true, 0.001, budget)
		if legacy {
			fromMap.UseLegacyLogIndexer()
			fromDense.UseLegacyLogIndexer()
		}
		if err := fromMap.Merge(m); err != nil {
			t.Fatal(err)
		}
		if err := fromDense.Merge(d); err != nil {
			t.Fatal(err)
		}
		if fromMap.MemoryBytes() != fromDense.MemoryBytes() || !bytes.Equal(marshal(t, fromMap), marshal(t, fromDense)) {
			t.Fatalf("empty dense receiver: %d bytes after a map argument, %d after a dense one", fromMap.MemoryBytes(), fromDense.MemoryBytes())
		}
	}

	// ScaleCount, then Degrade until it refuses.
	cm, cd := refClone(m), refClone(d)
	cm.ScaleCount(0.3)
	cd.ScaleCount(0.3)
	requireAgree(t, "ScaleCount", cm, cd)
	for step := 0; ; step++ {
		_, errM := cm.Degrade()
		_, errD := cd.Degrade()
		if (errM == nil) != (errD == nil) {
			t.Fatalf("Degrade step %d: map %v, dense %v", step, errM, errD)
		}
		if errM != nil {
			if !errors.Is(errM, sketch.ErrNotDegradable) || !errors.Is(errD, sketch.ErrNotDegradable) {
				t.Fatalf("Degrade step %d: %v / %v", step, errM, errD)
			}
			break
		}
		requireAgree(t, fmt.Sprintf("Degrade step %d", step), cm, cd)
	}

	// Serde: each store decodes the other's envelope into its own kind,
	// and the decoded sketches resume like the originals.
	blob := marshal(t, m)
	fromDense, fromMap := build(false, 0.5, 4), build(true, 0.5, 4)
	if err := fromDense.UnmarshalBinary(marshal(t, d)); err != nil {
		t.Fatal(err)
	}
	if err := fromMap.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	requireAgree(t, "decoded", fromDense, fromMap)
	if err := fromMap.UnmarshalBinary(blob[:len(blob)-5]); err == nil {
		t.Error("dense store accepted a truncated envelope")
	}
	suffix := diffValues(5_000, 3)
	for _, s := range []*Sketch{m, d, fromDense, fromMap} {
		s.InsertBatch(suffix)
	}
	requireAgree(t, "resumed", fromDense, fromMap)
	requireAgree(t, "resumed vs uninterrupted", fromDense, d)
	requireAgree(t, "uninterrupted", m, d)

	m.Reset()
	d.Reset()
	requireAgree(t, "reset", m, d)
}

// pick returns d for the dense store and m for the map.
func pick(dense bool, m, d *Sketch) *Sketch {
	if dense {
		return d
	}
	return m
}

// The study's configuration over both stores: the same collapses, the
// same guarantee and the same quantiles on a positive stream, as the
// ablation compares them.
func TestDenseMatchesMapAtStudyConfig(t *testing.T) {
	m := buildWithBudget(t, false, 0.01, 512, 12)
	d := buildWithBudget(t, true, 0.01, 512, 12)
	rng := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 200000; i++ {
		x := math.Exp(rng.Float64()*20 - 10)
		m.Insert(x)
		d.Insert(x)
	}
	if m.Collapses() == 0 {
		t.Fatal("no collapse forced")
	}
	requireAgree(t, "study config", m, d)
}
