package harness

import (
	"bytes"
	"errors"
	"math"
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sketch"
)

// testRegistry is live for the whole harness test package (sketch
// packages wired via core.EnableMetrics, engines via Options.Metrics),
// so determinism guarantees like TestEvalWorkersDeterminism are proven
// to hold with metrics ENABLED, not just on the nil fast path.
var testRegistry *obs.Registry

func TestMain(m *testing.M) {
	testRegistry = obs.NewRegistry()
	core.EnableMetrics(testRegistry)
	os.Exit(m.Run())
}

func tinyOpts() Options {
	o := DefaultOptions(0.01)
	o.Runs = 2
	o.Metrics = testRegistry
	return o
}

func TestRegistryComplete(t *testing.T) {
	// Every paper artifact must be registered.
	want := []string{
		"table3", "fig4", "fig5a", "fig5b", "fig5c", "fig6", "fig7",
		"fig8", "late", "winsize", "table4", "related",
		"ablation-store", "ablation-hra", "ablation-mapping", "ablation-grid", "ablation-deletion", "ablation-partitions", "ablation-logmoments", "ablation-uddstore", "related2",
	}
	for _, id := range want {
		if _, ok := Get(id); !ok {
			t.Errorf("experiment %s not registered", id)
		}
	}
	if len(Experiments()) != len(want) {
		t.Errorf("registry has %d experiments, want %d", len(Experiments()), len(want))
	}
	// Sorted and unique.
	exps := Experiments()
	for i := 1; i < len(exps); i++ {
		if exps[i].ID <= exps[i-1].ID {
			t.Error("Experiments() not sorted")
		}
	}
}

func TestTableRender(t *testing.T) {
	tbl := Table{
		Title:   "T",
		Headers: []string{"a", "bb"},
		Rows:    [][]string{{"1", "2"}, {"333", "4"}},
		Notes:   []string{"n1"},
	}
	out := tbl.Render()
	for _, want := range []string{"T\n", "a", "bb", "333", "note: n1"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	csv := tbl.CSV()
	if !strings.HasPrefix(csv, "a,bb\n1,2\n") {
		t.Errorf("csv = %q", csv)
	}
}

func TestOptionsScaling(t *testing.T) {
	o := DefaultOptions(0.1)
	if got := o.scaled(1000); got != 100 {
		t.Errorf("scaled(1000) = %d", got)
	}
	if got := o.scaled(1); got != 1 {
		t.Errorf("scaled(1) = %d, floor is 1", got)
	}
	if got := o.scaledRuns(); got < 2 {
		t.Errorf("scaledRuns = %d, floor is 2", got)
	}
	o.Scale = 1
	if got := o.scaled(1000); got != 1000 {
		t.Errorf("unit scale changed size: %d", got)
	}
}

// Each experiment must run end-to-end at tiny scale and produce
// non-empty tables. This is the integration test of the whole repo:
// generators → sketches → stream engine → evaluation → rendering.
func TestExperimentsRunTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("integration sweep")
	}
	// winsize is fig6 × 3 window sizes; covered separately below at an
	// even smaller setting to bound runtime.
	for _, id := range []string{"table3", "fig4", "fig5a", "fig5b", "fig5c", "fig6", "fig7", "fig8", "late", "table4", "related", "ablation-store", "ablation-hra"} {
		id := id
		t.Run(id, func(t *testing.T) {
			e, _ := Get(id)
			opts := tinyOpts()
			if id == "fig5a" || id == "fig5b" {
				opts.Scale = 0.0005
			}
			tables, err := e.Run(opts)
			if err != nil {
				t.Fatal(err)
			}
			if len(tables) == 0 {
				t.Fatal("no tables")
			}
			for _, tbl := range tables {
				if len(tbl.Headers) == 0 || len(tbl.Rows) == 0 {
					t.Errorf("table %q is empty", tbl.Title)
				}
				for _, row := range tbl.Rows {
					if len(row) != len(tbl.Headers) {
						t.Errorf("table %q: row width %d != header width %d", tbl.Title, len(row), len(tbl.Headers))
					}
				}
			}
		})
	}
}

func TestWinsizeTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("integration sweep")
	}
	e, _ := Get("winsize")
	o := tinyOpts()
	o.Scale = 0.004
	tables, err := e.Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 4 {
		t.Fatalf("winsize produced %d tables, want 4 datasets", len(tables))
	}
}

func TestMultiSketchFanOut(t *testing.T) {
	builders, err := core.BuildersForDataset("uniform", 1)
	if err != nil {
		t.Fatal(err)
	}
	mb := newMultiBuilder(core.AlgorithmNames(), builders)
	m := mb().(*multiSketch)
	for i := 1; i <= 1000; i++ {
		m.Insert(float64(i))
	}
	if m.Count() != 1000 {
		t.Fatalf("count = %d", m.Count())
	}
	for _, alg := range core.AlgorithmNames() {
		c := m.child(alg)
		if c.Count() != 1000 {
			t.Errorf("%s child count = %d", alg, c.Count())
		}
		v, err := c.Quantile(0.5)
		if err != nil {
			t.Errorf("%s: %v", alg, err)
		}
		if v < 400 || v > 600 {
			t.Errorf("%s median = %v", alg, v)
		}
	}
	// Merging multi sketches merges every child.
	m2 := mb().(*multiSketch)
	for i := 1001; i <= 2000; i++ {
		m2.Insert(float64(i))
	}
	if err := m.Merge(m2); err != nil {
		t.Fatal(err)
	}
	if m.Count() != 2000 {
		t.Errorf("merged count = %d", m.Count())
	}
	// The multiplexer itself is query-opaque.
	if _, err := m.Quantile(0.5); err == nil {
		t.Error("multiplexer Quantile should fail")
	}
	var foreign sketch.Sketch = mb()
	_ = foreign
	if err := m.Merge(builders["kll"]()); err == nil {
		t.Error("merging a non-multi sketch should fail")
	}
}

// TestMultiSketchSerde pins the multiplexer wire format the harness's
// checkpointed runs persist: a round-trip restores every child
// bit-identically, and corrupt input errors without touching the
// receiver.
func TestMultiSketchSerde(t *testing.T) {
	builders, err := core.BuildersForDataset("uniform", 7)
	if err != nil {
		t.Fatal(err)
	}
	mb := newMultiBuilder(core.AlgorithmNames(), builders)
	m := mb().(*multiSketch)
	for i := 1; i <= 5000; i++ {
		m.Insert(float64(i % 997))
	}
	blob, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	back := mb().(*multiSketch)
	if err := back.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	if back.Count() != m.Count() {
		t.Fatalf("round-trip count %d, want %d", back.Count(), m.Count())
	}
	blob2, err := back.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if string(blob) != string(blob2) {
		t.Error("round-trip is not bit-identical")
	}
	for _, alg := range core.AlgorithmNames() {
		a, _ := m.child(alg).Quantile(0.9)
		b, _ := back.child(alg).Quantile(0.9)
		if a != b {
			t.Errorf("%s child diverged after round-trip: %v vs %v", alg, a, b)
		}
	}
	// Corrupt input must error and leave the receiver unchanged.
	recv := mb().(*multiSketch)
	recv.Insert(42)
	before, _ := recv.MarshalBinary()
	for _, bad := range [][]byte{blob[:len(blob)/2], blob[:3], nil, append([]byte{0xFF}, blob[1:]...)} {
		if err := recv.UnmarshalBinary(bad); err == nil {
			t.Error("corrupt multi blob decoded")
		}
	}
	after, _ := recv.MarshalBinary()
	if string(before) != string(after) {
		t.Error("failed decode mutated the receiver")
	}
}

// TestMultiSketchMergeScaled extends the fused scaled merge contract
// (TestMergeScaledEquivalence in internal/sketch) to the multiplexer:
// forwarding MergeScaled to every child leaves the receiver
// byte-identical to the clone → ScaleCount → Merge reference and the
// source untouched, for empty and loaded receivers and every clamp
// region of g.
func TestMultiSketchMergeScaled(t *testing.T) {
	builders, err := core.BuildersForDataset("uniform", 7)
	if err != nil {
		t.Fatal(err)
	}
	mb := newMultiBuilder(core.AlgorithmNames(), builders)
	// load holds negatives and zeros as well as positives.
	load := func(n, x0 int) sketch.Sketch {
		m := mb()
		for i := 0; i < n; i++ {
			m.Insert(float64((i*37+x0)%997 - 100))
		}
		return m
	}
	marshal := func(s sketch.Sketch) []byte {
		blob, err := s.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	for _, g := range []float64{math.NaN(), -1, 0, 1e-9, 0.3, 0.5, 0.999, 1, 2} {
		for _, recvN := range []int{0, 2000} {
			o := load(5000, 1)
			before := marshal(o)
			got := load(recvN, 5)
			if err := got.(sketch.CountScaler).MergeScaled(o, g); err != nil {
				t.Fatalf("g=%v: %v", g, err)
			}
			if !bytes.Equal(marshal(o), before) {
				t.Errorf("g=%v receiver %d: MergeScaled modified the source", g, recvN)
			}
			want := load(recvN, 5)
			clone := mb()
			if err := clone.UnmarshalBinary(before); err != nil {
				t.Fatal(err)
			}
			clone.(sketch.CountScaler).ScaleCount(g)
			if err := want.Merge(clone); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(marshal(got), marshal(want)) {
				t.Errorf("g=%v receiver %d: MergeScaled differs from clone, ScaleCount, Merge", g, recvN)
			}
		}
	}
	if err := mb().(sketch.CountScaler).MergeScaled(builders["kll"](), 0.5); err == nil {
		t.Error("scaled merge of a non-multi sketch should fail")
	}
}

// TestMultiSketchMergeRejectsMismatch: children pair by index, so a
// multiplexer over a different algorithm list must be refused rather
// than merged child by child into the wrong algorithms.
func TestMultiSketchMergeRejectsMismatch(t *testing.T) {
	builders, err := core.BuildersForDataset("uniform", 1)
	if err != nil {
		t.Fatal(err)
	}
	algs := core.AlgorithmNames()
	m := newMultiBuilder(algs, builders)()
	shorter := newMultiBuilder(algs[1:], builders)()
	rev := slices.Clone(algs)
	slices.Reverse(rev)
	reversed := newMultiBuilder(rev, builders)()
	for name, o := range map[string]sketch.Sketch{"shorter": shorter, "reordered": reversed} {
		if err := m.Merge(o); !errors.Is(err, sketch.ErrIncompatible) {
			t.Errorf("%s: Merge = %v, want ErrIncompatible", name, err)
		}
		if err := m.(sketch.CountScaler).MergeScaled(o, 0.5); !errors.Is(err, sketch.ErrIncompatible) {
			t.Errorf("%s: MergeScaled = %v, want ErrIncompatible", name, err)
		}
	}
}

// TestAccuracyRejectsNoWindows: a run with no measured window has no
// error sample, and would otherwise render every sketch's error as a
// perfect 0.
func TestAccuracyRejectsNoWindows(t *testing.T) {
	for _, windows := range []int{0, -1} {
		opts := tinyOpts()
		opts.Windows = windows
		if _, err := RunAccuracy(opts, "uniform"); err == nil {
			t.Errorf("Windows=%d: RunAccuracy succeeded, want an error", windows)
		}
	}
}

func TestFmtHelpers(t *testing.T) {
	if got := fmtDur(500); got != "500.0 ns" {
		t.Errorf("fmtDur(500ns) = %q", got)
	}
	if got := fmtDur(1500); !strings.Contains(got, "µs") {
		t.Errorf("fmtDur(1.5µs) = %q", got)
	}
	if got := fmtDur(2_500_000); !strings.Contains(got, "ms") {
		t.Errorf("fmtDur(2.5ms) = %q", got)
	}
	if got := fmtDur(2_500_000_000); !strings.Contains(got, "s") {
		t.Errorf("fmtDur(2.5s) = %q", got)
	}
	if got := fmtErr(0.123456); got != "0.12346" {
		t.Errorf("fmtErr = %q", got)
	}
	if got := fmtErrCI(0.1, 0.01); got != "0.10000 ±0.01000" {
		t.Errorf("fmtErrCI = %q", got)
	}
}

func TestHashStringStable(t *testing.T) {
	if hashString("pareto") != hashString("pareto") {
		t.Error("hash not deterministic")
	}
	if hashString("pareto") == hashString("uniform") {
		t.Error("hash collision on dataset names")
	}
}
