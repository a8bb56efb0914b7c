package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"regexp"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"repro/internal/stats"
	"repro/internal/stream"
)

// benchmarkJSON is the part of BENCHMARK.json the tests compare with.
type benchmarkJSON struct {
	Command   []string `json:"command"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	b := loadBenchmarkJSON(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("workloads %v, catalog %v", names, workloadNames)
	}
	check := func(kind string, got []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, catalog %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), catalog %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}

func TestMetricNames(t *testing.T) {
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !valid.MatchString(d.name) {
			t.Errorf("metric name %q does not match [A-Za-z0-9_.-]+", d.name)
		}
		if !unit.MatchString(d.unit) {
			t.Errorf("metric %s: unit %q", d.name, d.unit)
		}
		if seen[d.name] {
			t.Errorf("metric %s listed twice", d.name)
		}
		seen[d.name] = true
	}
	for _, l := range layerOrder {
		if !seen[shareMetric(l)] {
			t.Errorf("layer %s has no %s metric", l, shareMetric(l))
		}
	}
}

// captureStdout runs f with os.Stdout redirected and returns what it
// printed.
func captureStdout(t *testing.T, f func() int) (string, int) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stdout
	os.Stdout = w
	done := make(chan []byte)
	go func() {
		data, _ := io.ReadAll(r)
		done <- data
	}()
	code := f()
	os.Stdout = old
	w.Close()
	return string(<-done), code
}

// TestTinyRunsPrintEveryMetric runs each workload at a tiny size in both
// modes and checks that the last line names every metric of
// BENCHMARK.json with its unit.
func TestTinyRunsPrintEveryMetric(t *testing.T) {
	b := loadBenchmarkJSON(t)
	for _, w := range workloadNames {
		for _, trace := range []string{"0", "1"} {
			out, code := captureStdout(t, func() int {
				return runMain([]string{"--workload", w, "--seed", "7", "--seconds", "1", "--trace", trace, "--tiny"})
			})
			if code != 0 {
				t.Fatalf("%s trace %s: exit %d\n%s", w, trace, code, out)
			}
			lines := strings.Split(strings.TrimSpace(out), "\n")
			var res resultLine
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace %s: last line: %v", w, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace %s: correct %v, %d/%d failed", w, trace, res.Correct, res.Failed, res.Attempted)
			}
			want := b.EndToEnd
			if trace == "1" {
				want = b.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace %s: %d metrics printed, want %d", w, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace %s: metric %s: got %+v, want unit %s", w, trace, m.Name, got, m.Unit)
				}
			}
			if trace == "1" {
				var sum float64
				for _, l := range layerOrder {
					sum += res.Metrics[shareMetric(l)].Value
				}
				if sum < 0.999 || sum > 1.001 {
					t.Errorf("%s: CPU shares sum to %v", w, sum)
				}
			}
		}
	}
}

// TestChecksCanFail shows each correctness check rejecting a bad input
// and accepting a good one.
func TestChecksCanFail(t *testing.T) {
	type tc struct {
		name     string
		good     func(*tally)
		bad      func(*tally)
		wantNote string
	}
	exact := stats.NewExactQuantiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	rel := func(est float64, lowerOnly bool) func(*tally) {
		return func(t *tally) { t.check(relBoundOK(exact, 0.5, est, 0.01, 0, lowerOnly), "relative bound") }
	}
	rank := func(est float64) func(*tally) {
		return func(t *tally) { t.check(rankBoundOK(exact, 0.5, est, 0.01), "rank bound") }
	}
	cases := []tc{
		{"stats identity",
			func(t *tally) {
				checkIdentity(t, stream.Stats{Generated: 10, Accepted: 7, DroppedLate: 2, ShedBudget: 1})
			},
			func(t *tally) { checkIdentity(t, stream.Stats{Generated: 10, Accepted: 7, DroppedLate: 2}) },
			"stats identity"},
		{"window order", func(t *tally) { checkOrder(t, 3, 3) }, func(t *tally) { checkOrder(t, 4, 3) }, "window order"},
		{"window count", func(t *tally) { checkWindowCount(t, 5, 5) }, func(t *tally) { checkWindowCount(t, 4, 5) }, "window count"},
		{"relative bound", rel(5.04, false), rel(5.2, false), "relative bound"},
		{"relative bound, degraded", rel(9, true), rel(4.9, true), "relative bound"},
		{"rank bound", rank(5), rank(7), "rank bound"},
		{"answers monotone",
			func(t *tally) { checkAnswers(t, "w", []float64{1, 2, 2}) },
			func(t *tally) { checkAnswers(t, "w", []float64{1, 3, 2}) },
			"non-decreasing"},
		{"shared count", func(t *tally) { checkSharedCount(t, 9, 9) }, func(t *tally) { checkSharedCount(t, 8, 9) }, "shared sketch count"},
		{"mid error", func(t *tally) { checkMidError(t, "ddsketch", 0.004, 0.01) }, func(t *tally) { checkMidError(t, "ddsketch", 0.02, 0.01) }, "exceeds alpha"},
		{"digest", func(t *tally) { checkDigest(t, 7, 7) }, func(t *tally) { checkDigest(t, 7, 8) }, "digest"},
	}
	for _, c := range cases {
		var good, bad tally
		c.good(&good)
		c.bad(&bad)
		if good.failed != 0 || good.attempted != 1 {
			t.Errorf("%s: good input: %d/%d failed %v", c.name, good.failed, good.attempted, good.notes)
		}
		if bad.failed != 1 || len(bad.notes) != 1 || !strings.Contains(bad.notes[0], c.wantNote) {
			t.Errorf("%s: bad input: %d/%d failed %v", c.name, bad.failed, bad.attempted, bad.notes)
		}
	}
}

// TestDecayWeights pins the oracle weights to the engine's pane ages.
func TestDecayWeights(t *testing.T) {
	r := stream.WindowResult{Start: 0, End: 4 * time.Second, PaneCounts: []int{1, 0, 2, 1}, Values: []float64{1, 2, 3, 4}}
	w := decayWeights(r, 0.5)
	want := []float64{0.22313016014842982, 0.6065306597126334, 0.6065306597126334, 1}
	for i := range want {
		if d := w[i] - want[i]; d > 1e-12 || d < -1e-12 {
			t.Fatalf("weights %v, want %v", w, want)
		}
	}
}

func TestAttribution(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		{[]string{"repro/internal/ddsketch.(*Sketch).Insert", "repro/internal/stream.(*seqSink).insert", "repro/internal/stream.(*runState).loop"}, layerSketch},
		{[]string{"runtime.mallocgc", "repro/internal/stream.(*runState).process"}, layerCoord},
		{[]string{"math.Exp", "repro/internal/datagen.(*Exponential).Next", "repro/internal/stream.(*ExponentialDelay).Delay", "repro/internal/stream.(*runState).loop"}, layerQueue},
		{[]string{"repro/internal/ddsketch.(*Sketch).MarshalBinary", "repro/internal/stream.sealPartial", "repro/internal/stream.(*runState).snapshot"}, layerCheckpoint},
		{[]string{"repro/internal/ddsketch.(*Sketch).QuantileAll", "repro/internal/sketch.Quantiles", "main.(*bench).engineRep.func1", "repro/internal/stream.(*runState).firePaned"}, layerSketch},
		{[]string{"repro/internal/ddsketch.(*Sketch).Clone", "repro/internal/stream.(*runState).cloneScaled", "repro/internal/stream.(*runState).firePaned"}, layerPanes},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, layerGC},
		{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule"}, layerOther},
		{nil, layerOther},
	}
	for _, c := range cases {
		if got := attribute(c.stack); got != c.want {
			t.Errorf("attribute(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}

// TestUncoveredSamplesLandInOther checks that samples no layer covers
// count toward other.cpu_share and that the shares sum to 1.
func TestUncoveredSamplesLandInOther(t *testing.T) {
	samples := []profileSample{
		{stack: []string{"repro/internal/kll.(*Sketch).Insert"}, weight: 3},
		{stack: []string{"syscall.Syscall", "os.(*File).Write"}, weight: 1},
		{stack: []string{"some/other/pkg.F"}, weight: 1},
		{stack: nil, weight: 1},
	}
	shares := cpuShares(samples)
	if shares[layerOther] != 0.5 || shares[layerSketch] != 0.5 {
		t.Errorf("shares %v: want other 0.5, sketch 0.5", shares)
	}
	var sum float64
	for _, l := range layerOrder {
		v, ok := shares[l]
		if !ok {
			t.Errorf("layer %s missing", l)
		}
		sum += v
	}
	if sum != 1 {
		t.Errorf("shares sum to %v", sum)
	}
	if s := cpuShares(nil); s[layerOther] != 1 {
		t.Errorf("no samples: other %v, want 1", s[layerOther])
	}
}

var spinSink float64

// TestParseCPUProfile decodes a real profile of this process.
func TestParseCPUProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("profiler busy:", err)
	}
	deadline := time.Now().Add(300 * time.Millisecond)
	for time.Now().Before(deadline) {
		for i := 0; i < 1000; i++ {
			spinSink += float64(i) * 1.0001
		}
	}
	pprof.StopCPUProfile()
	samples, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 {
		t.Fatal("no samples decoded")
	}
	found := false
	for _, s := range samples {
		if s.weight <= 0 {
			t.Fatalf("sample weight %v", s.weight)
		}
		for _, fn := range s.stack {
			if strings.Contains(fn, "TestParseCPUProfile") {
				found = true
			}
		}
	}
	if !found {
		t.Error("no sample has the test function on its stack")
	}
	if _, err := parseCPUProfile([]byte("not gzip")); err == nil {
		t.Error("garbage decoded without error")
	}
}

func TestSameHost(t *testing.T) {
	a := fingerprint{CPUModel: "x", NumCPU: 2, GOMAXPROCS: 2, GoVersion: "go1", OS: "linux", Arch: "amd64", ClockPairNS: 100}
	if why := sameHost(a, a); why != "" {
		t.Errorf("same host refused: %s", why)
	}
	b := a
	b.Commit = "other"
	if why := sameHost(a, b); why != "" {
		t.Errorf("a different commit refused: %s", why)
	}
	for _, mut := range []func(*fingerprint){
		func(f *fingerprint) { f.CPUModel = "y" },
		func(f *fingerprint) { f.NumCPU = 4 },
		func(f *fingerprint) { f.GOMAXPROCS = 1 },
		func(f *fingerprint) { f.GoVersion = "go2" },
		func(f *fingerprint) { f.ClockPairNS = 300 },
	} {
		c := a
		mut(&c)
		if sameHost(a, c) == "" {
			t.Errorf("host change %+v not refused", c)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if m := median(xs); m != 2.5 {
		t.Errorf("median %v", m)
	}
	if q := quantile(xs, 1); q != 4 {
		t.Errorf("max %v", q)
	}
	if xs[0] != 4 {
		t.Error("input reordered")
	}
	few := make([]float64, 999)
	if tailQuantile(few) != 0 {
		t.Error("p99 reported from fewer than 1000 samples")
	}
}
