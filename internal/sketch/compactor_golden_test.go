package sketch_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/kll"
	"repro/internal/req"
	"repro/internal/sketch"
)

// compactorSketch is the surface the byte-golden script drives: KLL and
// ReqSketch both offer every step of it.
type compactorSketch interface {
	sketch.Sketch
	sketch.BatchInserter
	sketch.CountScaler
	sketch.Degrader
	sketch.Footprinter
}

// compactorCase builds the sketch under test (seed 1) and a smaller-k
// merge operand of the same family.
type compactorCase struct {
	name  string
	build func() compactorSketch
	small func() compactorSketch
	clone func(compactorSketch) compactorSketch
}

func compactorCases() []compactorCase {
	kllClone := func(s compactorSketch) compactorSketch { return s.(*kll.Sketch).Clone() }
	reqClone := func(s compactorSketch) compactorSketch { return s.(*req.Sketch).Clone() }
	cases := []compactorCase{{
		name:  "kll",
		build: func() compactorSketch { return kll.NewWithSeed(100, 1) },
		small: func() compactorSketch { return kll.NewWithSeed(40, 2) },
		clone: kllClone,
	}}
	for _, hra := range []bool{true, false} {
		mode := map[bool]string{true: "hra", false: "lra"}[hra]
		cases = append(cases, compactorCase{
			name:  "req-" + mode,
			build: func() compactorSketch { return req.NewWithSeed(16, hra, 1) },
			small: func() compactorSketch { return req.NewWithSeed(8, hra, 2) },
			clone: reqClone,
		})
	}
	return cases
}

// compactorStreams are the value orders the script feeds: ascending,
// descending, random with ties and both signs, and one holding both
// zeros, whose order inside a level is the one thing sorting may
// change (−0 and +0 compare equal).
var compactorStreams = []struct {
	name string
	next func(i int, rng *rand.Rand) float64
}{
	{"sorted", func(i int, _ *rand.Rand) float64 { return float64(i)*0.37 - 500 }},
	{"reverse", func(i int, _ *rand.Rand) float64 { return 1e4 - float64(i)*1.3 }},
	{"random", func(_ int, rng *rand.Rand) float64 {
		if rng.IntN(3) == 0 {
			return float64(rng.IntN(40) - 10)
		}
		return rng.NormFloat64() * 1e3
	}},
	{"zeros", func(_ int, rng *rand.Rand) float64 {
		switch rng.IntN(4) {
		case 0:
			return math.Copysign(0, -1)
		case 1:
			return 0
		case 2:
			return float64(rng.IntN(5) - 2)
		default:
			return rng.Float64() - 0.5
		}
	}},
}

// TestCompactorBytesGolden runs one fixed, seeded script per sketch
// (KLL, and ReqSketch in both accuracy modes) over each stream, and
// after every step checks the SHA-256 of MarshalBinary, MemoryBytes,
// the bits of a few quantile answers and then Footprint (which counts
// the query view the answers built) against
// testdata/compactor_golden.txt. It ties the serialized state, the
// answers and the space accounting of both samplers to committed
// values, so a refactor of their compaction code must stay
// bit-identical. A change that moves them on purpose re-blesses with
//
//	UPDATE_GOLDEN=1 go test ./internal/sketch -run TestCompactorBytesGolden
func TestCompactorBytesGolden(t *testing.T) {
	var got strings.Builder
	for _, c := range compactorCases() {
		for _, st := range compactorStreams {
			runCompactorScript(t, &got, c, st.name, st.next)
		}
	}
	path := filepath.Join("testdata", "compactor_golden.txt")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (set UPDATE_GOLDEN=1 to write it)", err)
	}
	gotLines := strings.Split(got.String(), "\n")
	wantLines := strings.Split(string(want), "\n")
	for i := range max(len(gotLines), len(wantLines)) {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Errorf("line %d:\n got  %s\n want %s", i+1, g, w)
		}
	}
}

// compactorStep is one step of the byte-golden script: it draws n
// values and returns the sketch to continue with (a clone or a decoded
// copy replaces the one it was given).
type compactorStep struct {
	name string
	n    int
	run  func(t *testing.T, c compactorCase, s compactorSketch, xs []float64) compactorSketch
}

// compactorScript is the byte-golden script: scalar and batch inserts,
// a merge with a smaller k, Degrade, ScaleCount, MergeScaled, a deep
// Clone and a serialization round trip, each continued by inserts.
var compactorScript = []compactorStep{
	{"insert", 3000, func(_ *testing.T, _ compactorCase, s compactorSketch, xs []float64) compactorSketch {
		for _, x := range xs {
			s.Insert(x)
		}
		return s
	}},
	{"insertbatch", 7000, func(_ *testing.T, _ compactorCase, s compactorSketch, xs []float64) compactorSketch {
		s.InsertBatch(xs)
		return s
	}},
	{"merge", 4000, func(t *testing.T, c compactorCase, s compactorSketch, xs []float64) compactorSketch {
		o := c.small()
		o.InsertBatch(xs)
		if err := s.Merge(o); err != nil {
			t.Fatal(err)
		}
		return s
	}},
	{"degrade", 0, func(t *testing.T, _ compactorCase, s compactorSketch, _ []float64) compactorSketch {
		if _, err := s.Degrade(); err != nil {
			t.Fatal(err)
		}
		return s
	}},
	{"scalecount", 0, func(_ *testing.T, _ compactorCase, s compactorSketch, _ []float64) compactorSketch {
		s.ScaleCount(0.6)
		return s
	}},
	{"mergescaled", 2500, func(t *testing.T, c compactorCase, s compactorSketch, xs []float64) compactorSketch {
		o := c.small()
		o.InsertBatch(xs)
		if err := s.MergeScaled(o, 0.3); err != nil {
			t.Fatal(err)
		}
		return s
	}},
	{"clone", 1500, func(_ *testing.T, c compactorCase, s compactorSketch, xs []float64) compactorSketch {
		s = c.clone(s)
		s.InsertBatch(xs)
		return s
	}},
	{"roundtrip", 1200, func(t *testing.T, c compactorCase, s compactorSketch, xs []float64) compactorSketch {
		blob, err := s.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		d := c.build()
		if err := d.UnmarshalBinary(blob); err != nil {
			t.Fatal(err)
		}
		for _, x := range xs {
			d.Insert(x)
		}
		return d
	}},
}

// compactorInputs draws every step's values from one stream, in script
// order.
func compactorInputs(next func(int, *rand.Rand) float64) [][]float64 {
	rng := rand.New(rand.NewPCG(7, 11))
	i := 0
	inputs := make([][]float64, len(compactorScript))
	for j, step := range compactorScript {
		xs := make([]float64, step.n)
		for k := range xs {
			xs[k] = next(i, rng)
			i++
		}
		inputs[j] = xs
	}
	return inputs
}

// compactorState is one line of the golden: the SHA-256 of
// MarshalBinary, MemoryBytes and a hash of a few quantile and rank
// answers. The query view the answers build is Footprint's to count.
func compactorState(t *testing.T, s compactorSketch) string {
	t.Helper()
	blob, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	mem := s.MemoryBytes()
	h := sha256.New()
	for _, q := range []float64{0.001, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
		v, err := s.Quantile(q)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)))
	}
	for _, x := range []float64{-1, 0, 0.25, 1, 100} {
		r, err := s.Rank(x)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(r)))
	}
	return fmt.Sprintf("bytes=%x mem=%d answers=%x", sha256.Sum256(blob), mem, h.Sum(nil)[:8])
}

// runCompactorScript drives one case over one stream and appends one
// line per step to out.
func runCompactorScript(t *testing.T, out *strings.Builder, c compactorCase, stream string, next func(int, *rand.Rand) float64) {
	t.Helper()
	inputs := compactorInputs(next)
	s := c.build()
	for j, step := range compactorScript {
		s = step.run(t, c, s, inputs[j])
		state := compactorState(t, s)
		fmt.Fprintf(out, "%s/%s %-12s %s fp=%d\n", c.name, stream, step.name, state, s.Footprint())
	}
}

// TestKLLShareCloneMatchesClone runs the byte-golden script on every
// stream and, after each step, continues a ShareClone and a deep Clone
// of the sketch through the rest of the script. After every later step
// the two must serialize and answer identically (Footprint may differ:
// a level copied on first write gets its own headroom), and once both
// are done the sketch they were cloned from must still hold its bytes:
// the sharing copy wrote none of the arrays it borrowed.
func TestKLLShareCloneMatchesClone(t *testing.T) {
	c := compactorCases()[0] // kll
	share := func(s compactorSketch) compactorSketch { return s.(*kll.Sketch).ShareClone() }
	for _, st := range compactorStreams {
		inputs := compactorInputs(st.next)
		src := c.build()
		for j, step := range compactorScript {
			src = step.run(t, c, src, inputs[j])
			want, err := src.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			shared, deep := share(src), c.clone(src)
			for k := j + 1; k < len(compactorScript); k++ {
				shared = compactorScript[k].run(t, c, shared, inputs[k])
				deep = compactorScript[k].run(t, c, deep, inputs[k])
				if g, w := compactorState(t, shared), compactorState(t, deep); g != w {
					t.Fatalf("%s: shared after %s, then %s:\n got  %s\n want %s",
						st.name, step.name, compactorScript[k].name, g, w)
				}
			}
			got, err := src.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: the source's bytes after %s moved while its ShareClone ran on", st.name, step.name)
			}
		}
	}
}
