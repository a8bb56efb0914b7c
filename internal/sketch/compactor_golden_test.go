package sketch_test

import (
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

// runCompactorScript drives one case over one stream and appends one
// line per step to out.
func runCompactorScript(t *testing.T, out *strings.Builder, c compactorCase, stream string, next func(int, *rand.Rand) float64) {
	t.Helper()
	rng := rand.New(rand.NewPCG(7, 11))
	i := 0
	values := func(n int) []float64 {
		xs := make([]float64, n)
		for j := range xs {
			xs[j] = next(i, rng)
			i++
		}
		return xs
	}
	s := c.build()
	record := func(step string) {
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
		fmt.Fprintf(out, "%s/%s %-12s bytes=%x mem=%d answers=%x fp=%d\n",
			c.name, stream, step, sha256.Sum256(blob), mem, h.Sum(nil)[:8], s.Footprint())
	}

	for _, x := range values(3000) {
		s.Insert(x)
	}
	record("insert")
	s.InsertBatch(values(7000))
	record("insertbatch")

	o := c.small()
	o.InsertBatch(values(4000))
	if err := s.Merge(o); err != nil {
		t.Fatal(err)
	}
	record("merge")

	if _, err := s.Degrade(); err != nil {
		t.Fatal(err)
	}
	record("degrade")
	s.ScaleCount(0.6)
	record("scalecount")
	o = c.small()
	o.InsertBatch(values(2500))
	if err := s.MergeScaled(o, 0.3); err != nil {
		t.Fatal(err)
	}
	record("mergescaled")

	s = c.clone(s)
	s.InsertBatch(values(1500))
	record("clone")

	blob, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	d := c.build()
	if err := d.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	s = d
	for _, x := range values(1200) {
		s.Insert(x)
	}
	record("roundtrip")
}
