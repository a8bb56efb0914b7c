package registry

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"repro/internal/sketch"
)

// fill inserts a small deterministic positive stream (SplitMix64-derived
// uniforms in (0, 1000)) so contract checks run against non-empty state.
func fill(s sketch.Sketch, n int) {
	state := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < n; i++ {
		state += 0x9e3779b97f4a7c15
		z := state
		z ^= z >> 30
		z *= 0xbf58476d1ce4e5b9
		z ^= z >> 27
		z *= 0x94d049bb133111eb
		z ^= z >> 31
		u := float64(z>>11) / (1 << 53)
		s.Insert(1e-3 + u*1000)
	}
}

func TestRegistryNamesUniqueAndFresh(t *testing.T) {
	seen := make(map[string]bool)
	for _, e := range Entries() {
		if seen[e.Name] {
			t.Errorf("duplicate registry name %q", e.Name)
		}
		seen[e.Name] = true
		a, b := e.New(), e.New()
		if a.Count() != 0 || b.Count() != 0 {
			t.Errorf("%s: builder returned non-empty sketch", e.Name)
		}
		fill(a, 100)
		if a.Count() == 0 {
			t.Errorf("%s: Count stayed 0 after 100 inserts", e.Name)
		}
		if b.Count() != 0 {
			t.Errorf("%s: builders share state: filling one changed the other", e.Name)
		}
	}
}

// TestQuantileNaNContract pins the shared API contract: a NaN quantile
// argument is invalid for every sketch, empty or not, and must surface
// as ErrInvalidQuantile rather than a garbage estimate.
func TestQuantileNaNContract(t *testing.T) {
	for _, e := range Entries() {
		s := e.New()
		fill(s, 200)
		if _, err := s.Quantile(math.NaN()); !errors.Is(err, sketch.ErrInvalidQuantile) {
			t.Errorf("%s: Quantile(NaN) = %v, want ErrInvalidQuantile", e.Name, err)
		}
		if _, err := s.Quantile(-0.5); !errors.Is(err, sketch.ErrInvalidQuantile) {
			t.Errorf("%s: Quantile(-0.5) = %v, want ErrInvalidQuantile", e.Name, err)
		}
		if _, err := s.Quantile(1.5); !errors.Is(err, sketch.ErrInvalidQuantile) {
			t.Errorf("%s: Quantile(1.5) = %v, want ErrInvalidQuantile", e.Name, err)
		}
	}
}

// TestRankNonFinite pins the Rank contract at the edges of the real
// line for every sketch: Rank(NaN) = Rank(−Inf) = 0, and every x at or
// above the largest inserted value, however large, ranks 1. Negative
// values sit in the stream so a NaN that slips through a sign test
// would pick up their weight. Each Rank call is checked on its own, so
// a panic is reported against the value that caused it.
func TestRankNonFinite(t *testing.T) {
	for _, e := range Entries() {
		s := e.New()
		for i := 1; i <= 1000; i++ {
			s.Insert(float64(i))
			if i <= 200 {
				s.Insert(-float64(i))
			}
		}
		cases := []struct {
			x, want float64
		}{
			{math.NaN(), 0},
			{math.Inf(-1), 0},
			{1000, 1},
			{1000.5, 1},
			{1e300, 1},
			{math.MaxFloat64, 1},
			{math.Inf(1), 1},
		}
		for _, c := range cases {
			func() {
				defer func() {
					if p := recover(); p != nil {
						t.Errorf("%s: Rank(%v) panicked: %v", e.Name, c.x, p)
					}
				}()
				got, err := s.Rank(c.x)
				if err != nil || got != c.want {
					t.Errorf("%s: Rank(%v) = %v, %v; want %v", e.Name, c.x, got, err, c.want)
				}
			}()
		}
	}
}

// TestInsertNaNContract pins the documented ingest policy: NaN is not a
// value, so Insert(NaN) is ignored — the count must not move and
// subsequent queries must not be poisoned.
func TestInsertNaNContract(t *testing.T) {
	for _, e := range Entries() {
		s := e.New()
		fill(s, 200)
		before := s.Count()
		q50Before, err := s.Quantile(0.5)
		if err != nil {
			t.Fatalf("%s: Quantile(0.5): %v", e.Name, err)
		}
		s.Insert(math.NaN())
		if got := s.Count(); got != before {
			t.Errorf("%s: Insert(NaN) moved count %d -> %d", e.Name, before, got)
		}
		q50After, err := s.Quantile(0.5)
		if err != nil {
			t.Errorf("%s: Quantile(0.5) after Insert(NaN): %v", e.Name, err)
			continue
		}
		if math.IsNaN(q50After) || math.Float64bits(q50After) != math.Float64bits(q50Before) {
			t.Errorf("%s: Insert(NaN) changed Quantile(0.5) %v -> %v", e.Name, q50Before, q50After)
		}
	}
}

// TestSerdeRoundTripContract checks that marshal → unmarshal → marshal is
// lossless and stable for a populated sketch of every registered kind.
func TestSerdeRoundTripContract(t *testing.T) {
	for _, e := range Entries() {
		if !e.Serde {
			continue
		}
		s := e.New()
		fill(s, 500)
		blob, err := s.MarshalBinary()
		if err != nil {
			t.Fatalf("%s: MarshalBinary: %v", e.Name, err)
		}
		restored := e.New()
		if err := restored.UnmarshalBinary(blob); err != nil {
			t.Fatalf("%s: UnmarshalBinary: %v", e.Name, err)
		}
		if restored.Count() != s.Count() {
			t.Errorf("%s: round trip changed count %d -> %d", e.Name, s.Count(), restored.Count())
		}
		blob2, err := restored.MarshalBinary()
		if err != nil {
			t.Fatalf("%s: re-MarshalBinary: %v", e.Name, err)
		}
		if !bytes.Equal(blob, blob2) {
			t.Errorf("%s: encoding is not stable across a round trip", e.Name)
		}
		for _, q := range []float64{0.01, 0.5, 0.99} {
			want, err1 := s.Quantile(q)
			got, err2 := restored.Quantile(q)
			if err1 != nil || err2 != nil {
				t.Errorf("%s: Quantile(%v) errs: %v, %v", e.Name, q, err1, err2)
				continue
			}
			if math.Float64bits(want) != math.Float64bits(got) {
				t.Errorf("%s: round trip changed Quantile(%v) %v -> %v", e.Name, q, want, got)
			}
		}
	}
}
