package req

import (
	"math"
	"testing"

	"repro/internal/sketch"
)

// corruptedBlob loads a 1000-item sketch, lets tamper break one of its
// structural invariants in memory, and serializes the result — a blob
// whose every field parses.
func corruptedBlob(t *testing.T, tamper func(s *Sketch)) []byte {
	t.Helper()
	s := NewWithSeed(DefaultSectionSize, true, 3)
	for i := 1; i <= 1000; i++ {
		s.Insert(float64(i))
	}
	tamper(s)
	blob, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

func wantCorrupt(t *testing.T, blob []byte) {
	t.Helper()
	var d Sketch
	if err := d.UnmarshalBinary(blob); err != sketch.ErrCorrupt {
		t.Fatalf("decode: err = %v, want ErrCorrupt", err)
	}
}

// TestUnmarshalRejectsCountMismatch: a count that disagrees with the
// retained weight Σ|buf_h|·2^h used to decode and answer from it
// (count 5 over 1000 items gave Rank(500) = 100).
func TestUnmarshalRejectsCountMismatch(t *testing.T) {
	wantCorrupt(t, corruptedBlob(t, func(s *Sketch) { s.N = 5 }))
}

// TestUnmarshalRejectsNaNSample: no inserted value is NaN, so a NaN
// sample can only come from a corrupt blob.
func TestUnmarshalRejectsNaNSample(t *testing.T) {
	wantCorrupt(t, corruptedBlob(t, func(s *Sketch) {
		s.Levels[0].Items[0] = float32(math.NaN())
	}))
}

// TestUnmarshalRejectsUnorderedBounds: a non-empty sketch has min ≤ max.
func TestUnmarshalRejectsUnorderedBounds(t *testing.T) {
	wantCorrupt(t, corruptedBlob(t, func(s *Sketch) { s.Min, s.Max = s.Max, s.Min }))
}

// TestUnmarshalRejectsWeightOverflow: two items at height 63 weigh 2^64,
// which wraps a plain uint64 sum to 0 and would match a count of 0.
func TestUnmarshalRejectsWeightOverflow(t *testing.T) {
	wantCorrupt(t, corruptedBlob(t, func(s *Sketch) {
		for len(s.compactors) < 64 {
			s.addLevel(s.k)
		}
		for h := range s.Levels {
			s.Levels[h].Items = s.Levels[h].Items[:0]
		}
		s.Levels[63].Items = []float32{1, 2}
		s.N = 0
	}))
}
