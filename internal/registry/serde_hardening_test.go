package registry

import (
	"bytes"
	"errors"
	"runtime"
	"testing"

	"repro/internal/sketch"
)

// prefill puts a decode-target receiver into a distinctive non-empty
// state (different fill than the blob under decode, so silent partial
// decoding would be visible).
func prefill(s sketch.Sketch) {
	for i := 0; i < 64; i++ {
		s.Insert(float64(i%7) + 0.5)
	}
}

// mustMarshal serializes or fails the test.
func mustMarshal(t *testing.T, name string, s sketch.Sketch) []byte {
	t.Helper()
	blob, err := s.MarshalBinary()
	if err != nil {
		t.Fatalf("%s: MarshalBinary: %v", name, err)
	}
	return blob
}

// tryDecode runs UnmarshalBinary converting any panic into a test
// failure, and reports whether the decode returned an error.
func tryDecode(t *testing.T, name, kind string, s sketch.Sketch, data []byte) (failed bool) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("%s: decoder panicked on %s input: %v", name, kind, r)
		}
	}()
	return s.UnmarshalBinary(data) != nil
}

// stride thins a sweep over n positions to at most limit probes.
func stride(n, limit int) int {
	s := n/limit + 1
	if s < 1 {
		s = 1
	}
	return s
}

// TestHardenedDecoderContract is the registry-wide corruption
// containment contract, the decoder-side half of the checkpoint
// recovery guarantee: for every sketch, truncated input must produce an
// error (never a panic), and a decode that errors must leave the
// receiver observably unchanged — its serialized state, count and
// median are the same before and after. Bit-flipped input additionally
// must never panic, and must obey the same unchanged-on-error rule
// (a flip the format cannot detect may decode "successfully"; the
// checkpoint envelope's CRC32-C exists precisely to catch those).
func TestHardenedDecoderContract(t *testing.T) {
	for _, e := range Entries() {
		if !e.Serde {
			continue
		}
		e := e
		t.Run(e.Name, func(t *testing.T) {
			src := e.New()
			fill(src, 500)
			blob := mustMarshal(t, e.Name, src)

			check := func(kind string, data []byte) {
				recv := e.New()
				prefill(recv)
				before := mustMarshal(t, e.Name, recv)
				cntBefore := recv.Count()
				if !tryDecode(t, e.Name, kind, recv, data) {
					if kind == "truncated" {
						t.Fatalf("%s: decoder accepted %s input (%d of %d bytes)", e.Name, kind, len(data), len(blob))
					}
					return // undetectable bit flip decoded; envelope CRC covers this
				}
				if recv.Count() != cntBefore {
					t.Fatalf("%s: failed decode of %s input moved Count %d → %d", e.Name, kind, cntBefore, recv.Count())
				}
				after := mustMarshal(t, e.Name, recv)
				if !bytes.Equal(before, after) {
					t.Fatalf("%s: failed decode of %s input mutated the receiver", e.Name, kind)
				}
			}

			for n := 0; n < len(blob); n += stride(len(blob), 512) {
				check("truncated", blob[:n])
			}
			for i := 0; i < len(blob); i += stride(len(blob), 256) {
				flipped := make([]byte, len(blob))
				copy(flipped, blob)
				flipped[i] ^= 0x10
				check("bit-flipped", flipped)
			}
		})
	}
}

// TestResumeEquivalenceContract pins the exact-resume property the
// stream checkpoint relies on: decode a sketch's serialized state into
// a fresh instance, continue inserting the identical suffix into both,
// and the final serialized states must be byte-identical — including
// the randomized sketches, whose compaction RNG state round-trips
// through serde (SerdeVersion 2).
func TestResumeEquivalenceContract(t *testing.T) {
	for _, e := range Entries() {
		if !e.Serde {
			continue
		}
		e := e
		t.Run(e.Name, func(t *testing.T) {
			orig := e.New()
			fill(orig, 1000)
			blob := mustMarshal(t, e.Name, orig)

			resumed := e.New()
			if err := resumed.UnmarshalBinary(blob); err != nil {
				t.Fatalf("%s: decode: %v", e.Name, err)
			}
			// Same suffix into both; any RNG or buffer-state divergence
			// shows up in the serialized bytes.
			fill(orig, 3000)
			fill(resumed, 3000)
			a := mustMarshal(t, e.Name, orig)
			b := mustMarshal(t, e.Name, resumed)
			if !bytes.Equal(a, b) {
				t.Fatalf("%s: resumed sketch diverged from the original after identical suffix", e.Name)
			}
		})
	}
}

// wideUDDSketchEnvelope is a valid-looking UDDSketch envelope (α 0.01,
// 1,024-bucket budget, cubic indexer) holding one positive bucket at
// each of the indices ±2^26, a span of 2^27 slots.
func wideUDDSketchEnvelope() []byte {
	w := sketch.NewWriter(128)
	w.Header(sketch.TagUDDSketch)
	w.F64(0.01)
	w.U32(1024)
	w.U32(1 << 31) // collapse counter 0, cubic-indexer flag set
	w.I64(0)       // zeros
	w.I64(2)       // count
	w.F64(1e-300)  // min
	w.F64(1e300)   // max
	w.U32(2)
	w.I64(-(1 << 26))
	w.I64(1)
	w.I64(1 << 26)
	w.I64(1)
	w.U32(0) // no negative buckets
	return w.Bytes()
}

// TestUDDSketchWideSpanEnvelope pins how the two UDDSketch stores take
// an envelope whose buckets are far apart: the map store holds just its
// two buckets and accepts it, while the dense store, which would have to
// allocate the whole span (1 GiB here), refuses it with ErrCorrupt,
// allocates next to nothing, and is left as it was.
func TestUDDSketchWideSpanEnvelope(t *testing.T) {
	blob := wideUDDSketchEnvelope()
	for _, e := range Entries() {
		if e.Name != "uddsketch" && e.Name != "uddsketch-array" {
			continue
		}
		t.Run(e.Name, func(t *testing.T) {
			recv := e.New()
			prefill(recv)
			before := mustMarshal(t, e.Name, recv)
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			allocated := ms.TotalAlloc
			err := recv.UnmarshalBinary(blob)
			runtime.ReadMemStats(&ms)
			allocated = ms.TotalAlloc - allocated
			if e.Name == "uddsketch" {
				if err != nil {
					t.Fatalf("map store refused the envelope: %v", err)
				}
				if recv.Count() != 2 {
					t.Errorf("decoded count %d, want 2", recv.Count())
				}
				return
			}
			if !errors.Is(err, sketch.ErrCorrupt) {
				t.Fatalf("dense store decoded a 2^27-slot span: err %v", err)
			}
			if allocated > 1<<20 {
				t.Errorf("refused decode allocated %d bytes", allocated)
			}
			if !bytes.Equal(mustMarshal(t, e.Name, recv), before) {
				t.Error("refused decode mutated the receiver")
			}
		})
	}
}
