package datagen

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"
)

// TestDatasetGolden pins the exact value stream of every NewDataset
// source: FNV-64a over the little-endian Float64bits of the first
// 200,000 values at seed 12345. A change to a generator, its seeding or
// its drift schedule moves every digest, answer and archived result
// downstream, so it has to show up here as a deliberate re-bless.
func TestDatasetGolden(t *testing.T) {
	want := map[string]string{
		DatasetPareto:  "bf1ec87611fed6d3",
		DatasetUniform: "eebe3f90e6330dec",
		DatasetNYT:     "5c05166928be0379",
		DatasetPower:   "11a19744ff0dc159",
	}
	for _, name := range DatasetNames() {
		src, err := NewDataset(name, 12345)
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		var buf [8]byte
		for range 200_000 {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(src.Next()))
			h.Write(buf[:])
		}
		if got := fmt.Sprintf("%016x", h.Sum64()); got != want[name] {
			t.Errorf("%s: stream digest %s, want %s", name, got, want[name])
		}
	}
}

// TestDriftingResampleAllocs pins the in-place reseed: a drifting source
// re-parameterizes its one member every ResampleEvery draws without
// allocating. Each measured call spans 200 draws, four resamples at the
// paper's period, because AllocsPerRun rounds its average down and one
// allocating resample per call would otherwise still read 0.
func TestDriftingResampleAllocs(t *testing.T) {
	for name, src := range map[string]Source{
		"pareto":  NewDriftingPareto(3, ResampleEveryAt50k),
		"uniform": NewDriftingUniform(3, ResampleEveryAt50k),
	} {
		avg := testing.AllocsPerRun(100, func() {
			for range 200 {
				src.Next()
			}
		})
		if avg != 0 {
			t.Errorf("%s: %v allocations per 200 draws, want 0", name, avg)
		}
	}
}
