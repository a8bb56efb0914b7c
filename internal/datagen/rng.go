// Package datagen generates the study's synthetic workloads: the Pareto
// and Uniform streams with drifting parameters (paper Sec 4.1), the
// distributions used by the speed experiments (uniform, binomial, Zipf),
// the adaptability workload (binomial → uniform switch, Sec 4.5.7), and
// synthetic stand-ins for the two real-world data sets (NYT taxi fares and
// UCI household power) whose defining statistics the paper reports.
//
// Every source is deterministic given its seed, so experiment runs are
// reproducible; the harness derives per-run seeds with SplitMix64.
package datagen

import "math/rand/v2"

// SplitMix64 advances the classic splitmix64 generator one step and
// returns the next value. It is used to derive independent, well-mixed
// seeds for sub-streams (per-run, per-partition) from a single root seed.
func SplitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// NewRand returns a deterministic PCG-backed generator for seed.
func NewRand(seed uint64) *rand.Rand {
	pcg := new(rand.PCG)
	seedPCG(pcg, seed)
	return rand.New(pcg)
}

// seedPCG puts pcg in the state NewRand(seed) starts from. math/rand/v2's
// Rand keeps no state beside its source, so a Rand over a reseeded PCG
// draws exactly the stream of a freshly built one.
func seedPCG(pcg *rand.PCG, seed uint64) {
	s := seed
	a := SplitMix64(&s)
	b := SplitMix64(&s)
	pcg.Seed(a, b)
}

// DeriveSeed returns the i-th derived seed from root, suitable for seeding
// an independent sub-stream.
func DeriveSeed(root uint64, i int) uint64 {
	s := root
	var v uint64
	for k := 0; k <= i; k++ {
		v = SplitMix64(&s)
	}
	return v
}
