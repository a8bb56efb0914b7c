package datagen

import "math/rand/v2"

// The paper's synthetic accuracy workloads do not sample one fixed
// distribution: "we periodically sample the synthetic data generation
// parameters from normal distributions ... updated every millisecond"
// (Sec 4.1). At 50,000 events/s a millisecond is 50 events, so a drifting
// source re-parameterizes itself every ResampleEvery events.

// Drifting wraps one member of a distribution family and re-parameterizes
// it from freshly sampled parameters every ResampleEvery observations.
type Drifting struct {
	// ResampleEvery is the number of observations drawn from one parameter
	// set before re-sampling (50 ≙ 1 ms at the paper's 50k events/s).
	ResampleEvery int

	rng     *rand.Rand
	seedSrc uint64
	reseed  func(rng *rand.Rand, seed uint64)
	active  Source
	drawn   int
}

// NewDrifting returns a drifting source over the member active. reseed
// re-parameterizes active in place: it receives the parameter RNG (for
// drawing new distribution parameters) and a derived seed (for the
// member's own value stream), and must leave active drawing exactly what
// a member freshly built from those parameters and that seed would. It
// runs once here and then every `every` draws, so it must not allocate.
func NewDrifting(seed uint64, every int, active Source, reseed func(rng *rand.Rand, seed uint64)) *Drifting {
	if every < 1 {
		every = 1
	}
	d := &Drifting{
		ResampleEvery: every,
		rng:           NewRand(seed),
		seedSrc:       seed ^ 0xd1f7a9e3b5c80421,
		reseed:        reseed,
		active:        active,
	}
	d.resample()
	return d
}

func (d *Drifting) resample() {
	d.reseed(d.rng, SplitMix64(&d.seedSrc))
	d.drawn = 0
}

// Next implements Source.
func (d *Drifting) Next() float64 {
	if d.drawn >= d.ResampleEvery {
		d.resample()
	}
	d.drawn++
	return d.active.Next()
}

// NewDriftingPareto reproduces the paper's Pareto accuracy workload: shape
// α ~ N(1, 0.05) and scale Xm ~ N(1, 0.05), re-sampled every `every`
// observations. Parameters are clamped away from zero so the distribution
// stays well-defined under unlucky draws.
func NewDriftingPareto(seed uint64, every int) *Drifting {
	pcg := new(rand.PCG)
	p := &Pareto{rng: rand.New(pcg)}
	return NewDrifting(seed, every, p, func(rng *rand.Rand, s uint64) {
		p.Alpha = clampMin(1+0.05*rng.NormFloat64(), 0.5)
		p.Xm = clampMin(1+0.05*rng.NormFloat64(), 0.5)
		seedPCG(pcg, s)
	})
}

// NewDriftingUniform reproduces the paper's Uniform accuracy workload: the
// minimum ~ N(1000, 100) with a fixed width of 1000, re-sampled every
// `every` observations.
func NewDriftingUniform(seed uint64, every int) *Drifting {
	const width = 1000
	pcg := new(rand.PCG)
	u := &Uniform{rng: rand.New(pcg)}
	return NewDrifting(seed, every, u, func(rng *rand.Rand, s uint64) {
		u.Lo = clampMin(1000+100*rng.NormFloat64(), 1)
		u.Hi = u.Lo + width
		seedPCG(pcg, s)
	})
}

func clampMin(x, lo float64) float64 {
	if x < lo {
		return lo
	}
	return x
}
