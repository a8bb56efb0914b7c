package datagen

import (
	"math"
	"math/rand/v2"
	"sort"
)

// Source produces an endless stream of float64 observations. All sources
// in this package are deterministic functions of their seed.
type Source interface {
	// Next returns the next observation.
	Next() float64
}

// SourceFunc adapts a function to the Source interface.
type SourceFunc func() float64

// Next implements Source.
func (f SourceFunc) Next() float64 { return f() }

// Take draws n values from src into a new slice.
func Take(src Source, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = src.Next()
	}
	return out
}

// Uniform samples U(lo, hi).
type Uniform struct {
	Lo, Hi float64
	rng    *rand.Rand
}

// NewUniform returns a uniform source over [lo, hi).
func NewUniform(lo, hi float64, seed uint64) *Uniform {
	return &Uniform{Lo: lo, Hi: hi, rng: NewRand(seed)}
}

// Next implements Source.
func (u *Uniform) Next() float64 { return u.Lo + (u.Hi-u.Lo)*u.rng.Float64() }

// Pareto samples the Pareto distribution with shape Alpha and scale Xm:
// P(X > x) = (Xm/x)^Alpha for x ≥ Xm. With Alpha = 1 (the paper's speed
// workload) the distribution has an extremely long tail and infinite mean.
type Pareto struct {
	Alpha, Xm float64
	rng       *rand.Rand
}

// NewPareto returns a Pareto source.
func NewPareto(alpha, xm float64, seed uint64) *Pareto {
	return &Pareto{Alpha: alpha, Xm: xm, rng: NewRand(seed)}
}

// Next implements Source.
//
//sketch:hotpath
func (p *Pareto) Next() float64 {
	// Inverse-CDF sampling; 1-U avoids a zero argument.
	u := 1 - p.rng.Float64()
	return p.Xm / unitPow(u, 1/p.Alpha)
}

// unitPow returns math.Pow(u, y), bit for bit, for u in [2⁻⁵³, 1]: the
// values 1 - rand.Float64() takes. On y in (0.5, 1.5], which holds
// every shape the drifting workload draws (α ~ N(1, 0.05)), it performs
// exactly the operations math.Pow's general path does and skips the
// rest; elsewhere it calls math.Pow.
//
// Why it is bit-identical on that domain. For such u and y, Pow passes
// every special case (u is finite and positive, y is neither 0 nor
// ±0.5, and y = 1 or u = 1 is caught below) and splits y with Modf
// into yi + yf. For y in (0.5, 1) that is 0 + y, and yf > 0.5 turns it
// into 1 + (y-1); for y in [1, 1.5] it is 1 + (y-1) directly. Either
// way yi = 1 and yf = y-1, and y-1 is exact by Sterbenz's lemma (y/2 ≤
// 1 ≤ 2y), so Pow's fraction factor is a = Exp((y-1)·Log(u)), the very
// expression below. With yi = 1 its squaring loop runs once: Frexp
// splits u = m·2ᵉ (m in [0.5, 1)), a becomes a·m, and Pow returns
// Ldexp(a·m, e). Now |y-1| ≤ 0.5 and u ≥ 2⁻⁵³ keep a within
// [2⁻²⁷, 2²⁷], so both a·m and a·u are normal and scaling by 2ᵉ is
// exact: Ldexp(a·m, e) rounds exactly as a·u does. When y = 1, Pow
// returns u, and here Log(u) ≤ 0 makes the argument -0 (or +0 at
// u = 1), Exp returns exactly 1 and the product is u; when u = 1, Pow
// returns 1, and here Log(1) = 0 gives Exp(±0)·1 = 1. Both paths call
// the same math.Exp and math.Log, and no multiply here feeds an add,
// so no fused multiply-add can round differently. TestParetoPow and
// FuzzParetoPow check the identity against math.Pow.
func unitPow(u, y float64) float64 {
	if y > 0.5 && y <= 1.5 {
		return math.Exp((y-1)*math.Log(u)) * u
	}
	return math.Pow(u, y)
}

// Normal samples N(Mu, Sigma²).
type Normal struct {
	Mu, Sigma float64
	rng       *rand.Rand
}

// NewNormal returns a normal source.
func NewNormal(mu, sigma float64, seed uint64) *Normal {
	return &Normal{Mu: mu, Sigma: sigma, rng: NewRand(seed)}
}

// Next implements Source.
func (n *Normal) Next() float64 { return n.Mu + n.Sigma*n.rng.NormFloat64() }

// Exponential samples Exp with the given mean.
type Exponential struct {
	Mean float64
	rng  *rand.Rand
}

// NewExponential returns an exponential source.
func NewExponential(mean float64, seed uint64) *Exponential {
	return &Exponential{Mean: mean, rng: NewRand(seed)}
}

// Next implements Source.
func (e *Exponential) Next() float64 { return e.Mean * e.rng.ExpFloat64() }

// Gamma samples the gamma distribution with the given Shape (k) and Scale
// (θ) using the Marsaglia–Tsang squeeze method. Its excess kurtosis is
// 6/Shape, which the kurtosis experiment (Fig 7) exploits to sweep tail
// weight.
type Gamma struct {
	Shape, Scale float64
	rng          *rand.Rand
}

// NewGamma returns a gamma source; shape and scale must be positive.
func NewGamma(shape, scale float64, seed uint64) *Gamma {
	if shape <= 0 || scale <= 0 {
		panic("datagen: gamma shape and scale must be positive")
	}
	return &Gamma{Shape: shape, Scale: scale, rng: NewRand(seed)}
}

// Next implements Source.
func (g *Gamma) Next() float64 { return g.Scale * gammaSample(g.rng, g.Shape) }

func gammaSample(rng *rand.Rand, shape float64) float64 {
	if shape < 1 {
		// Boost: Gamma(k) = Gamma(k+1) · U^(1/k).
		u := rng.Float64()
		return gammaSample(rng, shape+1) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := rng.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := rng.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

// LogNormal samples exp(N(Mu, Sigma²)).
type LogNormal struct {
	Mu, Sigma float64
	rng       *rand.Rand
}

// NewLogNormal returns a lognormal source.
func NewLogNormal(mu, sigma float64, seed uint64) *LogNormal {
	return &LogNormal{Mu: mu, Sigma: sigma, rng: NewRand(seed)}
}

// Next implements Source.
func (l *LogNormal) Next() float64 {
	return math.Exp(l.Mu + l.Sigma*l.rng.NormFloat64())
}

// Binomial samples the discrete Binomial(N, P) distribution. The paper
// uses Binomial(100, 0.2) for merge-speed sketches and Binomial(30, 0.4)
// for the adaptability workload; at these sizes direct simulation of N
// Bernoulli trials is exact and fast enough.
type Binomial struct {
	N   int
	P   float64
	rng *rand.Rand
}

// NewBinomial returns a binomial source.
func NewBinomial(n int, p float64, seed uint64) *Binomial {
	return &Binomial{N: n, P: p, rng: NewRand(seed)}
}

// Next implements Source.
func (b *Binomial) Next() float64 {
	k := 0
	for i := 0; i < b.N; i++ {
		if b.rng.Float64() < b.P {
			k++
		}
	}
	return float64(k)
}

// Zipf samples from a finite Zipf distribution over the values 1..N with
// exponent S: P(k) ∝ 1/k^S. Unlike math/rand's Zipf it supports exponents
// below 1, which the paper's merge workload needs (20 elements, s = 0.6).
type Zipf struct {
	cdf []float64
	rng *rand.Rand
}

// NewZipf returns a finite Zipf source over 1..n.
func NewZipf(n int, s float64, seed uint64) *Zipf {
	if n < 1 {
		panic("datagen: zipf needs n >= 1")
	}
	cdf := make([]float64, n)
	var total float64
	for k := 1; k <= n; k++ {
		total += 1 / math.Pow(float64(k), s)
		cdf[k-1] = total
	}
	for i := range cdf {
		cdf[i] /= total
	}
	return &Zipf{cdf: cdf, rng: NewRand(seed)}
}

// Next implements Source.
func (z *Zipf) Next() float64 {
	u := z.rng.Float64()
	i := sort.SearchFloat64s(z.cdf, u)
	return float64(i + 1)
}

// Mixture draws from one of its component sources with the configured
// probabilities. Weights are normalized at construction.
type Mixture struct {
	cdf     []float64
	sources []Source
	rng     *rand.Rand
}

// NewMixture builds a mixture of sources with the given weights.
func NewMixture(seed uint64, weights []float64, sources ...Source) *Mixture {
	if len(weights) != len(sources) || len(sources) == 0 {
		panic("datagen: mixture weights/sources mismatch")
	}
	cdf := make([]float64, len(weights))
	var total float64
	for i, w := range weights {
		if w < 0 {
			panic("datagen: negative mixture weight")
		}
		total += w
		cdf[i] = total
	}
	for i := range cdf {
		cdf[i] /= total
	}
	return &Mixture{cdf: cdf, sources: sources, rng: NewRand(seed)}
}

// Next implements Source.
func (m *Mixture) Next() float64 {
	u := m.rng.Float64()
	i := sort.SearchFloat64s(m.cdf, u)
	if i >= len(m.sources) {
		i = len(m.sources) - 1
	}
	return m.sources[i].Next()
}

// Constant always returns V; used for point masses inside mixtures.
type Constant struct{ V float64 }

// Next implements Source.
func (c Constant) Next() float64 { return c.V }

// Concat exhausts each source for its configured count before moving to
// the next; it builds the adaptability workload's hard distribution switch.
type Concat struct {
	counts  []int
	sources []Source
	idx     int
	used    int
}

// NewConcat returns a source yielding counts[i] values from sources[i] in
// order, then repeating the final source forever.
func NewConcat(counts []int, sources ...Source) *Concat {
	if len(counts) != len(sources) || len(sources) == 0 {
		panic("datagen: concat counts/sources mismatch")
	}
	return &Concat{counts: counts, sources: sources}
}

// Next implements Source.
func (c *Concat) Next() float64 {
	for c.idx < len(c.sources)-1 && c.used >= c.counts[c.idx] {
		c.idx++
		c.used = 0
	}
	c.used++
	return c.sources[c.idx].Next()
}

// Quantize rounds the wrapped source's output to multiples of step,
// creating the repeated discrete values that characterize real-world
// metering data.
type Quantize struct {
	Src  Source
	Step float64
}

// Next implements Source.
func (q Quantize) Next() float64 {
	return math.Round(q.Src.Next()/q.Step) * q.Step
}

// Clamp limits the wrapped source's output to [Lo, Hi].
type Clamp struct {
	Src    Source
	Lo, Hi float64
}

// Next implements Source.
func (c Clamp) Next() float64 {
	x := c.Src.Next()
	if x < c.Lo {
		return c.Lo
	}
	if x > c.Hi {
		return c.Hi
	}
	return x
}
