package maxent

import (
	"errors"
	"fmt"
	"math"
)

// Solver errors.
var (
	// ErrNoConvergence is returned when Newton iteration fails to reach
	// the gradient tolerance within the iteration budget.
	ErrNoConvergence = errors.New("maxent: Newton iteration did not converge")
	// ErrBadMoments is returned for non-finite or inconsistent target
	// moments.
	ErrBadMoments = errors.New("maxent: invalid target moments")
)

// DefaultGridSize matches the default quadrature grid of the reference
// Moments Sketch solver; the paper notes accuracy can be traded against
// query time through this parameter (Sec 4.5.5).
const DefaultGridSize = 1024

const (
	maxNewtonIters = 200
	gradTol        = 1e-9
	maxExpArg      = 350 // exp clamp to avoid overflow during line search
)

// Solver holds the precomputed quadrature grid and Chebyshev polynomial
// values needed to solve the max-entropy problem for k moments. It is
// reusable across queries and safe for sequential reuse.
type Solver struct {
	k        int
	gridSize int
	dt       float64
	grid     []float64   // midpoint quadrature nodes on [−1, 1]
	cheb     [][]float64 // cheb[i][g] = T_i(grid[g]), i < 2k−1

	// warm holds the multipliers of the last successful solve. Across
	// adjacent solves of one stream (a window boundary, or a handful of
	// new observations among many) the max-entropy solution moves very
	// little, so Newton restarted from it converges in a few iterations
	// where a cold start needs dozens. Empty until the first success.
	warm []float64
}

// NewSolver builds a solver for k Chebyshev moments (including c_0) on a
// quadrature grid of gridSize points. It panics if k < 2.
func NewSolver(k, gridSize int) *Solver {
	if k < 2 {
		panic(fmt.Sprintf("maxent: need k >= 2 moments, got %d", k))
	}
	if gridSize < 8 {
		gridSize = 8
	}
	s := &Solver{k: k, gridSize: gridSize, dt: 2 / float64(gridSize)}
	s.grid = make([]float64, gridSize)
	for g := range s.grid {
		s.grid[g] = -1 + (float64(g)+0.5)*s.dt
	}
	// T_i on the grid for i ≤ 2k−2 (the Hessian needs moments up to
	// order 2k−2 via the product identity).
	n := 2*k - 1
	s.cheb = make([][]float64, n)
	s.cheb[0] = make([]float64, gridSize)
	for g := range s.cheb[0] {
		s.cheb[0][g] = 1
	}
	if n > 1 {
		s.cheb[1] = append([]float64(nil), s.grid...)
	}
	for i := 2; i < n; i++ {
		row := make([]float64, gridSize)
		for g := range row {
			row[g] = 2*s.grid[g]*s.cheb[i-1][g] - s.cheb[i-2][g]
		}
		s.cheb[i] = row
	}
	return s
}

// K returns the number of moments the solver was built for.
func (s *Solver) K() int { return s.k }

// DiscardWarm forgets the warm-start multipliers, forcing the next
// Solve to cold-start. Callers use it at serialization and reset
// boundaries, where answers must be reproducible from sketch state
// alone rather than from this instance's query history.
func (s *Solver) DiscardWarm() { s.warm = s.warm[:0] }

// GridSize returns the quadrature grid size.
func (s *Solver) GridSize() int { return s.gridSize }

// Density is a solved max-entropy density tabulated on the solver's grid,
// with its cumulative distribution for quantile inversion.
type Density struct {
	grid []float64
	pdf  []float64
	cdf  []float64 // cdf[g] = P(T ≤ grid[g] + dt/2), cdf[last] = 1
	dt   float64
}

// Solve finds the max-entropy density whose Chebyshev moments match d
// (len(d) = k, d[0] must be 1 up to rounding). It returns the tabulated
// density or an error if the moments are infeasible or iteration fails.
//
// When a previous Solve on this instance succeeded, Newton restarts
// from that solution's multipliers; if the warm-started iteration fails
// to converge it falls back to the usual cold start from the uniform
// density, so warm starting can only change how fast a solvable system
// converges, never turn a solvable one into a failure.
func (s *Solver) Solve(d []float64) (*Density, error) {
	if len(d) != s.k {
		return nil, fmt.Errorf("%w: got %d moments, solver built for %d", ErrBadMoments, len(d), s.k)
	}
	for _, v := range d {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, ErrBadMoments
		}
	}
	// Chebyshev moments of any distribution on [−1,1] lie in [−1, 1].
	for j := 1; j < len(d); j++ {
		if math.Abs(d[j]) > 1+1e-6 {
			return nil, fmt.Errorf("%w: |c_%d| = %v > 1", ErrBadMoments, j, math.Abs(d[j]))
		}
	}

	lambda := make([]float64, s.k)
	if len(s.warm) == s.k {
		copy(lambda, s.warm)
		if dn, err := s.newton(d, lambda); err == nil {
			s.warm = append(s.warm[:0], lambda...)
			return dn, nil
		}
		for i := range lambda {
			lambda[i] = 0
		}
	}
	if metrics != nil {
		metrics.ColdStarts.Inc()
	}
	lambda[0] = math.Log(0.5) // start from the uniform density on [−1,1]
	dn, err := s.newton(d, lambda)
	if err != nil {
		return nil, err
	}
	s.warm = append(s.warm[:0], lambda...)
	return dn, nil
}

// newton runs the damped Newton iteration from the given starting
// multipliers, updating lambda in place to the multipliers of the
// returned density.
func (s *Solver) newton(d, lambda []float64) (*Density, error) {
	k, gs := s.k, s.gridSize
	f := make([]float64, gs)
	m := make([]float64, 2*k-1)
	grad := make([]float64, k)
	hess := make([]float64, k*k)
	step := make([]float64, k)
	trial := make([]float64, k)

	potential := func(l []float64, fv []float64) float64 {
		var z float64
		for g := 0; g < gs; g++ {
			z += fv[g]
		}
		z *= s.dt
		var lin float64
		for j := 0; j < k; j++ {
			lin += l[j] * d[j]
		}
		return z - lin
	}

	s.density(lambda, f)
	p := potential(lambda, f)
	for iter := 0; iter < maxNewtonIters; iter++ {
		if metrics != nil {
			metrics.NewtonIterations.Inc()
		}
		s.moments(f, m)
		maxG := 0.0
		for j := 0; j < k; j++ {
			grad[j] = m[j] - d[j]
			if a := math.Abs(grad[j]); a > maxG {
				maxG = a
			}
		}
		if maxG < gradTol {
			return s.tabulate(f), nil
		}
		// Hessian via the product identity.
		for i := 0; i < k; i++ {
			for j := i; j < k; j++ {
				v := 0.5 * (m[i+j] + m[j-i])
				hess[i*k+j] = v
				hess[j*k+i] = v
			}
		}
		if !solveSPD(hess, grad, step, k) {
			return nil, ErrNoConvergence
		}
		// Damped Newton: step = −H⁻¹g, backtracking on the potential.
		descent := 0.0
		for j := 0; j < k; j++ {
			step[j] = -step[j]
			descent += grad[j] * step[j]
		}
		alpha := 1.0
		improved := false
		for t := 0; t < 40; t++ {
			for j := 0; j < k; j++ {
				trial[j] = lambda[j] + alpha*step[j]
			}
			s.density(trial, f)
			pt := potential(trial, f)
			if pt <= p+1e-4*alpha*descent || pt < p {
				copy(lambda, trial)
				p = pt
				improved = true
				break
			}
			alpha /= 2
		}
		if !improved {
			// No progress possible along the Newton direction: accept the
			// current density if it is already close, else fail.
			if maxG < 1e-4 {
				return s.tabulate(f), nil
			}
			return nil, ErrNoConvergence
		}
	}
	// Accept a slightly loose solution rather than failing hard: the
	// sketch's accuracy analysis tolerates approximate solves.
	for i := range m {
		if i < k {
			var acc float64
			for g := 0; g < gs; g++ {
				acc += s.cheb[i][g] * f[g]
			}
			if math.Abs(acc*s.dt-d[i]) > 1e-3 {
				return nil, ErrNoConvergence
			}
		}
	}
	return s.tabulate(f), nil
}

// density tabulates exp(Σ_j l[j]·T_j) on the grid into out, with the
// exponent clamped to ±maxExpArg. It runs four grid points at a time:
// one load of l[j] feeds four independent sums, where a single sum is
// a chain of dependent adds. Each point's sum still adds its terms in
// ascending j, so every value is bit-identical to a one-point loop.
func (s *Solver) density(l, out []float64) {
	k, gs := len(l), len(out)
	g := 0
	for ; g+4 <= gs; g += 4 {
		var e0, e1, e2, e3 float64
		for j := 0; j < k; j++ {
			lj, row := l[j], s.cheb[j][g:g+4:g+4]
			e0 += lj * row[0]
			e1 += lj * row[1]
			e2 += lj * row[2]
			e3 += lj * row[3]
		}
		out[g] = clampExp(e0)
		out[g+1] = clampExp(e1)
		out[g+2] = clampExp(e2)
		out[g+3] = clampExp(e3)
	}
	for ; g < gs; g++ {
		var e float64
		for j := 0; j < k; j++ {
			e += l[j] * s.cheb[j][g]
		}
		out[g] = clampExp(e)
	}
}

// clampExp is exp(e) with e clamped to ±maxExpArg.
func clampExp(e float64) float64 {
	if e > maxExpArg {
		e = maxExpArg
	} else if e < -maxExpArg {
		e = -maxExpArg
	}
	return math.Exp(e)
}

// moments sets m[i] to the i-th Chebyshev moment of the tabulated
// density f, Σ_g T_i(grid[g])·f[g]·dt, for every i < len(m). It runs
// four rows at a time, so one load of f[g] feeds four independent
// sums; each row still sums in ascending g, so every moment is
// bit-identical to a one-row loop.
func (s *Solver) moments(f, m []float64) {
	i := 0
	for ; i+4 <= len(m); i += 4 {
		r0, r1, r2, r3 := s.cheb[i][:len(f)], s.cheb[i+1][:len(f)], s.cheb[i+2][:len(f)], s.cheb[i+3][:len(f)]
		var a0, a1, a2, a3 float64
		for g, fg := range f {
			a0 += r0[g] * fg
			a1 += r1[g] * fg
			a2 += r2[g] * fg
			a3 += r3[g] * fg
		}
		m[i], m[i+1], m[i+2], m[i+3] = a0*s.dt, a1*s.dt, a2*s.dt, a3*s.dt
	}
	for ; i < len(m); i++ {
		var acc float64
		row := s.cheb[i][:len(f)]
		for g, fg := range f {
			acc += row[g] * fg
		}
		m[i] = acc * s.dt
	}
}

// tabulate normalizes f into a Density with its CDF.
func (s *Solver) tabulate(f []float64) *Density {
	pdf := append([]float64(nil), f...)
	cdf := make([]float64, len(pdf))
	var z float64
	for _, v := range pdf {
		z += v
	}
	var cum float64
	for g, v := range pdf {
		cum += v
		cdf[g] = cum / z
	}
	return &Density{grid: s.grid, pdf: pdf, cdf: cdf, dt: s.dt}
}

// QuantileT inverts the CDF: the t ∈ [−1, 1] with P(T ≤ t) = q, linearly
// interpolated between grid cells.
func (dn *Density) QuantileT(q float64) float64 {
	if q <= 0 {
		return -1
	}
	if q >= 1 {
		return 1
	}
	// Binary search for the first cdf entry ≥ q.
	lo, hi := 0, len(dn.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if dn.cdf[mid] < q {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	g := lo
	prev := 0.0
	if g > 0 {
		prev = dn.cdf[g-1]
	}
	frac := 0.5
	if dn.cdf[g] > prev {
		frac = (q - prev) / (dn.cdf[g] - prev)
	}
	return dn.grid[g] - dn.dt/2 + frac*dn.dt
}

// CDFT returns P(T ≤ t) for t ∈ [−1, 1].
func (dn *Density) CDFT(t float64) float64 {
	if t <= -1 {
		return 0
	}
	if t >= 1 {
		return 1
	}
	pos := (t + 1) / dn.dt // in grid cells
	g := int(pos)
	if g >= len(dn.cdf) {
		g = len(dn.cdf) - 1
	}
	prev := 0.0
	if g > 0 {
		prev = dn.cdf[g-1]
	}
	frac := pos - float64(g)
	return prev + frac*(dn.cdf[g]-prev)
}

// solveSPD solves the symmetric positive-definite system A·x = b (A given
// row-major, n×n) by Cholesky factorization, retrying with increasing
// ridge regularization when the factorization fails. b is not modified.
// It reports whether a solution was produced.
func solveSPD(a, b, x []float64, n int) bool {
	l := make([]float64, n*n)
	ridge := 0.0
	for attempt := 0; attempt < 8; attempt++ {
		if cholesky(a, l, n, ridge) {
			// Forward substitution L·y = b.
			y := x // reuse
			for i := 0; i < n; i++ {
				sum := b[i]
				for j := 0; j < i; j++ {
					sum -= l[i*n+j] * y[j]
				}
				y[i] = sum / l[i*n+i]
			}
			// Back substitution Lᵀ·x = y.
			for i := n - 1; i >= 0; i-- {
				sum := y[i]
				for j := i + 1; j < n; j++ {
					sum -= l[j*n+i] * x[j]
				}
				x[i] = sum / l[i*n+i]
			}
			ok := true
			for i := 0; i < n; i++ {
				if math.IsNaN(x[i]) || math.IsInf(x[i], 0) {
					ok = false
					break
				}
			}
			if ok {
				return true
			}
		}
		if ridge == 0 {
			ridge = 1e-12
		} else {
			ridge *= 100
		}
	}
	return false
}

// cholesky computes the lower-triangular factor of a+ridge·I into l,
// reporting success.
func cholesky(a, l []float64, n int, ridge float64) bool {
	for i := range l {
		l[i] = 0
	}
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			sum := a[i*n+j]
			if i == j {
				sum += ridge
			}
			for p := 0; p < j; p++ {
				sum -= l[i*n+p] * l[j*n+p]
			}
			if i == j {
				if sum <= 0 || math.IsNaN(sum) {
					return false
				}
				l[i*n+i] = math.Sqrt(sum)
			} else {
				l[i*n+j] = sum / l[j*n+j]
			}
		}
	}
	return true
}
