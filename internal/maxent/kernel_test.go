package maxent

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
)

// refNewton is the damped Newton iteration with the one-point density
// loop and the one-row moment loop that Solver.density and
// Solver.moments block by four: the reference they must match bit for
// bit. Apart from those two loops it is newton itself.
func refNewton(s *Solver, d, lambda []float64) (*Density, error) {
	k, gs := s.k, s.gridSize
	f := make([]float64, gs)
	m := make([]float64, 2*k-1)
	grad := make([]float64, k)
	hess := make([]float64, k*k)
	step := make([]float64, k)
	trial := make([]float64, k)
	evalDensity := func(l []float64, out []float64) {
		for g := 0; g < gs; g++ {
			var e float64
			for j := 0; j < k; j++ {
				e += l[j] * s.cheb[j][g]
			}
			if e > maxExpArg {
				e = maxExpArg
			} else if e < -maxExpArg {
				e = -maxExpArg
			}
			out[g] = math.Exp(e)
		}
	}
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
	evalDensity(lambda, f)
	p := potential(lambda, f)
	for iter := 0; iter < maxNewtonIters; iter++ {
		for i := range m {
			var acc float64
			row := s.cheb[i]
			for g := 0; g < gs; g++ {
				acc += row[g] * f[g]
			}
			m[i] = acc * s.dt
		}
		maxG := 0.0
		for j := 0; j < k; j++ {
			grad[j] = m[j] - d[j]
			maxG = max(maxG, math.Abs(grad[j]))
		}
		if maxG < gradTol {
			return s.tabulate(f), nil
		}
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
			evalDensity(trial, f)
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
			if maxG < 1e-4 {
				return s.tabulate(f), nil
			}
			return nil, ErrNoConvergence
		}
	}
	for i := 0; i < k; i++ {
		var acc float64
		for g := 0; g < gs; g++ {
			acc += s.cheb[i][g] * f[g]
		}
		if math.Abs(acc*s.dt-d[i]) > 1e-3 {
			return nil, ErrNoConvergence
		}
	}
	return s.tabulate(f), nil
}

// refSolve is Solve over refNewton: warm start from s.warm, falling
// back to the cold uniform start.
func refSolve(s *Solver, d []float64) (*Density, error) {
	lambda := make([]float64, s.k)
	if len(s.warm) == s.k {
		copy(lambda, s.warm)
		if dn, err := refNewton(s, d, lambda); err == nil {
			s.warm = append(s.warm[:0], lambda...)
			return dn, nil
		}
		clear(lambda)
	}
	lambda[0] = math.Log(0.5)
	dn, err := refNewton(s, d, lambda)
	if err != nil {
		return nil, err
	}
	s.warm = append(s.warm[:0], lambda...)
	return dn, nil
}

// chebMoments returns the first k Chebyshev moments of a sample on
// [−1, 1].
func chebMoments(xs []float64, k int) []float64 {
	d := make([]float64, k)
	for _, x := range xs {
		tPrev, tCur := 1.0, x
		d[0]++
		for j := 1; j < k; j++ {
			d[j] += tCur
			tPrev, tCur = tCur, 2*x*tCur-tPrev
		}
	}
	for j := range d {
		d[j] /= float64(len(xs))
	}
	return d
}

// TestNewtonKernelMatchesPlainLoops checks the blocked density and
// moment passes against the plain loops of refNewton through whole
// solves: for k = 2–20 moments on grids of 8–11 points and of 1023–1025
// (so each remainder of the four-wide blocks occurs in both passes), a
// cold solve and then a warm one from its multipliers must give
// bit-equal multipliers, pdf and cdf, or fail alike.
func TestNewtonKernelMatchesPlainLoops(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	sample := func(center float64) []float64 {
		xs := make([]float64, 2000)
		for i := range xs {
			x := center + 0.3*rng.NormFloat64()
			if rng.IntN(4) == 0 {
				x = 2*rng.Float64() - 1
			}
			xs[i] = max(-1, min(1, x))
		}
		return xs
	}
	bitsEqual := func(a, b []float64) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				return false
			}
		}
		return true
	}
	solved := 0
	for k := 2; k <= 20; k++ {
		for _, gs := range []int{8, 9, 10, 11, 1023, 1024, 1025} {
			got, ref := NewSolver(k, gs), NewSolver(k, gs)
			for start, center := range []float64{-0.2, -0.15} { // cold, then warm
				d := chebMoments(sample(center), k)
				name := fmt.Sprintf("k=%d/grid=%d/%s", k, gs, []string{"cold", "warm"}[start])
				gd, gerr := got.Solve(d)
				rd, rerr := refSolve(ref, d)
				if (gerr == nil) != (rerr == nil) {
					t.Fatalf("%s: error %v, reference %v", name, gerr, rerr)
				}
				if gerr != nil {
					continue
				}
				solved++
				if !bitsEqual(got.warm, ref.warm) || !bitsEqual(gd.pdf, rd.pdf) || !bitsEqual(gd.cdf, rd.cdf) {
					t.Fatalf("%s: multipliers, pdf or cdf differ from the plain loops'", name)
				}
			}
		}
	}
	if solved < 100 {
		t.Fatalf("only %d of 266 solves converged; the test exercises too little", solved)
	}
}
