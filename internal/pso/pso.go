// Package pso implements standard global-best Particle Swarm
// Optimization (Kennedy & Eberhart). The paper motivates GSO as "a
// multimodal variant of the well-known PSO" (Section III-A): plain PSO
// converges to a single optimum, so when several regions satisfy the
// analyst's threshold it can report at most one of them. This package
// exists to make that ablation measurable (BenchmarkAblationPSO).
package pso

import (
	"errors"
	"math"
	"math/rand/v2"

	"surf/internal/geom"
	"surf/internal/gso"
)

// The swarm size and the canonical constriction-style constants
// w = 0.729, c1 = c2 = 1.494.
const (
	// particles is the swarm size.
	particles = 100
	// inertia is the velocity retention factor w.
	inertia = 0.729
	// cognitive is the personal-best attraction c1.
	cognitive = 1.494
	// social is the global-best attraction c2.
	social = 1.494
	// velClamp caps |velocity| per dimension as a fraction of the
	// dimension extent.
	velClamp = 0.2
)

// Params configure a PSO run.
type Params struct {
	// MaxIters is the iteration budget.
	MaxIters int
	// Seed drives initialization and stochastic accelerations.
	Seed uint64
}

// DefaultParams returns a 100-iteration run from seed 1.
func DefaultParams() Params {
	return Params{MaxIters: 100, Seed: 1}
}

// Validate reports the first invalid parameter.
func (p Params) Validate() error {
	if p.MaxIters < 1 {
		return errors.New("pso: MaxIters must be >= 1")
	}
	return nil
}

// Result is the outcome of a PSO run.
type Result struct {
	// Best is the global-best position found.
	Best []float64
	// BestFitness is the fitness at Best (−Inf if nothing valid was
	// ever seen).
	BestFitness float64
	// Positions are the final particle positions.
	Positions [][]float64
	// Evaluations counts objective calls.
	Evaluations int
	// Iterations executed.
	Iterations int
}

// Run executes PSO over the bounds, maximizing the objective. Invalid
// positions (ok=false) are treated as fitness −Inf: particles may pass
// through them but never store them as bests.
func Run(p Params, bounds geom.Rect, obj gso.ObjectiveFunc) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	n := bounds.Dims()
	if n == 0 {
		return nil, errors.New("pso: zero-dimensional bounds")
	}
	rng := rand.New(rand.NewPCG(p.Seed, 0x853c49e6748fea9b))

	extent := make([]float64, n)
	for j := 0; j < n; j++ {
		extent[j] = bounds.Max[j] - bounds.Min[j]
	}

	pos := make([][]float64, particles)
	vel := make([][]float64, particles)
	pBest := make([][]float64, particles)
	pBestFit := make([]float64, particles)
	gBest := make([]float64, n)
	gBestFit := math.Inf(-1)

	res := &Result{}
	evaluate := func(x []float64) float64 {
		res.Evaluations++
		v, ok := obj(x)
		if !ok {
			return math.Inf(-1)
		}
		return v
	}

	for i := range pos {
		pos[i] = make([]float64, n)
		vel[i] = make([]float64, n)
		for j := 0; j < n; j++ {
			pos[i][j] = bounds.Min[j] + rng.Float64()*extent[j]
			vel[i][j] = (rng.Float64()*2 - 1) * velClamp * extent[j]
		}
		pBest[i] = append([]float64(nil), pos[i]...)
		pBestFit[i] = evaluate(pos[i])
		if pBestFit[i] > gBestFit {
			gBestFit = pBestFit[i]
			copy(gBest, pos[i])
		}
	}

	for t := 0; t < p.MaxIters; t++ {
		for i := range pos {
			for j := 0; j < n; j++ {
				r1, r2 := rng.Float64(), rng.Float64()
				vel[i][j] = inertia*vel[i][j] +
					cognitive*r1*(pBest[i][j]-pos[i][j]) +
					social*r2*(gBest[j]-pos[i][j])
				vmax := velClamp * extent[j]
				if vel[i][j] > vmax {
					vel[i][j] = vmax
				}
				if vel[i][j] < -vmax {
					vel[i][j] = -vmax
				}
				pos[i][j] += vel[i][j]
				if pos[i][j] < bounds.Min[j] {
					pos[i][j] = bounds.Min[j]
					vel[i][j] = -vel[i][j] / 2
				}
				if pos[i][j] > bounds.Max[j] {
					pos[i][j] = bounds.Max[j]
					vel[i][j] = -vel[i][j] / 2
				}
			}
			fit := evaluate(pos[i])
			if fit > pBestFit[i] {
				pBestFit[i] = fit
				copy(pBest[i], pos[i])
				if fit > gBestFit {
					gBestFit = fit
					copy(gBest, pos[i])
				}
			}
		}
		res.Iterations = t + 1
	}

	res.Best = gBest
	res.BestFitness = gBestFit
	res.Positions = pos
	return res, nil
}
