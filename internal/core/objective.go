// Package core implements the paper's primary contribution: the
// threshold-region mining task (Problem 1), its optimization
// objectives (Eq. 2 and Eq. 4), the surrogate-model wrapper, and the
// SuRF finder pipeline that couples a surrogate with Glowworm Swarm
// Optimization (plus the KDE selection prior of Eq. 8) to return the
// set of interesting regions. The prior depends on the data alone:
// FitDensity fits it from one fixed sampling stream, and AttachPrior
// lets any number of finders share one fitted prior.
package core

import (
	"errors"
	"fmt"
	"math"

	"surf/internal/geom"
	"surf/internal/gso"
)

// Direction states which side of the threshold is interesting.
type Direction int

const (
	// Above seeks regions with f(x, l) > yR.
	Above Direction = iota
	// Below seeks regions with f(x, l) < yR.
	Below
)

// String names the direction.
func (d Direction) String() string {
	switch d {
	case Above:
		return "above"
	case Below:
		return "below"
	}
	return fmt.Sprintf("Direction(%d)", int(d))
}

// StatFn predicts (or computes) the statistic y for a region given by
// center x and half-sides l. Surrogates, true evaluators and test
// doubles all flow through this type.
type StatFn func(x, l []float64) float64

// ObjectiveConfig configures the region-mining objective.
type ObjectiveConfig struct {
	// YR is the analyst's threshold y_R.
	YR float64
	// Dir selects f > yR (Above) or f < yR (Below).
	Dir Direction
	// C is the region-size regularizer c > 0 of Eq. 2/4. Larger C
	// restricts solutions to smaller regions (paper Fig. 8).
	C float64
	// UseRatio switches to the raw ratio objective of Eq. 2 instead
	// of the log form of Eq. 4. The ratio form is defined on
	// constraint-violating regions too (its value just changes sign),
	// which is exactly why the paper prefers the log form: see the
	// Fig. 7 comparison.
	UseRatio bool
}

// Validate reports the first invalid field.
func (c ObjectiveConfig) Validate() error {
	if c.C <= 0 {
		return errors.New("core: objective parameter C must be > 0")
	}
	if c.Dir != Above && c.Dir != Below {
		return fmt.Errorf("core: unknown direction %d", int(c.Dir))
	}
	return nil
}

// diff returns the signed constraint margin: positive iff the region
// satisfies the analyst's constraint.
func (c ObjectiveConfig) diff(y float64) float64 {
	if c.Dir == Below {
		return c.YR - y
	}
	return y - c.YR
}

// Satisfies reports whether a statistic value meets the constraint.
func (c ObjectiveConfig) Satisfies(y float64) bool {
	return !math.IsNaN(y) && c.diff(y) > 0
}

// scoreRegion maps a region's half-sides and predicted statistic to
// the objective value — the statistic-independent half of the fitness.
//
// Log form (Eq. 4):  J = log(diff) − c·Σ log(l_i), undefined (ok =
// false) when diff ≤ 0 or any l_i ≤ 0 — the implicit constraint
// rejection the paper relies on.
//
// Ratio form (Eq. 2): J = diff / (Π l_i)^c, defined whenever all
// l_i > 0 even for constraint-violating regions.
func (c ObjectiveConfig) scoreRegion(l []float64, y float64) (float64, bool) {
	if math.IsNaN(y) {
		return 0, false
	}
	d := c.diff(y)
	if c.UseRatio {
		volC := 1.0
		for _, li := range l {
			if li <= 0 {
				return 0, false
			}
			volC *= li
		}
		return d / math.Pow(volC, c.C), true
	}
	if d <= 0 {
		return 0, false
	}
	var sizePenalty float64
	for _, li := range l {
		if li <= 0 {
			return 0, false
		}
		sizePenalty += math.Log(li)
	}
	return math.Log(d) - c.C*sizePenalty, true
}

// NewObjective wraps a statistic function into the per-position
// region-space fitness the optimizers maximize (see scoreRegion for
// the two objective forms). Positions are [x, l] vectors of even
// dimension.
func NewObjective(f StatFn, cfg ObjectiveConfig) (gso.ObjectiveFunc, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if f == nil {
		return nil, errors.New("core: nil statistic function")
	}
	return func(vec []float64) (float64, bool) {
		x, l := geom.DecodeRegion(vec)
		return cfg.scoreRegion(l, f(x, l))
	}, nil
}

// BatchPredictor predicts the statistic for many regions at once. Each
// row is the flat [x, l] solution-space encoding of one region, so the
// optimizer's particle positions feed the predictor with zero copying;
// out receives one estimate per row. It is a Finder's prediction path:
// the swarm's objective, the re-scoring of the converged swarm and
// every region's Estimate go through it, except that a surrogate
// finder's threshold swarms use the kernel's bounded walk
// (sidePredictor). The compiled surrogate kernel implements it, and
// NewFinder wraps a StatFn as a row-by-row predictor. Implementations must be safe for concurrent calls, and
// each estimate must be a pure function of its row: the swarm keeps
// the fitness of a worm that did not move (see gso.Objective).
type BatchPredictor interface {
	PredictBatch(rows [][]float64, out []float64)
}

// statPredictor predicts row by row through a StatFn.
type statPredictor StatFn

// PredictBatch calls the statistic function on each decoded row.
func (f statPredictor) PredictBatch(rows [][]float64, out []float64) {
	for i, r := range rows {
		out[i] = f(geom.DecodeRegion(r))
	}
}

// regionScore is the statistic-to-fitness half of an objective,
// applied per row after a batch prediction.
type regionScore func(l []float64, y float64) (float64, bool)

// regionObjective is the swarm's objective over [x, l] positions: one
// prediction pass per shard, written straight into fitness, then the
// per-row score applied in place.
type regionObjective struct {
	pred  BatchPredictor
	score regionScore
}

// Evaluate predicts the whole shard, then scores each row.
func (o regionObjective) Evaluate(pos [][]float64, fitness []float64, valid []bool) {
	o.pred.PredictBatch(pos, fitness)
	for i, p := range pos {
		_, l := geom.DecodeRegion(p)
		fitness[i], valid[i] = o.score(l, fitness[i])
	}
}

// regionEvaluator is the true statistic f over a dataset: Evaluate
// returns f over the rows inside region and the number of those rows.
// Dataset evaluators (linear scan and grid index) implement it.
type regionEvaluator interface {
	Evaluate(region geom.Rect) (float64, int)
}

// StatFnFromEvaluator wraps a dataset evaluator as a StatFn, giving
// the f+GlowWorm baseline.
func StatFnFromEvaluator(ev regionEvaluator) StatFn {
	return func(x, l []float64) float64 {
		y, _ := ev.Evaluate(geom.FromCenter(x, l))
		return y
	}
}
