// Package gbt implements gradient-boosted regression trees in the
// style of XGBoost (Chen & Guestrin, 2016), the surrogate model class
// the paper uses for f̂ (Section IV–V).
//
// Trees are grown depth-wise on quantile-binned features (histogram
// method). For the squared-error objective the gradient statistics are
// g_i = ŷ_i − y_i and h_i = 1, the split gain is XGBoost's
//
//	Gain = ½ [ G_L²/(H_L+λ) + G_R²/(H_R+λ) − G²/(H+λ) ] − γ
//
// and the leaf weight is w = −G/(H+λ). The settable knobs are the ones
// the paper's GridSearchCV tunes (learning_rate, max_depth,
// n_estimators, reg_lambda); the rest keep XGBoost's defaults as
// constants: γ = 0 (any positive gain splits), a minimum child
// hessian of 1, and every row and feature in every tree.
package gbt

import (
	"errors"
	"fmt"
)

// Params configure training. The zero value is not valid; start from
// DefaultParams.
type Params struct {
	// NumTrees is the number of boosting rounds (paper: n_estimators).
	NumTrees int
	// LearningRate shrinks each tree's contribution (paper:
	// learning_rate).
	LearningRate float64
	// MaxDepth bounds tree depth; a depth-0 tree is a single leaf
	// (paper: max_depth).
	MaxDepth int
	// Lambda is the L2 regularization on leaf weights (paper:
	// reg_lambda).
	Lambda float64
	// MaxBins is the number of histogram bins per feature (≤ 256).
	MaxBins int
	// Seed no longer affects training, which draws nothing at random.
	// It is kept so that callers which set it still compile, and it
	// travels in saved artifacts.
	Seed uint64
	// Workers is the number of goroutines training may use for
	// histogram construction, split search and prediction updates
	// (0 means one per available CPU). It is an execution knob, not a
	// model property: the trained ensemble is bit-identical for every
	// value, and Save normalizes it to 0 so serialized artifacts do
	// not depend on the machine that produced them.
	Workers int
}

// DefaultParams mirror the fixed (non-hypertuned) configuration used
// for the paper's Fig. 6 "Hypertuning=False" line.
func DefaultParams() Params {
	return Params{
		NumTrees:     100,
		LearningRate: 0.1,
		MaxDepth:     6,
		Lambda:       1,
		MaxBins:      256,
		Seed:         1,
	}
}

// Validate reports the first invalid parameter.
func (p Params) Validate() error {
	switch {
	case p.NumTrees < 1:
		return errors.New("gbt: NumTrees must be >= 1")
	case p.LearningRate <= 0 || p.LearningRate > 1:
		return fmt.Errorf("gbt: LearningRate %g out of (0,1]", p.LearningRate)
	case p.MaxDepth < 0:
		return errors.New("gbt: MaxDepth must be >= 0")
	case p.Lambda < 0:
		return errors.New("gbt: Lambda must be >= 0")
	case p.MaxBins < 2 || p.MaxBins > 256:
		return fmt.Errorf("gbt: MaxBins %d out of [2,256]", p.MaxBins)
	case p.Workers < 0:
		return fmt.Errorf("gbt: Workers %d must be >= 0", p.Workers)
	}
	return nil
}
