//surf:deterministic (the tuned model must be byte-identical for a given seed)

package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"

	"surf/internal/dataset"
	"surf/internal/gbt"
	"surf/internal/stats"
)

// Hyper-parameter tuning: the paper's GridSearchCV (Section V-E).
// Every grid point is a complete gbt.Params, scored by the mean test
// RMSE of a k-fold cross validation; the winner is refitted on the
// whole log.

// ParamGrid expands the Cartesian product of the four tuned
// boosted-tree hyper-parameters over base, learning rate outermost,
// then depth, then tree count, with λ innermost; values keep their
// given order.
func ParamGrid(base gbt.Params, rates []float64, depths, trees []int, lambdas []float64) []gbt.Params {
	grid := make([]gbt.Params, 0, len(rates)*len(depths)*len(trees)*len(lambdas))
	for _, rate := range rates {
		for _, depth := range depths {
			for _, n := range trees {
				for _, lambda := range lambdas {
					p := base
					p.LearningRate, p.MaxDepth, p.NumTrees, p.Lambda = rate, depth, n, lambda
					grid = append(grid, p)
				}
			}
		}
	}
	return grid
}

// PaperGrid is the paper's Section V-E grid over base: 3 learning
// rates × 4 depths × 3 tree counts × 4 lambdas = 144 combinations.
func PaperGrid(base gbt.Params) []gbt.Params {
	return ParamGrid(base,
		[]float64{0.1, 0.01, 0.001},
		[]int{3, 5, 7, 9},
		[]int{100, 200, 300},
		[]float64{1, 0.1, 0.01, 0.001})
}

// TuneResult reports a grid search: the winning parameters and every
// combination's mean cross-validated RMSE, in grid order.
type TuneResult struct {
	Best gbt.Params
	RMSE []float64
}

// TrainSurrogateCV grid-searches the hyper-parameters with k-fold
// cross validation before fitting on the full log (the paper's
// GridSearchCV mode, Section V-E). Fewer than 2 folds means 3.
func TrainSurrogateCV(log dataset.QueryLog, grid []gbt.Params, folds int, seed uint64) (*Surrogate, *TuneResult, error) {
	return TrainSurrogateCVContext(context.Background(), log, grid, folds, seed)
}

// TrainSurrogateCVContext is TrainSurrogateCV with cancellation,
// checked before each grid combination and observed within one
// boosting round of every fit, the final full-log fit included.
func TrainSurrogateCVContext(ctx context.Context, log dataset.QueryLog, grid []gbt.Params, folds int, seed uint64) (*Surrogate, *TuneResult, error) {
	if len(log) == 0 {
		return nil, nil, ErrEmptyLog
	}
	if folds < 2 {
		folds = 3
	}
	X, y := log.Features()
	rng := rand.New(rand.NewPCG(seed, 0xd1342543de82ef95))
	best, rmse, err := gridSearchCV(ctx, grid, X, y, folds, rng)
	if err != nil {
		return nil, nil, err
	}
	model, err := gbt.TrainContext(ctx, grid[best], X, y)
	if err != nil {
		return nil, nil, err
	}
	return newSurrogate(model, len(log[0].X)), &TuneResult{Best: grid[best], RMSE: rmse}, nil
}

// gridSearchCV cross-validates every combination in grid order, all
// drawing their fold shuffles from one rng stream, and returns the
// index of the lowest mean RMSE with every combination's score. Only
// a strictly lower score displaces the incumbent, so the first of any
// tie wins (and the first combination when none scores).
func gridSearchCV(ctx context.Context, grid []gbt.Params, X [][]float64, y []float64, k int, rng *rand.Rand) (best int, rmse []float64, err error) {
	if len(grid) == 0 {
		return 0, nil, errors.New("core: empty hyper-parameter grid")
	}
	rmse = make([]float64, len(grid))
	bestRMSE := math.Inf(1)
	for i, p := range grid {
		if err := ctx.Err(); err != nil {
			return 0, nil, err
		}
		if rmse[i], err = crossValRMSE(ctx, p, X, y, k, rng); err != nil {
			return 0, nil, err
		}
		if rmse[i] < bestRMSE {
			best, bestRMSE = i, rmse[i]
		}
	}
	return best, rmse, nil
}

// crossValRMSE trains one model per fold and returns the mean of the
// per-fold test RMSE.
func crossValRMSE(ctx context.Context, p gbt.Params, X [][]float64, y []float64, k int, rng *rand.Rand) (float64, error) {
	folds, err := kFold(len(X), k, rng)
	if err != nil {
		return 0, err
	}
	scores := make([]float64, 0, k)
	for _, fold := range folds {
		train, test := fold[0], fold[1]
		model, err := gbt.TrainContext(ctx, p, gatherRows(X, train), gatherValues(y, train))
		if err != nil {
			return 0, err
		}
		pred := make([]float64, len(test))
		model.Compile().PredictBatch(gatherRows(X, test), pred)
		score, err := stats.RMSE(pred, gatherValues(y, test))
		if err != nil {
			return 0, err
		}
		scores = append(scores, score)
	}
	return stats.MeanOf(scores), nil
}

// kFold yields k (train, test) index partitions of n rows from one
// rng.Perm. Folds differ in size by at most one row.
func kFold(n, k int, rng *rand.Rand) ([][2][]int, error) {
	if k < 2 {
		return nil, errors.New("core: k-fold needs k >= 2")
	}
	if n < k {
		return nil, fmt.Errorf("core: %d rows for %d folds", n, k)
	}
	perm := rng.Perm(n)
	folds := make([][]int, k)
	for i, p := range perm {
		folds[i%k] = append(folds[i%k], p)
	}
	out := make([][2][]int, k)
	for i := range folds {
		var train []int
		for j := range folds {
			if j != i {
				train = append(train, folds[j]...)
			}
		}
		out[i] = [2][]int{train, folds[i]}
	}
	return out, nil
}

func gatherRows(X [][]float64, idx []int) [][]float64 {
	out := make([][]float64, len(idx))
	for i, j := range idx {
		out[i] = X[j]
	}
	return out
}

func gatherValues(y []float64, idx []int) []float64 {
	out := make([]float64, len(idx))
	for i, j := range idx {
		out[i] = y[j]
	}
	return out
}
