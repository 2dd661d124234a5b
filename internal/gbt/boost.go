//surf:deterministic (training is CI-gated byte-identical for any Workers count)

package gbt

import (
	"context"
	"errors"
	"fmt"
)

// Model is a trained gradient-boosted tree ensemble approximating
// y ≈ f̂(x). It predicts through its compiled snapshot (Compile).
type Model struct {
	params    Params
	baseScore float64
	trees     []*tree
	nfeat     int
}

// ErrNotTrained reports continued training of an unfit model.
var ErrNotTrained = errors.New("gbt: model not trained")

// Train fits an ensemble of Params.NumTrees trees to X (rows ×
// features) and y. It is exactly TrainContext(context.Background(),
// ...).
func Train(p Params, X [][]float64, y []float64) (*Model, error) {
	return TrainContext(context.Background(), p, X, y)
}

// TrainContext is Train with cancellation and parallelism. The context
// is checked before every boosting round, so a cancelled training
// request returns ctx.Err() within one round rather than running the
// full tree budget; no partial model is returned. Params.Workers
// bounds the goroutines used for histogram construction, split search
// and prediction updates — the trained model is bit-identical for
// every Workers value (work decomposition never depends on it).
func TrainContext(ctx context.Context, p Params, X [][]float64, y []float64) (*Model, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if len(X) == 0 {
		return nil, errors.New("gbt: empty training set")
	}
	if len(X) != len(y) {
		return nil, fmt.Errorf("gbt: %d rows but %d labels", len(X), len(y))
	}
	nfeat := len(X[0])
	if nfeat == 0 {
		return nil, errors.New("gbt: zero features")
	}
	// Widths are validated before any work: with Workers > 1 a ragged
	// row would otherwise panic on a spawned goroutine, which no
	// caller can recover from.
	for i, row := range X {
		if len(row) != nfeat {
			return nil, fmt.Errorf("gbt: row %d has %d features, want %d", i, len(row), nfeat)
		}
	}

	m := &Model{params: p, nfeat: nfeat}
	m.baseScore = mean(y)

	tr := newTrainer(p, p.effectiveWorkers(), X, y, nfeat)
	for i := range tr.pred {
		tr.pred[i] = m.baseScore
	}
	for round := 0; round < p.NumTrees; round++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		m.trees = append(m.trees, tr.round())
	}
	return m, nil
}

// NumFeatures returns the feature dimensionality the model expects.
func (m *Model) NumFeatures() int { return m.nfeat }

// NumTrees returns the number of trees in the trained ensemble:
// Params.NumTrees plus any continued rounds.
func (m *Model) NumTrees() int { return len(m.trees) }

// Params returns the training parameters.
func (m *Model) Params() Params { return m.params }

func mean(xs []float64) float64 {
	var s float64
	for _, v := range xs {
		s += v
	}
	return s / float64(len(xs))
}
