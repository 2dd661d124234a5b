//surf:deterministic (training is CI-gated byte-identical for any Workers count)

package gbt

import (
	"context"
	"errors"
	"fmt"
)

// Clone returns an independent copy of the model: continued training
// on the clone never mutates the original (trained trees themselves
// are immutable and shared).
func (m *Model) Clone() *Model {
	return &Model{
		params:    m.params,
		baseScore: m.baseScore,
		trees:     append([]*tree(nil), m.trees...),
		nfeat:     m.nfeat,
	}
}

// ContinueTrainingContext boosts extra rounds on top of an
// already-trained ensemble using (possibly new) data, supporting the
// paper's deployment where a surrogate is trained once and then kept
// fresh as more region evaluations arrive (Section V-D) without a full
// retrain. The new trees fit the residuals of the current ensemble on
// the provided data; features are re-binned from the new matrix.
// Cancellation and parallelism follow TrainContext: the context is
// checked before every extra round, and Params.Workers governs the
// goroutines used. The new trees are committed only when every
// requested round completes — a cancelled call returns ctx.Err()
// within one round and leaves the model exactly as it was.
func (m *Model) ContinueTrainingContext(ctx context.Context, extra int, X [][]float64, y []float64) error {
	if len(m.trees) == 0 && m.nfeat == 0 {
		return ErrNotTrained
	}
	if extra < 1 {
		return errors.New("gbt: extra rounds must be >= 1")
	}
	if len(X) == 0 {
		return errors.New("gbt: empty continuation set")
	}
	if len(X) != len(y) {
		return fmt.Errorf("gbt: %d rows but %d labels", len(X), len(y))
	}
	for i, row := range X {
		if len(row) != m.nfeat {
			return fmt.Errorf("gbt: row %d has %d features, want %d", i, len(row), m.nfeat)
		}
	}
	p := m.params
	tr := newTrainer(p, p.effectiveWorkers(), X, y, m.nfeat)
	m.Compile().PredictBatch(X, tr.pred)

	newTrees := make([]*tree, 0, extra)
	for round := 0; round < extra; round++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		newTrees = append(newTrees, tr.round())
	}
	m.trees = append(m.trees, newTrees...)
	return nil
}
