package core

import (
	"context"
	"errors"
	"fmt"

	"surf/internal/dataset"
	"surf/internal/gbt"
	"surf/internal/gbt/kernel"
)

// Surrogate is the trained model f̂ approximating the back-end
// statistic function f from past region evaluations (paper Section
// IV). It consumes the (2d)-dimensional [x, l] encoding.
//
// Every surrogate carries a kernel-compiled snapshot of its ensemble
// (built once at train/load time) that serves all predictions;
// PredictBatch evaluates whole probe batches against it without
// per-probe allocation. A Surrogate is immutable and safe for
// concurrent use.
type Surrogate struct {
	model *gbt.Model
	kern  *kernel.Model
	dims  int
}

// newSurrogate wraps a trained ensemble, compiling the inference
// snapshot with the bounded walk's tables (kernel.WithSideBounds). All
// construction paths (train, CV train, load) go through here so the
// compiled form can never be stale.
func newSurrogate(model *gbt.Model, dims int) *Surrogate {
	return &Surrogate{model: model, kern: model.Compile().WithSideBounds(), dims: dims}
}

// NewSurrogateFromModel wraps an already-deserialized ensemble as a
// d-dimensional surrogate, rebuilding the compiled inference snapshot.
// It is the construction path for engine-level artifacts, which carry
// the model bytes inside a larger envelope.
func NewSurrogateFromModel(model *gbt.Model, dims int) (*Surrogate, error) {
	if dims < 1 {
		return nil, fmt.Errorf("core: surrogate dims %d", dims)
	}
	if model.NumFeatures() != 2*dims {
		return nil, fmt.Errorf("core: model has %d features, want 2·%d", model.NumFeatures(), dims)
	}
	return newSurrogate(model, dims), nil
}

// ErrEmptyLog reports training on an empty query log.
var ErrEmptyLog = errors.New("core: empty query log")

// TrainSurrogate fits a boosted-tree surrogate on a query log with
// fixed hyper-parameters (the paper's Hypertuning=False mode). It is
// exactly TrainSurrogateContext(context.Background(), ...).
func TrainSurrogate(log dataset.QueryLog, params gbt.Params) (*Surrogate, error) {
	return TrainSurrogateContext(context.Background(), log, params)
}

// TrainSurrogateContext is TrainSurrogate with cancellation, observed
// within one boosting round (see gbt.TrainContext); params.Workers
// governs training parallelism.
func TrainSurrogateContext(ctx context.Context, log dataset.QueryLog, params gbt.Params) (*Surrogate, error) {
	if len(log) == 0 {
		return nil, ErrEmptyLog
	}
	X, y := log.Features()
	model, err := gbt.TrainContext(ctx, params, X, y)
	if err != nil {
		return nil, err
	}
	return newSurrogate(model, len(log[0].X)), nil
}

// Dims returns the data dimensionality d (the model consumes 2d
// features).
func (s *Surrogate) Dims() int { return s.dims }

// Model exposes the underlying ensemble for inspection (importance,
// eval history, persistence). Mutating it — e.g. calling the model's
// ContinueTrainingContext directly — does NOT refresh the surrogate's
// compiled inference snapshot; use Surrogate.ContinueTrainingContext,
// which returns a fresh surrogate, for incremental training instead.
func (s *Surrogate) Model() *gbt.Model { return s.model }

// ContinueTrainingContext returns a new surrogate whose ensemble has
// been boosted extra rounds on fresh region evaluations (the paper's
// Section V-D "keep the model fresh as more queries arrive"
// deployment), with a freshly compiled inference snapshot. The
// receiver is left untouched — surrogates stay immutable — so the
// result can be swapped in atomically (as the engine does) while
// queries keep running against the old snapshot. Cancellation is
// observed within one extra boosting round; a cancelled call returns
// ctx.Err() and no new surrogate.
func (s *Surrogate) ContinueTrainingContext(ctx context.Context, extra int, log dataset.QueryLog) (*Surrogate, error) {
	if len(log) == 0 {
		return nil, ErrEmptyLog
	}
	X, y := log.Features()
	m := s.model.Clone()
	if err := m.ContinueTrainingContext(ctx, extra, X, y); err != nil {
		return nil, err
	}
	return newSurrogate(m, s.dims), nil
}

// Kernel exposes the compiled inference snapshot built at
// construction.
func (s *Surrogate) Kernel() *kernel.Model { return s.kern }

// ErrDimMismatch reports a prediction request whose shape does not
// match the surrogate's [x, l] encoding.
var ErrDimMismatch = errors.New("core: dimension mismatch")

// Predict estimates the statistic for a region.
func (s *Surrogate) Predict(x, l []float64) float64 {
	if len(x) != s.dims || len(l) != s.dims {
		panic(fmt.Sprintf("core: Predict with %d+%d coords for %d-dim surrogate", len(x), len(l), s.dims))
	}
	row := make([]float64, 0, 2*s.dims)
	row = append(row, x...)
	row = append(row, l...)
	return s.kern.Predict1(row)
}

// PredictBatch estimates the statistic for a batch of regions, each
// given as one flat [x, l] row of length 2·Dims (the optimizer's
// solution-space encoding), writing the i-th estimate to out[i]. It
// performs no allocation beyond validation: out must have exactly
// len(rows) entries and every row length 2·Dims — a malformed batch
// returns an error wrapping ErrDimMismatch instead of reaching the
// kernel's internal panics, so no caller-supplied shape can take down
// a serving goroutine. Results are bit-for-bit equal to per-region
// Predict calls.
func (s *Surrogate) PredictBatch(rows [][]float64, out []float64) error {
	if len(out) != len(rows) {
		return fmt.Errorf("%w: output of length %d for %d rows", ErrDimMismatch, len(out), len(rows))
	}
	for i, r := range rows {
		if len(r) != 2*s.dims {
			return fmt.Errorf("%w: row %d of length %d for %d-dim surrogate (want 2·d)",
				ErrDimMismatch, i, len(r), s.dims)
		}
	}
	s.kern.PredictBatch(rows, out)
	return nil
}

// StatFn adapts the surrogate to the objective's StatFn type.
func (s *Surrogate) StatFn() StatFn {
	return func(x, l []float64) float64 { return s.Predict(x, l) }
}
