package surf

import (
	"context"
	"fmt"
	"slices"

	"surf/internal/dataset"
)

// Living data. The paper's pipeline assumes a frozen dataset; a
// deployment's data grows. Store, Engine.SetDataset and
// Engine.ContinueTraining are the three pieces that relax the
// assumption without giving up any of the frozen-data guarantees:
// a Store versions the rows, SetDataset swaps a new version into an
// engine exactly as atomically as a model swap (in-flight queries
// finish on the version they pinned, the result cache invalidates),
// and ContinueTraining folds extra boosting rounds into the serving
// surrogate when the new rows have drifted away from it.

// Store is a versioned, append-capable dataset. Appends commit row
// batches and publish new immutable versions; View hands out a
// version to serve (feed it to SetDataset), and readers holding older
// versions are never disturbed — the read path is lock-free and
// append batches land in column segments no published view can see.
// A Store is safe for concurrent use.
type Store struct {
	inner *dataset.Store
}

// NewStore wraps a dataset as version 1 of a living store. Ownership
// follows NewDataset's convention: the caller must not modify the
// columns after handing them over.
func NewStore(ds *Dataset) (*Store, error) {
	if ds == nil {
		return nil, fmt.Errorf("%w: nil dataset", ErrBadConfig)
	}
	return &Store{inner: dataset.NewStore(ds.inner)}, nil
}

// Append commits one batch of rows — each a full-width row in Names()
// order — and returns the newly published data version. The batch is
// validated first; a failed append leaves the store unchanged.
func (s *Store) Append(rows [][]float64) (uint64, error) {
	snap, err := s.inner.Append(rows)
	if err != nil {
		return 0, err
	}
	return snap.Version(), nil
}

// View returns the current data version as an immutable Dataset
// together with its version number — one atomic read, so the pair can
// never be torn by a concurrent append. The returned dataset is a
// plain Dataset: it can be opened in an engine or handed to
// SetDataset.
func (s *Store) View() (*Dataset, uint64) {
	snap := s.inner.Snapshot()
	return &Dataset{inner: snap.Data()}, snap.Version()
}

// Version returns the current data version (1 = the seed dataset).
func (s *Store) Version() uint64 { return s.inner.Snapshot().Version() }

// Rows returns the row count of the current version.
func (s *Store) Rows() int { return s.inner.Snapshot().Rows() }

// Names returns the store's column names.
func (s *Store) Names() []string { return s.inner.Snapshot().Data().Names() }

// SetDataset atomically swaps the engine onto a new version of its
// dataset — typically a Store view after an append. The swap follows
// the same snapshot discipline as a model swap: queries in flight
// finish against the data version (and domain, and evaluator) they
// pinned, new queries see the new version, the result cache is
// invalidated, and SurrogateInfo.DataVersion reports the version now
// serving. The current surrogate, if any, is kept — retraining is a
// separate, deliberate step (see ContinueTraining and the registry's
// drift monitor).
//
// The new dataset must have exactly the engine's column schema; the
// evaluator is rebuilt the way Open built it (grid or linear scan) and
// the domain is re-derived from the new rows. Errors are reported with
// ErrBadConfig before anything swaps.
func (e *Engine) SetDataset(ds *Dataset, version uint64) error {
	if ds == nil {
		return fmt.Errorf("%w: SetDataset with nil dataset", ErrBadConfig)
	}
	if got := ds.inner.Names(); !slices.Equal(got, e.names) {
		return fmt.Errorf("%w: dataset columns %v do not match engine schema %v", ErrBadConfig, got, e.names)
	}
	v, err := e.newView(ds.inner, version)
	if err != nil {
		return err
	}
	e.swapSnapshot(func(cur *snapshot) *snapshot {
		return &snapshot{surr: cur.surr, info: cur.info, view: v}
	})
	return nil
}

// ContinueTraining folds extra boosting rounds into the engine's
// current surrogate using w as the additional training set and swaps
// the extended model in atomically. It is the incremental-retrain
// step of the living-data loop: generate a fresh workload against the
// latest data version, then continue training so the surrogate
// catches up with the appended rows without a full refit.
func (e *Engine) ContinueTraining(extra int, w Workload) error {
	return e.ContinueTrainingContext(context.Background(), extra, w)
}

// ContinueTrainingContext is ContinueTraining with cancellation,
// observed within one extra boosting round; a cancelled call returns
// ctx.Err() and leaves the engine's current surrogate untouched (the
// extension commits all-or-nothing). Without a trained surrogate it
// returns ErrNoSurrogate. As with every snapshot writer, the last
// concurrent swap wins.
func (e *Engine) ContinueTrainingContext(ctx context.Context, extra int, w Workload) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	cur := e.surrogate.Load()
	if cur.surr == nil {
		return ErrNoSurrogate
	}
	s, err := cur.surr.ContinueTrainingContext(ctx, extra, w.log)
	if err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	info := cur.info
	info.Trees = s.Model().NumTrees()
	info.TrainedQueries += w.Len()
	e.swapSnapshot(func(*snapshot) *snapshot {
		return &snapshot{surr: s, info: info}
	})
	return nil
}
