package registry

import (
	"context"
	"fmt"
	"os"

	surf "surf"
	"surf/drift"
)

// defaultDriftReservoir is the replay reservoir a spec's zero
// DriftReservoir resolves to. defaultRetrainQueries and
// defaultRetrainTrees size every drift-triggered retrain: a fresh
// workload of that many region evaluations feeds that many extra
// boosting rounds.
const (
	defaultDriftReservoir = 64
	defaultRetrainQueries = 256
	defaultRetrainTrees   = 25
)

// engineSet is one loaded materialization of a spec: one engine over
// the entry's whole dataset. The set's structure is immutable after
// buildEngineSet returns — hot swaps replace whole sets, never re-point
// one — so handles read it without locks. The engine inside is itself
// living: an append swaps a new data snapshot into it (and a
// drift-triggered retrain a new model) through the engine's own atomic
// snapshot discipline, so queries in flight never see a torn set.
type engineSet struct {
	version int
	spec    Spec
	engine  *surf.Engine
	// store is the living dataset backing the engine; shared with the
	// entry so appended rows survive set swaps.
	store *surf.Store
	// drift is the entry's drift monitor (nil when the spec does not
	// enable monitoring).
	drift *driftState
}

// buildEngineSet materializes spec: read the CSV (or adopt the entry's
// existing living store, appended rows included), open the engine,
// then install the surrogate — loaded from the artifact or trained
// from a generated workload. When the spec enables drift monitoring, a
// reservoir of the training queries (or generated probes, on the
// artifact path) is kept for replay after appends.
func buildEngineSet(ctx context.Context, spec Spec, version int, store *surf.Store) (*engineSet, error) {
	stat, err := surf.ParseStatistic(spec.Statistic)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSpec, err)
	}
	if store == nil {
		f, err := os.Open(spec.Data)
		if err != nil {
			return nil, err
		}
		seed, err := surf.ReadCSVDataset(f)
		f.Close()
		if err != nil {
			return nil, err
		}
		store, err = surf.NewStore(seed)
		if err != nil {
			return nil, err
		}
	}
	ds, dataVersion := store.View()
	cfg := surf.Config{
		FilterColumns: spec.FilterColumns,
		Statistic:     stat,
		TargetColumn:  spec.TargetColumn,
		UseGridIndex:  spec.UseGridIndex,
	}
	eng, err := surf.Open(ds, cfg)
	if err != nil {
		return nil, err
	}
	set := &engineSet{
		version: version,
		spec:    spec,
		engine:  eng,
		store:   store,
	}
	if dataVersion != 1 {
		// A reloaded store past its seed version: Open stamped the
		// engine as version 1, so restamp it with the store's real
		// version (same rows, same domain — only the label moves).
		if err := eng.SetDataset(ds, dataVersion); err != nil {
			return nil, err
		}
	}

	var wl surf.Workload
	trained := false
	switch {
	case spec.Artifact != "":
		f, err := os.Open(spec.Artifact)
		if err != nil {
			return nil, err
		}
		err = eng.LoadSurrogateContext(ctx, f)
		f.Close()
		if err != nil {
			return nil, err
		}
	case spec.Train > 0:
		wl, err = eng.GenerateWorkloadContext(ctx, spec.Train, spec.TrainSeed)
		if err != nil {
			return nil, err
		}
		if err := eng.TrainSurrogateContext(ctx, wl, surf.TrainOptions{Seed: spec.TrainSeed}); err != nil {
			return nil, err
		}
		trained = true
	}

	if spec.driftEnabled() {
		capacity := spec.DriftReservoir
		if capacity <= 0 {
			capacity = defaultDriftReservoir
		}
		rsv := drift.NewReservoir(capacity, spec.TrainSeed+0x5eed)
		if trained {
			// Replay what the surrogate was actually trained on: drift
			// on those regions is exactly "the model no longer matches
			// its own training distribution".
			for i := 0; i < wl.Len(); i++ {
				c, h, _ := wl.Query(i)
				rsv.Add(c, h)
			}
		} else {
			// Artifact path: the training workload is gone, so probe
			// with generated regions over the serving domain. Costs one
			// data scan per probe, once, at load time.
			probe, err := eng.GenerateWorkloadContext(ctx, capacity, spec.TrainSeed+1)
			if err != nil {
				return nil, err
			}
			for i := 0; i < probe.Len(); i++ {
				c, h, _ := probe.Query(i)
				rsv.Add(c, h)
			}
		}
		set.drift = &driftState{threshold: spec.DriftThreshold, samples: rsv.Samples()}
	}
	return set, nil
}
