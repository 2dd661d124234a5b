package registry

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"

	surf "surf"
	"surf/drift"
)

// driftState is one engine set's drift monitor: an immutable reservoir
// of replayable region queries plus the atomics the monitor and the
// status/metrics paths share. The samples never change after load; the
// score, retrain flag and counters are lock-free so a metrics scrape
// never contends with an append or a retrain.
type driftState struct {
	threshold float64
	samples   []drift.Sample
	// scoreBits holds the last drift score as float64 bits; checked
	// flips once the first evaluation lands.
	scoreBits atomic.Uint64
	checked   atomic.Bool
	// retraining guards the single in-flight retrain per set (CAS to
	// claim); retrains counts completed ones.
	retraining atomic.Bool
	retrains   atomic.Uint64
	retrainErr atomic.Pointer[string]
}

func (d *driftState) score() float64 { return math.Float64frombits(d.scoreBits.Load()) }

func (d *driftState) setScore(s float64) {
	d.scoreBits.Store(math.Float64bits(s))
	d.checked.Store(true)
}

// status snapshots the monitor for ModelStatus.
func (d *driftState) status() *DriftStatus {
	st := &DriftStatus{
		Score:      d.score(),
		Threshold:  d.threshold,
		Samples:    len(d.samples),
		Checked:    d.checked.Load(),
		Retraining: d.retraining.Load(),
		Retrains:   d.retrains.Load(),
	}
	if msg := d.retrainErr.Load(); msg != nil {
		st.LastError = *msg
	}
	return st
}

// AppendResult reports one committed append: the data version it
// published, the entry's new total row count, and — when the entry
// monitors drift — the post-append drift report and whether it
// triggered a background retrain.
type AppendResult struct {
	Version  uint64
	Rows     int
	Appended int
	Drift    *DriftStatus
	// RetrainStarted is true when this append's drift score crossed the
	// spec's threshold and kicked a background retrain (at most one in
	// flight per entry; an append during a retrain never starts a
	// second).
	RetrainStarted bool
}

// Append commits a batch of rows — each a full-width row in the
// dataset's column order — to the named entry's living store and swaps
// the new data version into its engine. The swap is the engine's own
// snapshot swap: queries in flight finish against the version they
// pinned, new queries see the appended rows, and the engine's result
// cache is invalidated (its hit/miss counters survive, as with a model
// swap).
//
// When the spec enables drift monitoring, the reservoir of training
// queries is then replayed against the new data version: the resulting
// score is reported (and exposed via ModelStatus and /metrics), and a
// score above Spec.DriftThreshold starts the incremental retrain in
// the background — Append itself never blocks on training. Batches the
// store rejects (wrong width, empty) fail with ErrBadAppend before
// anything changes.
//
// Appends to one entry are serialized; appends to different entries
// run concurrently.
func (r *Registry) Append(ctx context.Context, name string, rows [][]float64) (AppendResult, error) {
	if len(rows) == 0 {
		return AppendResult{}, fmt.Errorf("%w: empty batch", ErrBadAppend)
	}
	h, err := r.Acquire(ctx, name)
	if err != nil {
		return AppendResult{}, err
	}
	defer h.Release()
	e, set := h.e, h.set
	e.appendMu.Lock()
	defer e.appendMu.Unlock()
	if _, err := set.store.Append(rows); err != nil {
		return AppendResult{}, fmt.Errorf("%w: %v", ErrBadAppend, err)
	}
	// Re-read the view rather than trusting the append's version: if a
	// concurrent append through a different (older, pinned) engine set
	// landed first, the engine swaps straight to the merged latest.
	ds, version := set.store.View()
	if err := set.engine.SetDataset(ds, version); err != nil {
		return AppendResult{}, err
	}
	out := AppendResult{Version: version, Rows: ds.Len(), Appended: len(rows)}
	if set.drift == nil {
		return out, nil
	}
	rep, err := drift.Evaluate(ctx, set.engine, set.drift.samples)
	if err != nil {
		// The append itself landed and serves; only the drift check was
		// cut short (typically the caller's context).
		return out, err
	}
	set.drift.setScore(rep.Score)
	if set.drift.threshold > 0 && rep.Score > set.drift.threshold &&
		set.drift.retraining.CompareAndSwap(false, true) {
		r.startRetrain(e, set)
		out.RetrainStarted = true
	}
	out.Drift = set.drift.status()
	return out, nil
}

// startRetrain launches the background retrain for set, wiring its
// cancellation into the entry so a hot swap, eviction or Remove stops
// a retrain whose engine set is being dropped. The caller must have
// claimed set.drift.retraining.
func (r *Registry) startRetrain(e *entry, set *engineSet) {
	//lint:allow ctxflow: the retrain belongs to the entry, not to any single request; cancellation is wired to detach/evict/Remove instead
	ctx, cancel := context.WithCancel(context.Background())
	r.mu.Lock()
	e.retrainCancel = cancel
	r.mu.Unlock()
	go func() {
		defer set.drift.retraining.Store(false)
		defer cancel()
		set.retrain(ctx)
	}()
}

// retrain is the drift-triggered incremental retrain: generate a fresh
// workload against the latest data version, fold defaultRetrainTrees
// extra boosting rounds into the serving surrogate (all-or-nothing) and
// re-score. The model install is the engine's atomic snapshot swap,
// so queries keep serving — on the old model, then the new — with
// nothing dropped in between.
func (s *engineSet) retrain(ctx context.Context) {
	d := s.drift
	fail := func(err error) {
		msg := err.Error()
		d.retrainErr.Store(&msg)
	}
	// Vary the seed per round so successive retrains do not replay one
	// frozen workload against ever-changing data.
	seed := s.spec.TrainSeed + 31*(d.retrains.Load()+1)
	wl, err := s.engine.GenerateWorkloadContext(ctx, defaultRetrainQueries, seed)
	if err != nil {
		fail(err)
		return
	}
	if err := s.engine.ContinueTrainingContext(ctx, defaultRetrainTrees, wl); err != nil {
		fail(err)
		return
	}
	d.retrainErr.Store(nil)
	d.retrains.Add(1)
	if rep, err := drift.Evaluate(ctx, s.engine, d.samples); err == nil {
		d.setScore(rep.Score)
	}
}

// DataVersion reports the dataset version the pinned engine set
// serves.
func (h *Handle) DataVersion() uint64 { return h.set.engine.DataVersion() }

// DriftScore returns the pinned set's last drift score; ok is false
// when the entry does not monitor drift or no check has run yet.
func (h *Handle) DriftScore() (score float64, ok bool) {
	d := h.set.drift
	if d == nil || !d.checked.Load() {
		return 0, false
	}
	return d.score(), true
}

// Store returns the pinned entry's living store (never nil for a
// loaded entry); admin layers use it for direct inspection.
func (h *Handle) Store() *surf.Store { return h.set.store }
