package registry

import (
	"context"
	"errors"
	"testing"
	"time"

	surf "surf"
)

// appendRows builds n full-width (x, y, v) rows clustered like
// testCols, offset so appended batches are distinguishable from the
// seed data by any statistic over v.
func appendRows(n int, base float64) [][]float64 {
	rows := make([][]float64, n)
	for i := range rows {
		f := float64(i) / float64(n)
		rows[i] = []float64{0.1 + 0.8*f, 0.1 + 0.8*(1-f), base + f}
	}
	return rows
}

func TestAppendValidation(t *testing.T) {
	fx := newFixture(t, 300)
	r := New(0)
	ctx := context.Background()
	if _, err := r.Append(ctx, "ghost", appendRows(1, 0)); !errors.Is(err, ErrUnknownDataset) {
		t.Fatalf("append to unknown: got %v, want ErrUnknownDataset", err)
	}
	if _, err := r.Register("d", fx.spec(fx.artifactA)); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Append(ctx, "d", nil); !errors.Is(err, ErrBadAppend) {
		t.Fatalf("empty batch: got %v, want ErrBadAppend", err)
	}
	if _, err := r.Append(ctx, "d", [][]float64{{1, 2}}); !errors.Is(err, ErrBadAppend) {
		t.Fatalf("short row: got %v, want ErrBadAppend", err)
	}
	// A rejected batch changes nothing.
	st, _ := r.Status("d")
	if st.DataVersion != 1 || st.Rows != 300 {
		t.Fatalf("after rejected appends: version %d rows %d", st.DataVersion, st.Rows)
	}
}

// TestAppendSwapsDataVersion: an append publishes a new data version
// through the entry's engine, the result cache invalidates, and — the
// sticky-counter regression — the engine's CacheStats hit/miss
// counters survive the data swap exactly as they survive a model swap.
func TestAppendSwapsDataVersion(t *testing.T) {
	fx := newFixture(t, 300)
	r := New(0)
	if _, err := r.Register("d", fx.spec(fx.artifactA)); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	h, err := r.Acquire(ctx, "d")
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	if _, err := h.Engine().FindContext(ctx, fastQuery); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Engine().FindContext(ctx, fastQuery); err != nil {
		t.Fatal(err)
	}
	st, _ := r.Status("d")
	if st.Cache.Hits != 1 || st.Cache.Misses != 1 {
		t.Fatalf("pre-append cache stats = %+v, want 1 hit / 1 miss", st.Cache)
	}
	if st.DataVersion != 1 {
		t.Fatalf("pre-append data version = %d, want 1", st.DataVersion)
	}

	res, err := r.Append(ctx, "d", appendRows(50, 2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Version != 2 || res.Rows != 350 || res.Appended != 50 {
		t.Fatalf("append result = %+v", res)
	}
	st, _ = r.Status("d")
	if st.DataVersion != 2 || st.Rows != 350 {
		t.Fatalf("post-append status: version %d rows %d", st.DataVersion, st.Rows)
	}
	// The swap cleared cached results but kept the counters (sticky
	// stats, same contract as a model hot swap).
	if st.Cache.Hits != 1 || st.Cache.Misses != 1 || st.Cache.Entries != 0 {
		t.Fatalf("post-append cache stats = %+v, want sticky 1 hit / 1 miss, 0 entries", st.Cache)
	}
	// The pinned handle sees the new version too: pinning protects
	// against set swaps, while within a set the engines swap data
	// snapshots atomically per query.
	if got := h.DataVersion(); got != 2 {
		t.Fatalf("pinned handle data version = %d, want 2", got)
	}
	// A fresh handle serves the appended rows.
	h2, err := r.Acquire(ctx, "d")
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Release()
	if got := h2.DataVersion(); got != 2 {
		t.Fatalf("fresh handle data version = %d, want 2", got)
	}
	if got := h2.Engine().Rows(); got != 350 {
		t.Fatalf("fresh handle rows = %d, want 350", got)
	}
}

// TestAppendParity is the differential acceptance check at the
// registry layer: an entry grown by appends answers Find and FindTopK
// bit-identically to an entry loaded flat from a CSV holding the same
// rows.
func TestAppendParity(t *testing.T) {
	fx := newFixture(t, 300)
	r := New(0)
	extra := appendRows(60, 2)

	// The flat reference: seed rows + extra rows in one CSV.
	names, cols := testCols(300)
	flat := make([][]float64, len(cols))
	for c := range cols {
		flat[c] = append([]float64(nil), cols[c]...)
		for _, row := range extra {
			flat[c] = append(flat[c], row[c])
		}
	}
	flatCSV := fx.csv + ".flat.csv"
	writeCSV(t, flatCSV, names, flat)

	flatSpec := Spec{Data: flatCSV, FilterColumns: []string{"x", "y"}, Statistic: "count",
		Artifact: fx.artifactA}
	if _, err := r.Register("flat", flatSpec); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Register("grown", fx.spec(fx.artifactA)); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if res, err := r.Append(ctx, "grown", extra); err != nil {
		t.Fatal(err)
	} else if res.Version != 2 || res.Rows != 360 {
		t.Fatalf("append result = %+v", res)
	}

	hf, err := r.Acquire(ctx, "flat")
	if err != nil {
		t.Fatal(err)
	}
	defer hf.Release()
	hg, err := r.Acquire(ctx, "grown")
	if err != nil {
		t.Fatal(err)
	}
	defer hg.Release()
	fres, err := hf.Engine().FindContext(ctx, fastQuery)
	if err != nil {
		t.Fatal(err)
	}
	gres, err := hg.Engine().FindContext(ctx, fastQuery)
	if err != nil {
		t.Fatal(err)
	}
	if !regionsEqual(fres, gres) {
		t.Fatal("Find over flat CSV and grown store differ")
	}
	topk := surf.TopKQuery{K: 3, Largest: true, Seed: 5, Glowworms: 16, Iterations: 10}
	ftop, err := hf.Engine().FindTopKContext(ctx, topk)
	if err != nil {
		t.Fatal(err)
	}
	gtop, err := hg.Engine().FindTopKContext(ctx, topk)
	if err != nil {
		t.Fatal(err)
	}
	if !regionsEqual(ftop, gtop) {
		t.Fatal("FindTopK over flat CSV and grown store differ")
	}
}

// TestAppendedRowsSurviveHotSwap: the living store belongs to the
// entry, not the engine set, so a model hot swap (Register with a new
// artifact) reloads the entry at the appended store's latest version
// rather than rewinding to the CSV.
func TestAppendedRowsSurviveHotSwap(t *testing.T) {
	fx := newFixture(t, 300)
	r := New(0)
	if _, err := r.Register("d", fx.spec(fx.artifactA)); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := r.Append(ctx, "d", appendRows(25, 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Register("d", Spec{Artifact: fx.artifactB}); err != nil {
		t.Fatal(err)
	}
	h, err := r.Acquire(ctx, "d")
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	if h.Version() != 2 {
		t.Fatalf("entry version = %d, want 2", h.Version())
	}
	if got := h.DataVersion(); got != 2 {
		t.Fatalf("data version after hot swap = %d, want 2 (appends kept)", got)
	}
	if got := h.Engine().Rows(); got != 325 {
		t.Fatalf("rows after hot swap = %d, want 325", got)
	}
	// A new data path does rebuild the store from its CSV.
	names, cols := testCols(100)
	otherCSV := fx.csv + ".other.csv"
	writeCSV(t, otherCSV, names, cols)
	if _, err := r.Register("d", Spec{Data: otherCSV}); err != nil {
		t.Fatal(err)
	}
	h2, err := r.Acquire(ctx, "d")
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Release()
	if got := h2.DataVersion(); got != 1 {
		t.Fatalf("data version after data-path change = %d, want fresh 1", got)
	}
	if got := h2.Engine().Rows(); got != 100 {
		t.Fatalf("rows after data-path change = %d, want 100", got)
	}
}

// TestAppendDriftTriggersRetrain drives the whole living-data loop:
// append rows that double every count, watch the drift score cross the
// threshold, and wait for the background retrain to extend the model
// and republish — all while the entry keeps serving queries.
func TestAppendDriftTriggersRetrain(t *testing.T) {
	fx := newFixture(t, 300)
	r := New(0)
	spec := Spec{
		Data: fx.csv, FilterColumns: []string{"x", "y"}, Statistic: "count",
		Train: 60, TrainSeed: 3,
		DriftThreshold: 0.05, DriftReservoir: 16,
	}
	if _, err := r.Register("d", spec); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	h, err := r.Acquire(ctx, "d")
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	st, _ := r.Status("d")
	if st.Drift == nil || st.Drift.Checked || st.Drift.Samples != 16 || st.Drift.Threshold != 0.05 {
		t.Fatalf("pre-append drift status = %+v", st.Drift)
	}
	if _, ok := h.DriftScore(); ok {
		t.Fatal("drift score reported before any check")
	}
	baseTrees := st.Info.Trees

	// Doubling the dataset doubles every count; a surrogate trained on
	// the old counts is now wrong by ~half the signal.
	_, cols := testCols(300)
	double := make([][]float64, 300)
	for i := range double {
		double[i] = []float64{cols[0][i], cols[1][i], cols[2][i]}
	}
	res, err := r.Append(ctx, "d", double)
	if err != nil {
		t.Fatal(err)
	}
	if res.Drift == nil || !res.Drift.Checked {
		t.Fatalf("append did not score drift: %+v", res)
	}
	if res.Drift.Score <= 0.05 {
		t.Fatalf("drift score %v after doubling the data, want > threshold", res.Drift.Score)
	}
	if !res.RetrainStarted {
		t.Fatalf("drift above threshold did not start a retrain: %+v", res.Drift)
	}
	if score, ok := h.DriftScore(); !ok || score != res.Drift.Score {
		t.Fatalf("handle drift score = %v/%v, want %v", score, ok, res.Drift.Score)
	}

	// The retrain republishes in the background; queries keep working
	// the whole time.
	deadline := time.Now().Add(60 * time.Second)
	for {
		if _, err := h.Engine().FindContext(ctx, fastQuery); err != nil {
			t.Fatalf("query during retrain: %v", err)
		}
		st, _ = r.Status("d")
		if st.Drift.Retrains >= 1 && !st.Drift.Retraining {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("retrain did not complete: %+v", st.Drift)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if st.Drift.LastError != "" {
		t.Fatalf("retrain reported error: %s", st.Drift.LastError)
	}
	if st.Info == nil || st.Info.Trees != baseTrees+defaultRetrainTrees {
		t.Fatalf("trees after retrain = %+v, want %d", st.Info, baseTrees+defaultRetrainTrees)
	}
	if st.Info.DataVersion != 2 {
		t.Fatalf("surrogate info data version = %d, want 2", st.Info.DataVersion)
	}
	// One retrain, not a storm: the score was re-measured after the
	// retrain and further appends below threshold stay quiet.
	calm, err := r.Append(ctx, "d", appendRows(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if calm.RetrainStarted && calm.Drift.Score <= 0.05 {
		t.Fatalf("calm append started a retrain: %+v", calm.Drift)
	}
}
