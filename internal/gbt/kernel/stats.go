// This file deliberately carries no //surf:deterministic marker: the
// instrumentation wrapper reads the wall clock, which the detrain
// analyzer (rightly) bans from result-producing deterministic scopes.
// The wrapped predictions themselves pass through untouched, so the
// bit-identity contract is unaffected.

package kernel

import (
	"time"

	"surf/internal/obs"
)

// metricsLabel is the kernel label the activity counters are exported
// under (surf_kernel_rows_predicted_total{kernel="scalar"} and
// friends). There is one kernel, so the label is constant.
const metricsLabel = "scalar"

// instrumented decorates a compiled model with the process-wide
// kernel activity counters (rows, batches, cumulative kernel
// nanoseconds) exported through /metrics.
type instrumented struct {
	m  Model
	st *obs.KernelStats
}

// instrument wraps m; the wrapper delegates everything and records
// activity under metricsLabel. The timing cost — two clock reads
// per batch — is noise against even the smallest swarm shard.
func instrument(m Model) Model {
	return &instrumented{m: m, st: obs.Kernel(metricsLabel)}
}

func (w *instrumented) NumFeatures() int { return w.m.NumFeatures() }
func (w *instrumented) NumTrees() int    { return w.m.NumTrees() }
func (w *instrumented) NumNodes() int    { return w.m.NumNodes() }

func (w *instrumented) Predict1(row []float64) float64 {
	start := time.Now()
	v := w.m.Predict1(row)
	w.st.Nanos.Add(uint64(time.Since(start)))
	w.st.Rows.Inc()
	w.st.Batches.Inc()
	return v
}

func (w *instrumented) PredictBatch(X [][]float64, out []float64) {
	start := time.Now()
	w.m.PredictBatch(X, out)
	w.st.Nanos.Add(uint64(time.Since(start)))
	w.st.Rows.Add(uint64(len(X)))
	w.st.Batches.Inc()
}
