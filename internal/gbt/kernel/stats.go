// This file deliberately carries no //surf:deterministic marker: the
// exported entry points read the wall clock to account kernel time,
// which the detrain analyzer (rightly) bans from result-producing
// deterministic scopes. The walks they call live in scalar.go and
// return their predictions untouched, so the bit-identity contract is
// unaffected.

package kernel

import (
	"time"

	"surf/internal/obs"
)

// Process-wide inference activity, exported through /metrics as the
// surf_kernel_* families under kernel="scalar". Every compiled model
// adds to the same three counters, whichever engine serves it. The
// timing cost — two clock reads per call — is noise against even the
// smallest swarm shard.
var (
	// Rows counts predicted rows (a Predict1 call counts one row).
	Rows obs.Counter
	// Calls counts PredictBatch and Predict1 calls.
	Calls obs.Counter
	// Nanos accumulates wall nanoseconds spent inside the kernel.
	Nanos obs.Counter
)

// Predict1 returns the prediction for a single raw feature row,
// bit-for-bit equal to the trained model's tree walk.
func (c *Model) Predict1(row []float64) float64 {
	start := time.Now()
	v := c.predict1(row)
	Nanos.Add(uint64(time.Since(start)))
	Rows.Inc()
	Calls.Inc()
	return v
}

// PredictBatch writes predictions for every row of X into out without
// allocating: out must have exactly len(X) entries and every row the
// compiled feature count.
func (c *Model) PredictBatch(X [][]float64, out []float64) {
	start := time.Now()
	c.predictBatch(X, out)
	Nanos.Add(uint64(time.Since(start)))
	Rows.Add(uint64(len(X)))
	Calls.Inc()
}

// PredictSide is PredictBatch for a threshold query: a row whose
// prediction is proven to be ≤ yR (or, with below, ≥ yR) may stop
// walking trees and reads −Inf (+Inf) instead, and every other row
// gets PredictBatch's prediction bit for bit (see side.go). Only a
// model built by WithSideBounds skips trees. It returns the number of
// tree walks made, one per row and tree, against len(X) times the tree
// count of the full walk; the counters count rows as PredictBatch does.
func (c *Model) PredictSide(X [][]float64, out []float64, yR float64, below bool) int {
	start := time.Now()
	walked := c.predictSide(X, out, yR, below)
	Nanos.Add(uint64(time.Since(start)))
	Rows.Add(uint64(len(X)))
	Calls.Inc()
	return walked
}
