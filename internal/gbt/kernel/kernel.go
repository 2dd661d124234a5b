//surf:deterministic (compiled predictions must equal the trained ensemble's tree walk bit for bit)

// Package kernel is the inference seam of the surrogate prediction
// path. Compile turns a trained ensemble (in the neutral Ensemble
// form) into an immutable Model serving Predict1 and PredictBatch;
// every layer above — the core batch objective, the GSO batch
// evaluators, Engine prediction — talks only to the Model
// interface, so the traversal strategy can change without touching
// the pipeline.
//
// The one implementation is the flat-node float64 traversal in
// scalar.go: leaves loop onto themselves, so each tree is a fixed
// number of steps, its depth, and batches walk eight rows in lockstep.
// The contract is strict bit-identity: for any ensemble and any row —
// including NaN and ±Inf values — Predict1 and PredictBatch return
// exactly the float64 the trained model's own tree walk returns (same
// traversal decisions, same summation order). FuzzKernelParity,
// TestParityHandcrafted and TestParityMixedDepths hold the compiled
// model to a reference walk of the Ensemble; a future implementation
// must pass the same tests.
package kernel

// Model is a compiled, immutable inference snapshot of one ensemble.
// Models are safe for concurrent use. Predict1 and PredictBatch panic
// on dimension mismatches — callers validate at the public boundary
// (core.Surrogate and Engine.PredictStatisticBatch return wrapped
// sentinel errors there).
type Model interface {
	// NumFeatures returns the feature dimensionality the model expects.
	NumFeatures() int
	// NumTrees returns the number of trees in the compiled ensemble.
	NumTrees() int
	// NumNodes returns the total node count across all trees.
	NumNodes() int
	// Predict1 returns the prediction for a single raw feature row.
	Predict1(row []float64) float64
	// PredictBatch writes predictions for every row of X into out
	// without allocating on the steady state: out must have exactly
	// len(X) entries and every row NumFeatures columns.
	PredictBatch(X [][]float64, out []float64)
}

// Compile flattens e into the scalar flat-node model and wraps it
// with the process-wide activity counters exported through /metrics.
// All production compilation paths go through here.
func Compile(e Ensemble) Model {
	return instrument(compileScalar(e))
}

// bfsOrder lays one tree's nodes out breadth-first starting at node 0:
// both children of a split are enqueued back-to-back, so siblings land
// in adjacent slots and the right child index is always left+1. It
// returns the visit order (old indices), the old→new index map, offset
// by off, and the tree's depth: the level of the last node visited, a
// single leaf being depth 0. The caller-supplied slices are reused
// across trees.
func bfsOrder(nodes []Node, off int32, order, newIdx []int32) ([]int32, []int32, int32) {
	order = append(order[:0], 0)
	if cap(newIdx) < len(nodes) {
		newIdx = make([]int32, len(nodes))
	}
	newIdx = newIdx[:len(nodes)]
	var depth int32
	levelEnd := 1 // order[:levelEnd] holds the levels up to depth
	for qi := 0; qi < len(order); qi++ {
		if qi == levelEnd {
			depth++
			levelEnd = len(order)
		}
		old := order[qi]
		newIdx[old] = off + int32(qi)
		if n := &nodes[old]; n.Feature != LeafFeature {
			order = append(order, n.Left, n.Right)
		}
	}
	return order, newIdx, depth
}
