//surf:deterministic (compiled predictions must equal the trained ensemble's tree walk bit for bit)

// Package kernel is the compiled inference path of the surrogate.
// Compile turns a trained ensemble (in the neutral Ensemble form) into
// an immutable *Model serving Predict1, PredictBatch and PredictSide.
// It is the trained ensemble's only prediction path: the swarm's
// objective, Engine prediction, continued training's residual start
// and hyper-parameter cross-validation all call that one concrete
// type.
//
// The model is the flat-node float64 traversal in scalar.go: leaves
// loop onto themselves, so each tree is a fixed number of steps, its
// depth, and batches walk eight rows in lockstep. PredictSide
// (side.go) is the same walk for a threshold query. On a model built
// with WithSideBounds it walks the trees in blocks of eight, and
// before each block it drops the rows whose partial sum plus a bound
// on the remaining trees proves the prediction on the invalid side of
// yR. The bound sums, per tree, the largest (or smallest) leaf
// reachable from the row's cell: each feature's range is cut into up
// to four bins at quantiles of its split thresholds, at most 256
// cells in all, and a row with a NaN feature uses the global bound.
// Each check carries a relative rounding margin of 1e-9, so a dropped
// row's prediction is on the invalid side however the sums round.
// Dropped rows read ∓Inf, and kept rows get PredictBatch's prediction.
// The exported entry points (stats.go) add every call to three
// process-wide counters — rows entering the call, calls and kernel
// nanoseconds — that /metrics exports under kernel="scalar", then run
// the walks.
//
// The contract is strict bit-identity: for any ensemble and any row —
// including NaN and ±Inf values — Predict1 and PredictBatch return
// exactly the float64 a walk of the trained trees' nodes returns (same
// traversal decisions, same summation order), and so does PredictSide
// for every row it does not drop. FuzzKernelParity,
// TestParityHandcrafted and TestParityMixedDepths hold the compiled
// model to a reference walk of the Ensemble, and FuzzKernelParity
// holds PredictSide to its contract.
package kernel

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
