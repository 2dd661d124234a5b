//surf:deterministic (training is CI-gated byte-identical for any Workers count)

package gbt

// trainer holds the per-run state shared by TrainContext and
// ContinueTrainingContext: the binned matrix, gradient buffers, the
// running ensemble prediction per row, and the reusable tree builder.
// One boosting round is round(); everything inside is parallel across
// the configured workers and bit-identical for every worker count.
type trainer struct {
	workers int
	n       int
	y       []float64
	pred    []float64
	grad    []float64
	hess    []float64
	leafOf  []int32
	allRows []int32
	tb      *treeBuilder
}

// newTrainer bins X and sizes every buffer for len(y) rows.
func newTrainer(p Params, workers int, X [][]float64, y []float64, nfeat int) *trainer {
	n := len(y)
	bnr := newBinnerPar(X, p.MaxBins, workers)
	tr := &trainer{
		workers: workers,
		n:       n,
		y:       y,
		pred:    make([]float64, n),
		grad:    make([]float64, n),
		hess:    make([]float64, n),
		leafOf:  make([]int32, n),
		allRows: make([]int32, n),
	}
	for i := range tr.allRows {
		tr.allRows[i] = int32(i)
	}
	tr.tb = newTreeBuilder(p, bnr, bnr.binMatrixPar(X, workers), nfeat, tr.grad, tr.hess, tr.leafOf, workers)
	return tr
}

// forRows runs fn over the training rows in parallel chunks. Chunking
// is a pure function of n, so callers may fold per-chunk reductions
// deterministically; fn bodies touch only their own row range.
func (tr *trainer) forRows(fn func(lo, hi int)) {
	R := rowChunks(tr.n)
	parallelFor(tr.workers, R, func(r int) {
		lo, hi := chunkRange(tr.n, R, r)
		fn(lo, hi)
	})
}

// round executes one boosting round: refresh gradients, grow the tree
// over every row, and fold the new tree's contribution into every
// row's running prediction. Each row gets its leaf weight straight
// from the leaf assignment captured during partitioning, with no tree
// traversal at all.
func (tr *trainer) round() *tree {
	tr.forRows(func(lo, hi int) {
		// Squared loss: g = ŷ − y, h = 1.
		for i := lo; i < hi; i++ {
			tr.grad[i] = tr.pred[i] - tr.y[i]
			tr.hess[i] = 1
		}
	})
	t := tr.tb.build(tr.allRows)
	tr.forRows(func(lo, hi int) {
		for i := lo; i < hi; i++ {
			tr.pred[i] += t.Nodes[tr.leafOf[i]].Weight
		}
	})
	return t
}
