//surf:deterministic (training is CI-gated byte-identical for any Workers count)

package gbt

import (
	"fmt"
	"sort"
)

// binner maps raw feature values to histogram bins using per-feature
// quantile cut points computed once from the training matrix. Bin k of
// feature j covers (cuts[j][k-1], cuts[j][k]]; values above the last
// cut land in the final bin.
type binner struct {
	// cuts[j] holds the ascending upper boundaries of feature j's
	// bins, excluding the implicit +inf boundary of the last bin. A
	// feature with c cut points has c+1 bins.
	cuts [][]float64
}

// newBinner builds quantile cut points from the training matrix
// (rows × features), producing at most maxBins bins per feature.
func newBinner(x [][]float64, maxBins int) *binner {
	return newBinnerPar(x, maxBins, 1)
}

// newBinnerPar is newBinner with the cut-point computation fanned out
// across features (each feature's column copy, sort and cut scan is
// independent, so the result is identical for every worker count).
func newBinnerPar(x [][]float64, maxBins, workers int) *binner {
	features := len(x[0])
	b := &binner{cuts: make([][]float64, features)}
	parallelFor(workers, features, func(j int) {
		vals := make([]float64, len(x))
		for i := range x {
			vals[i] = x[i][j]
		}
		b.cuts[j] = quantileCuts(vals, maxBins)
	})
	return b
}

// quantileCuts returns ascending unique cut points splitting vals into
// at most maxBins groups of roughly equal population.
func quantileCuts(vals []float64, maxBins int) []float64 {
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	n := len(sorted)
	maxVal := sorted[n-1]
	var cuts []float64
	for k := 1; k < maxBins; k++ {
		idx := k * n / maxBins
		if idx >= n {
			break
		}
		c := sorted[idx]
		// A cut at the maximum value would leave the last bin empty,
		// so it can never be a useful split boundary.
		if c >= maxVal {
			break
		}
		if len(cuts) == 0 || c > cuts[len(cuts)-1] {
			cuts = append(cuts, c)
		}
	}
	return cuts
}

// numBins returns the bin count of feature j.
func (b *binner) numBins(j int) int { return len(b.cuts[j]) + 1 }

// features returns the number of features.
func (b *binner) features() int { return len(b.cuts) }

// binOf maps a raw value of feature j to its bin index.
func (b *binner) binOf(j int, v float64) uint8 {
	cuts := b.cuts[j]
	// First index whose cut is >= v: value v belongs to that bin
	// because bin k covers (cuts[k-1], cuts[k]].
	idx := sort.SearchFloat64s(cuts, v)
	return uint8(idx)
}

// upperValue returns the raw-space threshold of bin k of feature j: a
// row goes left iff value ≤ upperValue. k must be < numBins(j)−1 (the
// last bin has no upper boundary and cannot be a split point).
func (b *binner) upperValue(j, k int) float64 {
	return b.cuts[j][k]
}

// binMatrixPar quantizes the whole matrix row-major into bytes, in
// parallel over row chunks. Each row's bins are computed
// independently, so the output is identical for every worker count.
func (b *binner) binMatrixPar(x [][]float64, workers int) []uint8 {
	features := b.features()
	out := make([]uint8, len(x)*features)
	R := rowChunks(len(x))
	parallelFor(workers, R, func(r int) {
		lo, hi := chunkRange(len(x), R, r)
		for i := lo; i < hi; i++ {
			row := x[i]
			if len(row) != features {
				panic(fmt.Sprintf("gbt: row %d has %d features, want %d", i, len(row), features))
			}
			base := i * features
			for j, v := range row {
				out[base+j] = b.binOf(j, v)
			}
		}
	})
	return out
}
