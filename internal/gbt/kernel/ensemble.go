//surf:deterministic (compiled predictions must equal the trained ensemble's tree walk bit for bit)

package kernel

// LeafFeature marks a leaf in Node.Feature.
const LeafFeature = int32(-1)

// Node is one tree node in the neutral ensemble form. The split
// semantics are the trainer's: rows with value ≤ Threshold go Left,
// rows with value > Threshold (and NaN rows, which fail the ≤ test)
// go Right.
type Node struct {
	// Feature is the split feature index, or LeafFeature for a leaf.
	Feature int32
	// Threshold is the split threshold; for a leaf it holds the
	// shrunken leaf weight.
	Threshold float64
	// Left and Right index the children within the same tree's node
	// slice (unused for leaves).
	Left, Right int32
}

// Ensemble is a trained gradient-boosted ensemble in the neutral form
// Compile reads. The prediction it defines — BaseScore plus each
// tree's reached leaf weight, summed in tree order — is the value
// the compiled model must reproduce bit-for-bit. Node 0 of every tree
// is its root.
type Ensemble struct {
	BaseScore   float64
	NumFeatures int
	Trees       [][]Node
}

// NumNodes returns the total node count across all trees.
func (e Ensemble) NumNodes() int {
	total := 0
	for _, t := range e.Trees {
		total += len(t)
	}
	return total
}
