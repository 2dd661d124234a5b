//surf:deterministic (compiled predictions must equal the trained ensemble's tree walk bit for bit)

package kernel

import "fmt"

// The scalar model is the flat-node float64 traversal: all trees
// flattened into one contiguous node array with per-tree root offsets,
// child pointers rebased to absolute indices and leaves encoded
// inline. Compared to walking []*tree node structs it removes a
// pointer indirection per tree, drops training-only fields from the
// hot data and packs each node into a quarter cache line — so batched
// prediction streams rows against cache-resident tree data instead of
// dragging the whole ensemble through the cache once per row.

// cnode is one compiled tree node, packed into 16 bytes so a cache
// line holds four nodes. Internal nodes carry the split threshold and
// feature plus the index of their left child; the right child always
// sits at kids+1 (bfsOrder guarantees it). Leaves are encoded inline:
// feature is LeafFeature and threshold holds the shrunken leaf weight.
type cnode struct {
	threshold float64
	feature   int32
	kids      int32
}

// scalarModel is the compiled flat-node form. It is safe for
// concurrent use and produces bit-for-bit the same predictions as the
// ensemble it was compiled from (same traversal decisions, same
// summation order).
type scalarModel struct {
	baseScore float64
	nfeat     int
	// roots[t] is the absolute index of tree t's root node.
	roots []int32
	nodes []cnode
}

// compileScalar flattens the ensemble into a scalarModel snapshot,
// independent of the ensemble it came from.
func compileScalar(e Ensemble) *scalarModel {
	c := &scalarModel{
		baseScore: e.BaseScore,
		nfeat:     e.NumFeatures,
		roots:     make([]int32, 0, len(e.Trees)),
		nodes:     make([]cnode, 0, e.NumNodes()),
	}
	var order []int32
	var newIdx []int32
	for _, t := range e.Trees {
		off := int32(len(c.nodes))
		c.roots = append(c.roots, off)
		order, newIdx = bfsOrder(t, off, order, newIdx)
		for _, old := range order {
			n := &t[old]
			if n.Feature == LeafFeature {
				c.nodes = append(c.nodes, cnode{threshold: n.Threshold, feature: LeafFeature})
			} else {
				c.nodes = append(c.nodes, cnode{
					threshold: n.Threshold,
					feature:   n.Feature,
					kids:      newIdx[n.Left],
				})
			}
		}
	}
	return c
}

// NumFeatures returns the feature dimensionality the model expects.
func (c *scalarModel) NumFeatures() int { return c.nfeat }

// NumTrees returns the number of trees in the compiled ensemble.
func (c *scalarModel) NumTrees() int { return len(c.roots) }

// NumNodes returns the total node count across all trees.
func (c *scalarModel) NumNodes() int { return len(c.nodes) }

// gt is the branch-free child selector: 0 when the row value is ≤ the
// split threshold (go left), else 1 — phrased as a negated ≤ rather
// than > so a NaN row value selects the right child exactly like the
// node-walking `row[f] <= threshold` test. Written so the compiler
// lowers it to a flag-set instruction instead of a data-dependent
// branch — tree splits are close to coin flips, and a mispredict per
// node costs more than the whole comparison.
func gt(a, b float64) int32 {
	if a <= b {
		return 0
	}
	return 1
}

// leaf walks one tree from root for one row and returns the leaf node
// index.
func (c *scalarModel) leaf(root int32, row []float64) int32 {
	nodes := c.nodes
	idx := root
	for {
		n := &nodes[idx]
		if n.feature < 0 {
			return idx
		}
		idx = n.kids + gt(row[n.feature], n.threshold)
	}
}

// Predict1 returns the prediction for a single raw feature row,
// bit-for-bit equal to the trained model's tree walk.
func (c *scalarModel) Predict1(row []float64) float64 {
	if len(row) != c.nfeat {
		panic(fmt.Sprintf("kernel: Predict1 row of dimension %d, want %d", len(row), c.nfeat))
	}
	out := c.baseScore
	for _, root := range c.roots {
		out += c.nodes[c.leaf(root, row)].threshold
	}
	return out
}

// PredictBatch writes predictions for every row of X into out without
// allocating: out must have exactly len(X) entries and every row must
// have NumFeatures columns (all rows are validated up front).
//
// Trees iterate in the outer loop and rows in the inner loop, so each
// tree's nodes are loaded into cache once per batch rather than once
// per row, and four rows walk the tree in lockstep to overlap their
// dependent node loads. The per-row sums still accumulate in ensemble
// order, keeping results bit-for-bit equal to Predict1.
func (c *scalarModel) PredictBatch(X [][]float64, out []float64) {
	if len(out) != len(X) {
		panic(fmt.Sprintf("kernel: PredictBatch output of length %d for %d rows", len(out), len(X)))
	}
	for i, row := range X {
		if len(row) != c.nfeat {
			panic(fmt.Sprintf("kernel: PredictBatch row %d of dimension %d, want %d", i, len(row), c.nfeat))
		}
		out[i] = c.baseScore
	}
	nodes := c.nodes
	for _, root := range c.roots {
		i := 0
		for ; i+4 <= len(X); i += 4 {
			r0, r1, r2, r3 := X[i], X[i+1], X[i+2], X[i+3]
			n0, n1, n2, n3 := root, root, root, root
			f0 := nodes[n0].feature
			f1, f2, f3 := f0, f0, f0
			for f0 >= 0 || f1 >= 0 || f2 >= 0 || f3 >= 0 {
				if f0 >= 0 {
					n := &nodes[n0]
					n0 = n.kids + gt(r0[f0], n.threshold)
					f0 = nodes[n0].feature
				}
				if f1 >= 0 {
					n := &nodes[n1]
					n1 = n.kids + gt(r1[f1], n.threshold)
					f1 = nodes[n1].feature
				}
				if f2 >= 0 {
					n := &nodes[n2]
					n2 = n.kids + gt(r2[f2], n.threshold)
					f2 = nodes[n2].feature
				}
				if f3 >= 0 {
					n := &nodes[n3]
					n3 = n.kids + gt(r3[f3], n.threshold)
					f3 = nodes[n3].feature
				}
			}
			out[i] += nodes[n0].threshold
			out[i+1] += nodes[n1].threshold
			out[i+2] += nodes[n2].threshold
			out[i+3] += nodes[n3].threshold
		}
		for ; i < len(X); i++ {
			out[i] += nodes[c.leaf(root, X[i])].threshold
		}
	}
}
