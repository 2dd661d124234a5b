//surf:deterministic (compiled predictions must equal the trained ensemble's tree walk bit for bit)

package kernel

import (
	"fmt"
	"math"
)

// The scalar model is the flat-node float64 traversal: all trees
// flattened into one contiguous node array with per-tree root offsets,
// child pointers rebased to absolute indices and leaves looping onto
// themselves. Compared to walking []*tree node structs it removes a
// pointer indirection per tree, drops training-only fields from the
// hot data and packs each node into a quarter cache line — so batched
// prediction streams rows against cache-resident tree data instead of
// dragging the whole ensemble through the cache once per row.
//
// Because a leaf is its own child, walking a tree is a fixed number of
// steps — the tree's depth — with no leaf test: a row that reaches a
// leaf early stays there for the remaining steps. Every row of a batch
// takes the same trip count, so eight rows walk a tree in lockstep as
// straight-line code.

// cnode is one compiled tree node, packed into 16 bytes so a cache
// line holds four nodes. A split carries its threshold and feature
// plus the index of its left child; the right child always sits at
// kids+1 (bfsOrder guarantees it). A leaf loops onto itself: its
// threshold is NaN, so gt picks kids+1, and kids is its own index − 1;
// its feature is 0. Leaf weights live in Model.leaf.
type cnode struct {
	threshold float64
	feature   int32
	kids      int32
}

// ctree is one compiled tree: the absolute index of its root and its
// depth, the number of steps from the root to its deepest leaf.
type ctree struct {
	root  int32
	depth int32
}

// Model is a compiled, immutable inference snapshot of one ensemble in
// the flat-node form. It is safe for concurrent use and produces
// bit-for-bit the same predictions as the ensemble it was compiled
// from (same traversal decisions, same summation order). Predict1 and
// PredictBatch panic on dimension mismatches — callers validate at the
// public boundary (core.Surrogate and Engine.PredictStatisticBatch
// return wrapped sentinel errors there).
type Model struct {
	baseScore float64
	nfeat     int
	trees     []ctree
	nodes     []cnode
	// leaf[k] is node k's shrunken leaf weight, 0 for a split.
	leaf []float64
	// side holds the bounded walk's tables (nil unless built by
	// WithSideBounds).
	side *sideBounds
}

// Compile flattens e into a Model snapshot, independent of the
// ensemble it came from. All production compilation paths go through
// here.
func Compile(e Ensemble) *Model {
	c := &Model{
		baseScore: e.BaseScore,
		nfeat:     e.NumFeatures,
		trees:     make([]ctree, 0, len(e.Trees)),
		nodes:     make([]cnode, 0, e.NumNodes()),
		leaf:      make([]float64, 0, e.NumNodes()),
	}
	var order, newIdx []int32
	var depth int32
	for _, t := range e.Trees {
		off := int32(len(c.nodes))
		order, newIdx, depth = bfsOrder(t, off, order, newIdx)
		c.trees = append(c.trees, ctree{root: off, depth: depth})
		for _, old := range order {
			n := &t[old]
			if n.Feature == LeafFeature {
				self := int32(len(c.nodes))
				c.nodes = append(c.nodes, cnode{threshold: math.NaN(), kids: self - 1})
				c.leaf = append(c.leaf, n.Threshold)
			} else {
				c.nodes = append(c.nodes, cnode{
					threshold: n.Threshold,
					feature:   n.Feature,
					kids:      newIdx[n.Left],
				})
				c.leaf = append(c.leaf, 0)
			}
		}
	}
	return c
}

// gt is the branch-free child selector: 0 when the row value is ≤ the
// split threshold (go left), else 1 — phrased as a negated ≤ rather
// than > so a NaN row value or a NaN threshold selects the right child
// exactly like the node-walking `row[f] <= threshold` test. Written so
// the compiler lowers it to a flag-set instruction instead of a
// data-dependent branch — tree splits are close to coin flips, and a
// mispredict per node costs more than the whole comparison.
func gt(a, b float64) int32 {
	if a <= b {
		return 0
	}
	return 1
}

// predict1 returns the prediction for a single raw feature row,
// bit-for-bit equal to the trained model's tree walk.
func (c *Model) predict1(row []float64) float64 {
	if len(row) != c.nfeat {
		panic(fmt.Sprintf("kernel: Predict1 row of dimension %d, want %d", len(row), c.nfeat))
	}
	nodes := c.nodes
	out := c.baseScore
	for _, t := range c.trees {
		idx := t.root
		for d := t.depth; d > 0; d-- {
			n := &nodes[idx]
			idx = n.kids + gt(row[n.feature], n.threshold)
		}
		out += c.leaf[idx]
	}
	return out
}

// predictBatch writes predictions for every row of X into out without
// allocating: out must have exactly len(X) entries and every row must
// have the compiled feature count (all rows are validated up front).
// It is the block walk of predictSide with no bound: every row walks
// every tree.
func (c *Model) predictBatch(X [][]float64, out []float64) {
	c.check("PredictBatch", X, out)
	for i := range out {
		out[i] = c.baseScore
	}
	c.walk(c.trees, X, out)
}

// check panics unless out has one entry per row of X and every row
// has the compiled feature count.
func (c *Model) check(op string, X [][]float64, out []float64) {
	if len(out) != len(X) {
		panic(fmt.Sprintf("kernel: %s output of length %d for %d rows", op, len(out), len(X)))
	}
	for i, row := range X {
		if len(row) != c.nfeat {
			panic(fmt.Sprintf("kernel: %s row %d of dimension %d, want %d", op, i, len(row), c.nfeat))
		}
	}
}

// walk adds, for every row of X, the leaf weight each of trees reaches
// to out[i]. It is the kernel's one batch walk.
//
// Trees iterate in the outer loop and rows in the inner loop, so each
// tree's nodes are loaded into cache once per batch rather than once
// per row, and eight rows take the tree's depth in steps in lockstep
// to overlap their dependent node loads. A short last group repeats
// its final row to fill the eight lanes and adds only its own rows'
// leaves. The per-row sums still accumulate in ensemble order, keeping
// results bit-for-bit equal to predict1.
func (c *Model) walk(trees []ctree, X [][]float64, out []float64) {
	nodes, leaf := c.nodes, c.leaf
	last := len(X) - 1
	for _, t := range trees {
		for i := 0; i <= last; i += 8 {
			r0, r1, r2, r3 := X[i], X[min(i+1, last)], X[min(i+2, last)], X[min(i+3, last)]
			r4, r5, r6, r7 := X[min(i+4, last)], X[min(i+5, last)], X[min(i+6, last)], X[min(i+7, last)]
			n0, n1, n2, n3 := t.root, t.root, t.root, t.root
			n4, n5, n6, n7 := n0, n0, n0, n0
			for d := t.depth; d > 0; d-- {
				a0, a1, a2, a3 := &nodes[n0], &nodes[n1], &nodes[n2], &nodes[n3]
				n0 = a0.kids + gt(r0[a0.feature], a0.threshold)
				n1 = a1.kids + gt(r1[a1.feature], a1.threshold)
				n2 = a2.kids + gt(r2[a2.feature], a2.threshold)
				n3 = a3.kids + gt(r3[a3.feature], a3.threshold)
				a4, a5, a6, a7 := &nodes[n4], &nodes[n5], &nodes[n6], &nodes[n7]
				n4 = a4.kids + gt(r4[a4.feature], a4.threshold)
				n5 = a5.kids + gt(r5[a5.feature], a5.threshold)
				n6 = a6.kids + gt(r6[a6.feature], a6.threshold)
				n7 = a7.kids + gt(r7[a7.feature], a7.threshold)
			}
			if i+8 <= len(X) {
				o := out[i : i+8 : i+8]
				o[0] += leaf[n0]
				o[1] += leaf[n1]
				o[2] += leaf[n2]
				o[3] += leaf[n3]
				o[4] += leaf[n4]
				o[5] += leaf[n5]
				o[6] += leaf[n6]
				o[7] += leaf[n7]
				continue
			}
			w := [8]float64{leaf[n0], leaf[n1], leaf[n2], leaf[n3], leaf[n4], leaf[n5], leaf[n6], leaf[n7]}
			for k, v := range w[:len(X)-i] {
				out[i+k] += v
			}
		}
	}
}
