//surf:deterministic (kept rows must equal the full walk bit for bit)

package kernel

import (
	"math"
	"slices"
)

// The bounded walk serves threshold queries, which only need to know
// on which side of yR a row's prediction falls once it is invalid: a
// row predicted at or below yR (Above) or at or above it (Below)
// scores the same whatever the value. So PredictSide walks the trees
// in blocks of sideBlock and, before each block, drops every row whose
// partial sum plus a bound on the trees still to come cannot reach the
// valid side. Dropped rows read −Inf (Above) or +Inf (Below); the rows
// kept walk every tree in the same order as PredictBatch, through the
// same walk, so their predictions are bit-for-bit PredictBatch's.
//
// Cells. The bound on a tree is the largest leaf (for Below, the
// smallest) a row can reach, and a row's features narrow that set. So
// each feature's range is cut into up to sideBins bins at quantiles of
// the ensemble's split thresholds on it, and a row's cell is the tuple
// of its features' bins, at most maxSideCells cells in all. A row with
// a NaN feature uses the global cell, every leaf of every tree. The
// leaves a cell can reach are found by walking each tree once with a
// box of bins instead of a row, taking the branch gt would take for
// some value of the box: left if the box's least value is ≤ the
// threshold, right if its greatest is not (so a NaN threshold always
// goes right, and a leaf, which loops onto itself, stays put). The
// tables hold, per cell and block boundary, the suffix sum of the
// remaining trees' reachable extremes.
//
// Rounding. With p the partial sum after the walked trees, w_t the
// leaves the row will reach, M_t ≥ w_t the reachable extremes, k < 2^20
// the trees left and u = 2^-53, let S = |p| + A, where A is the
// computed sum of the remaining trees' largest |leaf| (A ≥ Σ|w_t| and
// A ≥ Σ|M_t| up to a factor 1 + γ_k). Then:
//   - the walk's final sum F = fl(…fl(p + w_1)… + w_k) lies within
//     γ_k·S of the exact p + Σ w_t, γ_k = k·u/(1−k·u) < 1.2e-10;
//   - the table's suffix sum B lies within γ_k·S of Σ M_t;
//   - the check computes fl(fl(p + B) + fl(sideMargin·fl(S))) and
//     drops the row when that is ≤ yR, which puts p + B at most
//     yR − sideMargin·S + 4u·S.
//
// So a dropped row has F ≤ p + Σ M_t + γ_k·S ≤ yR − (1e-9 − 2γ_k − 4u)·S
// ≤ yR: its prediction is on the invalid side. Below is the same check
// on the negated sums, which rounding treats symmetrically. A NaN or
// infinite term (a NaN leaf, an overflowing sum, an unreachable cell,
// which gets +Inf) makes the checked value NaN or +Inf, which never
// drops a row, and a non-finite yR disables the check.

const (
	// sideBlock is the number of trees walked between bound checks.
	sideBlock = 8
	// sideBins is the most bins one feature's range is cut into.
	sideBins = 4
	// maxSideCells caps the number of cells, the product of the
	// features' bin counts.
	maxSideCells = 256
	// sideChunk is the most rows one bounded pass holds, on its stack.
	sideChunk = 256
	// sideMargin is the relative rounding margin of a bound check.
	sideMargin = 1e-9
	// maxSideTrees is the most trees the rounding margin covers.
	maxSideTrees = 1 << 20
)

// sideBounds are the tables of a model's bounded walk.
type sideBounds struct {
	// cuts[f] are feature f's bin edges, strictly ascending. A
	// non-NaN value v falls in bin b = #{k : v > cuts[f][k]}: bin 0
	// is [−Inf, cuts[f][0]], bin b the values in (cuts[f][b−1],
	// cuts[f][b]], and the last bin ends at +Inf.
	cuts [][]float64
	// stride[f] weighs feature f's bin in a cell index.
	stride []int32
	// ncell is the number of cells; index ncell is the global cell.
	ncell int32
	// nblk is the number of tree blocks.
	nblk int32
	// up[cell*nblk+j] is Σ over the trees of blocks ≥ j of the
	// largest leaf a row of cell can reach; down is the same of the
	// negated smallest leaf.
	up, down []float64
	// mag[j] is Σ over the trees of blocks ≥ j of the largest |leaf|.
	mag []float64
}

// WithSideBounds returns a copy of c that carries the tables
// PredictSide bounds rows with. Building them walks each tree once,
// with boxes of bins in place of rows (boxWalk); a model without them
// (any Compile result) answers PredictSide with the full walk. An
// ensemble of more than maxSideTrees trees gets no tables: the
// rounding margin does not cover it.
func (c *Model) WithSideBounds() *Model {
	if len(c.trees) > maxSideTrees {
		return c
	}
	m := *c
	m.side = newSideBounds(c)
	return &m
}

// isLeaf reports whether node k is a leaf: a leaf is its own right
// child, a split's children come after it.
func (c *Model) isLeaf(k int32) bool { return c.nodes[k].kids+1 == k }

// newSideBounds builds c's cells and bound tables.
func newSideBounds(c *Model) *sideBounds {
	s := &sideBounds{
		cuts:   make([][]float64, c.nfeat),
		stride: make([]int32, c.nfeat),
		nblk:   int32((len(c.trees) + sideBlock - 1) / sideBlock),
	}
	s.cutBins(c)
	ncell := int(s.ncell) + 1
	s.up = make([]float64, ncell*int(s.nblk))
	s.down = make([]float64, ncell*int(s.nblk))
	s.mag = make([]float64, s.nblk)
	var depth int32
	for _, t := range c.trees {
		depth = max(depth, t.depth)
	}
	w := &boxWalk{
		c: c, s: s,
		lo:  make([]int32, c.nfeat),
		hi:  make([]int32, c.nfeat),
		sub: make([][]int32, depth),
		cur: make([]int32, c.nfeat),
		up:  make([]float64, ncell),
		dn:  make([]float64, ncell),
	}
	for f := range s.cuts {
		w.hi[f] = int32(len(s.cuts[f]))
	}
	for k := range w.sub {
		w.sub[k] = make([]int32, c.nfeat)
	}
	// Trees are taken last to first, so the running sums are the
	// suffix sums the tables hold at each block's first tree.
	sumUp := make([]float64, ncell)
	sumDn := make([]float64, ncell)
	var mag float64
	for t := len(c.trees) - 1; t >= 0; t-- {
		tr := c.trees[t]
		for k := range w.up {
			w.up[k], w.dn[k] = math.Inf(-1), math.Inf(-1)
		}
		w.visit(tr.root, tr.depth, w.lo, w.hi)
		end := int32(len(c.nodes))
		if t+1 < len(c.trees) {
			end = c.trees[t+1].root
		}
		global := int(s.ncell)
		var big float64
		for k := tr.root; k < end; k++ {
			if c.isLeaf(k) {
				v := c.leaf[k]
				w.up[global] = math.Max(w.up[global], v)
				w.dn[global] = math.Max(w.dn[global], -v)
				big = math.Max(big, math.Abs(v))
			}
		}
		mag += big
		for k := range sumUp {
			// A cell no leaf was reached from holds no row; +Inf keeps
			// it from ever dropping one.
			sumUp[k] += unreached(w.up[k])
			sumDn[k] += unreached(w.dn[k])
		}
		if t%sideBlock == 0 {
			j := t / sideBlock
			for k := range sumUp {
				s.up[k*int(s.nblk)+j] = sumUp[k]
				s.down[k*int(s.nblk)+j] = sumDn[k]
			}
			s.mag[j] = mag
		}
	}
	return s
}

// unreached maps the −Inf of a cell that reached no leaf to +Inf.
func unreached(v float64) float64 {
	if v == math.Inf(-1) {
		return math.Inf(1)
	}
	return v
}

// cutBins picks each feature's bin edges: the quantiles of its split
// thresholds (NaN thresholds aside), with the bin count per feature
// the largest ≤ sideBins whose power over the features stays within
// maxSideCells.
func (s *sideBounds) cutBins(c *Model) {
	thr := make([][]float64, c.nfeat)
	for k := range c.nodes {
		if n := &c.nodes[k]; !c.isLeaf(int32(k)) && !math.IsNaN(n.threshold) {
			thr[n.feature] = append(thr[n.feature], n.threshold)
		}
	}
	bins := sideBins
	for bins > 1 && !cellsFit(bins, c.nfeat) {
		bins--
	}
	s.ncell = 1
	for f, t := range thr {
		slices.Sort(t)
		var cuts []float64
		for k := 1; k < bins && len(t) > 0; k++ {
			if q := t[k*len(t)/bins]; len(cuts) == 0 || q > cuts[len(cuts)-1] {
				cuts = append(cuts, q)
			}
		}
		s.cuts[f], s.stride[f] = cuts, s.ncell
		s.ncell *= int32(len(cuts) + 1)
	}
}

// cellsFit reports whether bins^nfeat ≤ maxSideCells.
func cellsFit(bins, nfeat int) bool {
	cells := 1
	for range nfeat {
		if cells *= bins; cells > maxSideCells {
			return false
		}
	}
	return true
}

// cellOf returns the offset of row's cell in the bound tables.
func (s *sideBounds) cellOf(row []float64) int32 {
	var cell int32
	for f, cuts := range s.cuts {
		v := row[f]
		if v != v {
			return s.ncell * s.nblk
		}
		var b int32
		for _, edge := range cuts {
			b += gt(v, edge)
		}
		cell += b * s.stride[f]
	}
	return cell * s.nblk
}

// binMin and binMax are the least and greatest values of bin b of a
// feature with the given edges.
func binMin(cuts []float64, b int32) float64 {
	if b == 0 {
		return math.Inf(-1)
	}
	return math.Nextafter(cuts[b-1], math.Inf(1))
}

func binMax(cuts []float64, b int32) float64 {
	if int(b) == len(cuts) {
		return math.Inf(1)
	}
	return cuts[b]
}

// boxWalk walks one tree with a box of bins — the bin range
// [lo[f], hi[f]] of each feature — in place of a row, and records per
// cell the extremes of the leaves the box reaches.
type boxWalk struct {
	c      *Model
	s      *sideBounds
	lo, hi []int32   // the root's box: every bin
	sub    [][]int32 // sub[steps-1]: the child bound visit narrows
	cur    []int32   // the cell odometer of leafBox
	// up[cell] and dn[cell] are the largest leaf and the largest
	// negated leaf reached from cell in the current tree.
	up, dn []float64
}

// visit takes steps more steps from node idx with the box [lo, hi],
// as the walk takes a tree's depth in steps, and records every leaf
// it ends on. lo and hi are not modified.
func (w *boxWalk) visit(idx, steps int32, lo, hi []int32) {
	if steps == 0 {
		w.leafBox(w.c.leaf[idx], lo, hi)
		return
	}
	n := &w.c.nodes[idx]
	f, cuts := n.feature, w.s.cuts[n.feature]
	// Bin minima and maxima ascend, so the bins that can go left are
	// a prefix of the box's range and those that can go right a
	// suffix.
	left := hi[f]
	for left >= lo[f] && gt(binMin(cuts, left), n.threshold) == 1 {
		left--
	}
	right := lo[f]
	for right <= hi[f] && gt(binMax(cuts, right), n.threshold) == 0 {
		right++
	}
	// Deeper visits use lower sub slots, so one slot per step count
	// serves both children.
	sub := w.sub[steps-1]
	if left >= lo[f] {
		copy(sub, hi)
		sub[f] = left
		w.visit(n.kids, steps-1, lo, sub)
	}
	if right <= hi[f] {
		copy(sub, lo)
		sub[f] = right
		w.visit(n.kids+1, steps-1, sub, hi)
	}
}

// leafBox records leaf weight v for every cell of the box [lo, hi].
// Feature 0's stride is 1, so its bins are adjacent cells: the loop
// runs over that range for each bin tuple of the other features. A
// NaN leaf bounds nothing, so it records +Inf both ways.
func (w *boxWalk) leafBox(v float64, lo, hi []int32) {
	up, dn := v, -v
	if v != v {
		up, dn = math.Inf(1), math.Inf(1)
	}
	cur, stride := w.cur, w.s.stride
	copy(cur, lo)
	for {
		var base int32
		for f := 1; f < len(cur); f++ {
			base += cur[f] * stride[f]
		}
		ups, dns := w.up[base+lo[0]:base+hi[0]+1], w.dn[base+lo[0]:base+hi[0]+1]
		for k, u := range ups {
			ups[k], dns[k] = max(u, up), max(dns[k], dn)
		}
		f := 1
		for ; f < len(cur) && cur[f] == hi[f]; f++ {
			cur[f] = lo[f]
		}
		if f == len(cur) {
			return
		}
		cur[f]++
	}
}

// predictSide is the bounded walk behind PredictSide. It returns the
// number of tree walks it made, one per row and tree walked.
func (c *Model) predictSide(X [][]float64, out []float64, yR float64, below bool) int {
	if c.side == nil || math.IsInf(yR, 0) || math.IsNaN(yR) {
		c.predictBatch(X, out)
		return len(X) * len(c.trees)
	}
	c.check("PredictSide", X, out)
	walked := 0
	for lo := 0; lo < len(X); lo += sideChunk {
		hi := min(lo+sideChunk, len(X))
		walked += c.sidePass(X[lo:hi], out[lo:hi], yR, below)
	}
	return walked
}

// sidePass runs the bounded walk over at most sideChunk rows. The live
// rows, their partial sums, output slots and cells sit in stack arrays
// and are compacted after every check, so the walk over each block
// reads dense rows. Every output starts as the dropped value and the
// rows that walk every tree overwrite theirs, so the compaction keeps
// or drops a row without a branch.
func (c *Model) sidePass(X [][]float64, out []float64, yR float64, below bool) int {
	s := c.side
	var (
		rows [sideChunk][]float64
		acc  [sideChunk]float64
		at   [sideChunk]int32
		cell [sideChunk]int32
	)
	bound, sign, dropped := s.up, 1.0, math.Inf(-1)
	if below {
		bound, sign, dropped = s.down, -1, math.Inf(1)
	}
	lim := sign * yR
	n := copy(rows[:], X)
	for i, row := range rows[:n] {
		acc[i], at[i], cell[i] = c.baseScore, int32(i), s.cellOf(row)
		out[i] = dropped
	}
	walked := 0
	for j := int32(0); j < s.nblk && n > 0; j++ {
		mag, live := s.mag[j], 0
		for i := range n {
			p := acc[i]
			z := float64(sign*p+bound[cell[i]+j]) + float64((math.Abs(p)+mag)*sideMargin)
			rows[live], acc[live], at[live], cell[live] = rows[i], p, at[i], cell[i]
			live += int(gt(z, lim)) // kept unless z ≤ lim
		}
		n = live
		blk := c.trees[j*sideBlock : min((j+1)*sideBlock, int32(len(c.trees)))]
		c.walk(blk, rows[:n], acc[:n])
		walked += n * len(blk)
	}
	for i := range n {
		out[at[i]] = acc[i]
	}
	return walked
}
