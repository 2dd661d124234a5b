//surf:deterministic (training is CI-gated byte-identical for any Workers count)

package gbt

// tree is one regression tree stored as a flat node slice (index 0 is
// the root). Leaves carry the shrunken weight added to the ensemble
// prediction.
type tree struct {
	Nodes []node
}

// node is either an internal split (Feature ≥ 0) or a leaf
// (Feature < 0). Split semantics: rows with value ≤ Threshold go Left.
type node struct {
	Feature   int32
	Threshold float64
	Left      int32
	Right     int32
	Weight    float64 // leaf value (already shrunken); 0 for splits
	Gain      float64 // split gain; kept in the artifact wire form
}

const leafMarker = int32(-1)

// minSplitGain is XGBoost's γ and minChildWeight its min_child_weight,
// both at their defaults: a split must gain strictly more than 0, and
// each child must hold a hessian sum of at least 1 (for squared loss,
// at least one row).
const (
	minSplitGain   = 0
	minChildWeight = 1
)

// splitCand is one node's best split over one (or all) features.
type splitCand struct {
	feat   int // -1 when no split beats minSplitGain and the child-weight floor
	bin    int
	gain   float64
	gL, hL float64 // gradient sums of the left child
}

// buildNode describes a frontier node during depth-wise growth. hist
// (when non-nil) holds the node's per-feature gradient histograms and
// cand the best split found over them; a nil hist marks a forced leaf
// (depth or child-weight bound), for which no histogram was built.
type buildNode struct {
	nodeIdx int32
	rows    []int32
	depth   int
	sumG    float64
	sumH    float64
	hist    []float64
	cand    splitCand
}

// treeBuilder grows trees depth-wise over binned features. It is
// created once per training run and reused across boosting rounds so
// its histogram buffer pools amortize.
//
// Histogram layout: one flat []float64 per node of length
// 2·nfeat·stride, feature j's gradient sums at [j·2·stride, +stride)
// and hessian sums at [j·2·stride+stride, +stride). Histograms are
// built for the smaller child of each split and derived for the
// sibling by subtraction from the parent (hist_sibling = hist_parent −
// hist_child), halving histogram work — the classic trick from
// LightGBM/XGBoost hist mode.
type treeBuilder struct {
	p       Params
	binner  *binner
	bins    []uint8 // row-major binned matrix
	nfeat   int
	grad    []float64
	hess    []float64
	workers int
	stride  int // histogram slots per feature (Params.MaxBins)
	// leafOf records, per training row, the leaf the current tree
	// routes it to. The trainer turns it into O(1) prediction updates.
	leafOf   []int32
	candBuf  []splitCand
	partials []float64
	// freeHist pools node-histogram buffers (2·nfeat·stride each);
	// freeCol pools single-feature chunk buffers (2·stride each) for
	// row-chunked accumulation. Pools are touched only from the
	// sequential orchestration path, never inside parallelFor.
	freeHist [][]float64
	freeCol  [][]float64
	scratch  [][]float64
}

// newTreeBuilder sizes a builder for a training run.
func newTreeBuilder(p Params, bnr *binner, bins []uint8, nfeat int, grad, hess []float64, leafOf []int32, workers int) *treeBuilder {
	return &treeBuilder{
		p:        p,
		binner:   bnr,
		bins:     bins,
		nfeat:    nfeat,
		grad:     grad,
		hess:     hess,
		workers:  workers,
		stride:   p.MaxBins,
		leafOf:   leafOf,
		candBuf:  make([]splitCand, nfeat),
		partials: make([]float64, 2*maxRowChunks),
	}
}

func (b *treeBuilder) getHist() []float64 {
	if n := len(b.freeHist); n > 0 {
		h := b.freeHist[n-1]
		b.freeHist = b.freeHist[:n-1]
		return h
	}
	return make([]float64, 2*b.nfeat*b.stride)
}

func (b *treeBuilder) putHist(h []float64) { b.freeHist = append(b.freeHist, h) }

// getColBufs returns n pooled single-feature buffers (not zeroed; the
// accumulation tasks zero their own buffer).
func (b *treeBuilder) getColBufs(n int) [][]float64 {
	if cap(b.scratch) < n {
		b.scratch = make([][]float64, n)
	}
	b.scratch = b.scratch[:n]
	for i := range b.scratch {
		if k := len(b.freeCol); k > 0 {
			b.scratch[i] = b.freeCol[k-1]
			b.freeCol = b.freeCol[:k-1]
		} else {
			b.scratch[i] = make([]float64, 2*b.stride)
		}
	}
	return b.scratch
}

func (b *treeBuilder) putColBufs(bufs [][]float64) {
	b.freeCol = append(b.freeCol, bufs...)
}

// build grows one tree over the given rows and records each row's leaf
// in leafOf.
func (b *treeBuilder) build(rows []int32) *tree {
	t := &tree{}
	sumG, sumH := b.rootSums(rows)
	t.Nodes = append(t.Nodes, node{Feature: leafMarker})
	root := buildNode{nodeIdx: 0, rows: rows, depth: 0, sumG: sumG, sumH: sumH}
	if b.canSplit(root.depth, root.rows, root.sumH) {
		b.prepare(&root)
	}
	frontier := []buildNode{root}
	for len(frontier) > 0 {
		nb := frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		if nb.hist == nil || nb.cand.feat < 0 {
			b.makeLeaf(t, nb)
			if nb.hist != nil {
				b.putHist(nb.hist)
			}
			continue
		}
		cand := nb.cand
		left, right := b.partition(nb.rows, cand.feat, cand.bin)
		if len(left) == 0 || len(right) == 0 {
			// Numerically possible when all rows share the split bin.
			b.makeLeaf(t, nb)
			b.putHist(nb.hist)
			continue
		}
		leftIdx := int32(len(t.Nodes))
		t.Nodes = append(t.Nodes, node{Feature: leafMarker})
		rightIdx := int32(len(t.Nodes))
		t.Nodes = append(t.Nodes, node{Feature: leafMarker})
		t.Nodes[nb.nodeIdx] = node{
			Feature:   int32(cand.feat),
			Threshold: b.binner.upperValue(cand.feat, cand.bin),
			Left:      leftIdx,
			Right:     rightIdx,
			Gain:      cand.gain,
		}
		ln := buildNode{nodeIdx: leftIdx, rows: left, depth: nb.depth + 1, sumG: cand.gL, sumH: cand.hL}
		rn := buildNode{nodeIdx: rightIdx, rows: right, depth: nb.depth + 1, sumG: nb.sumG - cand.gL, sumH: nb.sumH - cand.hL}
		b.prepareChildren(&ln, &rn, nb.hist)
		frontier = append(frontier, ln, rn)
	}
	return t
}

// canSplit reports whether a node could ever produce a valid split:
// below the depth bound, at least two rows, and (provably) enough
// hessian mass for two children. Nodes failing it become leaves
// without paying for a histogram.
func (b *treeBuilder) canSplit(depth int, rows []int32, sumH float64) bool {
	return depth < b.p.MaxDepth && len(rows) >= 2 && sumH >= 2*minChildWeight
}

// makeLeaf finalizes a frontier node as a leaf with the XGBoost weight
// −G/(H+λ), shrunken by the learning rate, and records the leaf
// assignment of every row it covers.
func (b *treeBuilder) makeLeaf(t *tree, nb buildNode) {
	w := -nb.sumG / (nb.sumH + b.p.Lambda)
	t.Nodes[nb.nodeIdx] = node{Feature: leafMarker, Weight: w * b.p.LearningRate}
	for _, r := range nb.rows {
		b.leafOf[r] = nb.nodeIdx
	}
}

// prepare builds a node's histograms by scanning its rows and finds
// its best split.
func (b *treeBuilder) prepare(nb *buildNode) {
	nb.hist = b.getHist()
	b.buildHistInto(nb.hist, nb.rows)
	nb.cand = b.findBest(nb)
}

// prepareChildren computes the children's histograms and split
// candidates after a split, using the histogram-subtraction trick:
// only the smaller child is ever accumulated from rows; its sibling is
// derived as parent − child. The parent's buffer is consumed (reused
// in place for a subtracted sibling, or returned to the pool). Every
// branch below depends only on row counts and split-eligibility flags,
// so the computation — and therefore the model — is identical for any
// worker count.
func (b *treeBuilder) prepareChildren(ln, rn *buildNode, parentHist []float64) {
	needL := b.canSplit(ln.depth, ln.rows, ln.sumH)
	needR := b.canSplit(rn.depth, rn.rows, rn.sumH)
	switch {
	case needL && needR:
		small, big := ln, rn
		if len(rn.rows) < len(ln.rows) {
			small, big = rn, ln
		}
		b.prepare(small)
		b.subtractHist(parentHist, small.hist)
		big.hist = parentHist
		big.cand = b.findBest(big)
	case needL || needR:
		ch, sib := ln, rn
		if needR {
			ch, sib = rn, ln
		}
		if len(ch.rows) <= len(sib.rows) {
			// The needed child is the smaller: accumulate it directly.
			b.prepare(ch)
			b.putHist(parentHist)
		} else {
			// The needed child is the larger: accumulate its small
			// sibling into a scratch histogram and subtract.
			tmp := b.getHist()
			b.buildHistInto(tmp, sib.rows)
			b.subtractHist(parentHist, tmp)
			b.putHist(tmp)
			ch.hist = parentHist
			ch.cand = b.findBest(ch)
		}
	default:
		b.putHist(parentHist)
	}
}

// rootSums accumulates the gradient totals over the tree's rows with
// the fixed chunking shared by all reductions.
func (b *treeBuilder) rootSums(rows []int32) (sumG, sumH float64) {
	n := len(rows)
	R := rowChunks(n)
	if R == 1 {
		for _, r := range rows {
			sumG += b.grad[r]
			sumH += b.hess[r]
		}
		return sumG, sumH
	}
	partials := b.partials[:2*R]
	parallelFor(b.workers, R, func(r int) {
		lo, hi := chunkRange(n, R, r)
		var g, h float64
		for _, row := range rows[lo:hi] {
			g += b.grad[row]
			h += b.hess[row]
		}
		partials[2*r] = g
		partials[2*r+1] = h
	})
	for r := 0; r < R; r++ {
		sumG += partials[2*r]
		sumH += partials[2*r+1]
	}
	return sumG, sumH
}

// accumCol adds the gradient statistics of rows to feature j's
// histogram (g and h each stride long).
func (b *treeBuilder) accumCol(g, h []float64, j int, rows []int32) {
	for _, r := range rows {
		bin := b.bins[int(r)*b.nfeat+j]
		g[bin] += b.grad[r]
		h[bin] += b.hess[r]
	}
}

// buildHistInto accumulates the node histogram for every feature,
// parallel across features and — for large nodes — across fixed row
// chunks whose partial histograms merge in chunk order.
// The chunked/unchunked choice depends only on the row count, never
// on the worker count: the same association of floating-point sums
// must be used for every Workers value (Workers=1 executes the
// chunked merge inline in identical order).
func (b *treeBuilder) buildHistInto(hist []float64, rows []int32) {
	nc := b.nfeat
	w := b.workers
	if len(rows)*nc < 4096 {
		w = 1 // tiny node: goroutine overhead would dominate
	}
	R := rowChunks(len(rows))
	if R == 1 {
		parallelFor(w, nc, func(j int) {
			base := j * 2 * b.stride
			g := hist[base : base+b.stride]
			h := hist[base+b.stride : base+2*b.stride]
			for k := range g {
				g[k], h[k] = 0, 0
			}
			b.accumCol(g, h, j, rows)
		})
		return
	}
	scratch := b.getColBufs(nc * R)
	parallelFor(w, nc*R, func(task int) {
		j, r := task/R, task%R
		buf := scratch[task]
		for k := range buf {
			buf[k] = 0
		}
		lo, hi := chunkRange(len(rows), R, r)
		b.accumCol(buf[:b.stride], buf[b.stride:], j, rows[lo:hi])
	})
	parallelFor(w, nc, func(j int) {
		base := j * 2 * b.stride
		g := hist[base : base+b.stride]
		h := hist[base+b.stride : base+2*b.stride]
		for k := range g {
			g[k], h[k] = 0, 0
		}
		for r := 0; r < R; r++ {
			buf := scratch[j*R+r]
			for k := 0; k < b.stride; k++ {
				g[k] += buf[k]
				h[k] += buf[b.stride+k]
			}
		}
	})
	b.putColBufs(scratch)
}

// histScanWorkers bounds the workers used for the cheap O(features·bins)
// histogram passes (subtraction, split scan): inline below ~16k
// touched floats, where goroutine setup would cost more than the
// scan. Execution-only — the per-feature decomposition is unchanged.
func (b *treeBuilder) histScanWorkers(nc int) int {
	if nc*b.stride < 16384 {
		return 1
	}
	return min(b.workers, nc)
}

// subtractHist derives a sibling histogram in place: parent −= child.
func (b *treeBuilder) subtractHist(parent, child []float64) {
	nc := b.nfeat
	parallelFor(b.histScanWorkers(nc), nc, func(j int) {
		nbins := b.binner.numBins(j)
		base := j * 2 * b.stride
		for k := 0; k < nbins; k++ {
			parent[base+k] -= child[base+k]
			parent[base+b.stride+k] -= child[base+b.stride+k]
		}
	})
}

// findBest scans every feature's histogram for the node's best split,
// in parallel, then reduces the per-feature candidates in
// ascending feature order. Ties break to the lowest feature index and,
// within a feature, the lowest bin (the ascending scan with a strict
// improvement test keeps the first), so the choice is identical for
// every worker count.
func (b *treeBuilder) findBest(nb *buildNode) splitCand {
	nc := b.nfeat
	parentScore := nb.sumG * nb.sumG / (nb.sumH + b.p.Lambda)
	parallelFor(b.histScanWorkers(nc), nc, func(j int) {
		b.candBuf[j] = b.scanCol(j, nb.hist, nb.sumG, nb.sumH, parentScore)
	})
	best := splitCand{feat: -1, gain: minSplitGain}
	for _, c := range b.candBuf {
		if c.feat >= 0 && c.gain > best.gain {
			best = c
		}
	}
	return best
}

// scanCol finds the best split of one feature: the lowest bin
// achieving the maximal gain strictly above minSplitGain, subject to
// the child-weight floor.
func (b *treeBuilder) scanCol(j int, hist []float64, sumG, sumH, parentScore float64) splitCand {
	cand := splitCand{feat: -1, gain: minSplitGain}
	nbins := b.binner.numBins(j)
	if nbins < 2 {
		return cand
	}
	base := j * 2 * b.stride
	g := hist[base : base+b.stride]
	h := hist[base+b.stride : base+2*b.stride]
	var cg, ch float64
	for k := 0; k < nbins-1; k++ {
		cg += g[k]
		ch += h[k]
		if ch < minChildWeight || sumH-ch < minChildWeight {
			continue
		}
		left := cg * cg / (ch + b.p.Lambda)
		right := (sumG - cg) * (sumG - cg) / (sumH - ch + b.p.Lambda)
		gn := 0.5 * (left + right - parentScore)
		if gn > cand.gain {
			cand = splitCand{feat: j, bin: k, gain: gn, gL: cg, hL: ch}
		}
	}
	return cand
}

// partition splits rows by the chosen (feature, bin) boundary,
// preserving row order within each side.
func (b *treeBuilder) partition(rows []int32, feat, bin int) (left, right []int32) {
	for _, r := range rows {
		if int(b.bins[int(r)*b.nfeat+feat]) <= bin {
			left = append(left, r)
		} else {
			right = append(right, r)
		}
	}
	return left, right
}
