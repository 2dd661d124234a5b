package dataset

import (
	"fmt"
	"math"

	"surf/internal/geom"
	"surf/internal/stats"
)

// GridIndex buckets rows into a uniform grid over the filter dimensions
// so region evaluations touch only overlapping cells. This is the
// classic spatial-aggregation speedup the paper contrasts with
// (Section VI, aggregate R-trees) — it accelerates the f-backed
// baselines but still scales with N, unlike the surrogate.
//
// Rows are stored in compressed sparse row (CSR) form: the rows of cell
// c are idx[start[c]:start[c+1]], in row order, and cells are numbered
// in mixed radix with the last dimension fastest, so a run of cells
// along the last dimension owns one contiguous slice of idx.
//
// An evaluation first derives, per dimension, the range of cells the
// region overlaps and the range of cells it contains entirely (the
// interior range), both read from the boundary array rows are assigned
// with. Cells inside the interior range in every dimension form the
// interior block; the rows of the other overlapped cells are tested,
// in the dimensions where their cell is not interior. Count and Ratio
// answer the interior block from inclusive d-dimensional prefix tables
// of per-cell counts (and non-zero counts), so they cost O(boundary
// rows) plus 2^d lookups. Sum, Mean, Min and Max merge one pre-merged
// float partial per interior cell, in mixed-radix cell order, so their
// sums fold in the same order whatever the region. The other
// statistics read every overlapped row, the interior ones untested.
type GridIndex struct {
	d    *Dataset
	spec Spec
	// res is the number of cells per dimension.
	res int
	// domain bounds of the filter columns.
	domain geom.Rect
	// width of a cell per dimension.
	width []float64
	// bounds[j] holds the res+1 cell boundary positions of dimension
	// j: cell c spans [bounds[j][c], bounds[j][c+1]]. Cell membership
	// and the interior ranges are both defined from this one array so
	// they can never disagree; the last boundary is clamped to the true
	// domain maximum because rows at the domain edge are assigned to
	// the last cell even when float accumulation leaves min + res·width
	// short of it.
	bounds [][]float64
	// filters are the filter columns in spec order; target is the
	// target column, nil when the statistic reads none.
	filters [][]float64
	target  []float64
	// start and idx are the CSR row layout: the rows of cell c are
	// idx[start[c]:start[c+1]], in row order.
	start []int32
	idx   []int32
	// countPrefix and nonzeroPrefix are inclusive prefix tables over the
	// cells: entry c sums the rows (the rows with a non-zero target) of
	// every cell whose coordinates are all ≤ c's. countPrefix is built
	// for Count and Ratio, nonzeroPrefix for Ratio only.
	countPrefix   []int32
	nonzeroPrefix []int32
	// part holds each cell's target values folded in row order: their
	// sum for Sum and Mean, their minimum for Min, their maximum for
	// Max. It is nil for every other statistic.
	part []float64
}

// maxGridCells caps memory: with res^d > maxGridCells the resolution is
// reduced per dimension.
const maxGridCells = 1 << 20

// maxGridRows is the most rows a grid can index: row indices, CSR
// offsets and prefix-table entries are int32.
const maxGridRows = math.MaxInt32

// checkGridRows rejects datasets whose row indices would not fit the
// grid's int32 layout.
func checkGridRows(n int) error {
	if n > maxGridRows {
		return fmt.Errorf("dataset: %d rows exceed the grid index limit of %d", n, maxGridRows)
	}
	return nil
}

// NewGridIndex builds a grid index with the given per-dimension
// resolution (use 0 for an automatic choice).
func NewGridIndex(d *Dataset, spec Spec, res int) (*GridIndex, error) {
	if err := spec.Validate(d); err != nil {
		return nil, err
	}
	if err := checkGridRows(d.Len()); err != nil {
		return nil, err
	}
	dims := len(spec.FilterCols)
	if res <= 0 {
		// Aim for ~an average of a few dozen rows per occupied cell in
		// low dimensions while respecting the global cell cap.
		res = int(math.Ceil(math.Pow(float64(d.Len())/16+1, 1/float64(dims))))
		if res < 2 {
			res = 2
		}
		if res > 256 {
			res = 256
		}
	}
	for pow(res, dims) > maxGridCells && res > 2 {
		res--
	}
	g := &GridIndex{d: d, spec: spec, res: res}
	g.domain = d.Domain(spec.FilterCols)
	g.width = make([]float64, dims)
	g.bounds = make([][]float64, dims)
	for j := 0; j < dims; j++ {
		w := (g.domain.Max[j] - g.domain.Min[j]) / float64(res)
		if w <= 0 {
			w = 1 // degenerate dimension: everything lands in cell 0
		}
		g.width[j] = w
		b := make([]float64, res+1)
		for k := range b {
			b[k] = g.domain.Min[j] + float64(k)*w
		}
		if b[res] < g.domain.Max[j] {
			b[res] = g.domain.Max[j]
		}
		g.bounds[j] = b
	}
	g.filters = make([][]float64, dims)
	for j, c := range spec.FilterCols {
		g.filters[j] = d.cols[c]
	}
	if spec.Stat.NeedsTarget() {
		g.target = d.cols[spec.TargetCol]
	}

	// Cell of every row, then a stable counting sort into CSR form.
	n := d.Len()
	cells := pow(res, dims)
	cellOfRow := make([]int32, n)
	for j, col := range g.filters {
		for i, v := range col {
			cellOfRow[i] = cellOfRow[i]*int32(res) + int32(g.cellOf(v, j))
		}
	}
	g.start = make([]int32, cells+1)
	for _, c := range cellOfRow {
		g.start[c+1]++
	}
	for c := 0; c < cells; c++ {
		g.start[c+1] += g.start[c]
	}
	next := append([]int32(nil), g.start[:cells]...)
	g.idx = make([]int32, n)
	for i, c := range cellOfRow {
		g.idx[next[c]] = int32(i)
		next[c]++
	}

	switch spec.Stat {
	case stats.Count, stats.Ratio:
		g.countPrefix = make([]int32, cells)
		for c := range g.countPrefix {
			g.countPrefix[c] = g.start[c+1] - g.start[c]
		}
		g.prefixSums(g.countPrefix)
		if spec.Stat == stats.Ratio {
			g.nonzeroPrefix = make([]int32, cells)
			for i, c := range cellOfRow {
				if g.target[i] != 0 {
					g.nonzeroPrefix[c]++
				}
			}
			g.prefixSums(g.nonzeroPrefix)
		}
	case stats.Sum, stats.Mean, stats.Min, stats.Max:
		g.part = make([]float64, cells)
		id := g.identity()
		for c := range g.part {
			g.part[c] = id
		}
		for i, c := range cellOfRow {
			g.part[c] = g.fold(g.part[c], g.target[i])
		}
	}
	return g, nil
}

// Spec returns the index's spec.
func (g *GridIndex) Spec() Spec { return g.spec }

// Dims returns the region dimensionality.
func (g *GridIndex) Dims() int { return len(g.spec.FilterCols) }

// Resolution returns the per-dimension cell count.
func (g *GridIndex) Resolution() int { return g.res }

// cellOf maps a coordinate to its cell: the c with bounds[c] ≤ v <
// bounds[c+1], clamped to [0, res). The division only provides a
// starting hint; the fixup walk makes the result exactly consistent
// with the boundary array (and therefore with the interior ranges),
// which float rounding of min + c·width alone cannot guarantee.
func (g *GridIndex) cellOf(v float64, dim int) int {
	c := int((v - g.domain.Min[dim]) / g.width[dim])
	if c < 0 {
		c = 0
	}
	if c >= g.res {
		c = g.res - 1
	}
	b := g.bounds[dim]
	for c > 0 && v < b[c] {
		c--
	}
	for c < g.res-1 && v >= b[c+1] {
		c++
	}
	return c
}

// prefixSums turns per-cell values into the inclusive d-dimensional
// prefix table in place, one dimension at a time.
func (g *GridIndex) prefixSums(p []int32) {
	stride := 1
	for range g.Dims() {
		for c := stride; c < len(p); c++ {
			if (c/stride)%g.res != 0 {
				p[c] += p[c-stride]
			}
		}
		stride *= g.res
	}
}

// window is the cell geometry of one region: per dimension, the range
// [lo, hi] of overlapped cells and, inside it, the range [ilo, ihi] of
// cells the region contains entirely. interior reports whether every
// interior range is non-empty, i.e. whether the interior block is.
// coord, tests and match are the walk's scratch space.
type window struct {
	lo, hi, ilo, ihi, coord, tests []int
	match                          []int32
	interior                       bool
}

// window computes the region's cell geometry; ok is false when the
// region misses the domain in some dimension.
func (g *GridIndex) window(region geom.Rect) (w window, ok bool) {
	dims := g.Dims()
	s := make([]int, 6*dims)
	w = window{
		lo: s[:dims], hi: s[dims : 2*dims], ilo: s[2*dims : 3*dims], ihi: s[3*dims : 4*dims],
		coord: s[4*dims : 5*dims], tests: s[5*dims:], match: make([]int32, matchBlock), interior: true,
	}
	for j := 0; j < dims; j++ {
		if region.Max[j] < g.domain.Min[j] || region.Min[j] > g.domain.Max[j] {
			return w, false
		}
		lo := g.cellOf(region.Min[j], j)
		// An inverted region still visits one cell, whose per-row
		// tests reject every row.
		hi := max(g.cellOf(region.Max[j], j), lo)
		// Cell c is contained when !(b[c] < Min) and !(b[c+1] > Max),
		// the rect-containment test written so a NaN bound classifies
		// the same way. Both conditions are monotone in c, so the
		// contained cells form one range.
		b := g.bounds[j]
		ilo, ihi := lo, hi
		for ilo <= hi && b[ilo] < region.Min[j] {
			ilo++
		}
		for ihi >= ilo && b[ihi+1] > region.Max[j] {
			ihi--
		}
		w.lo[j], w.hi[j], w.ilo[j], w.ihi[j] = lo, hi, ilo, ihi
		if ilo > ihi {
			w.interior = false
		}
	}
	return w, true
}

// visit walks the window's overlapped cells in mixed-radix order as
// runs along the last dimension, split where the last dimension's
// interior range begins and ends. seg receives each run's first and
// last cell id and the dimensions whose coordinates lie outside their
// interior ranges: only those need a per-row test, because every row
// of a cell lies within the cell's bounds. A run with no such
// dimension lies in the interior block. The run's rows are
// idx[start[a]:start[b+1]].
func (g *GridIndex) visit(w window, seg func(a, b int, tests []int)) {
	last := len(w.lo) - 1
	coord := w.coord[:last] // every dimension but the last
	copy(coord, w.lo)
	for {
		base, outer := 0, w.tests[:0]
		for j, c := range coord {
			base = base*g.res + c
			if c < w.ilo[j] || c > w.ihi[j] {
				outer = append(outer, j)
			}
		}
		base *= g.res
		lo, hi := w.lo[last], w.hi[last]
		ia, ib := w.ilo[last], w.ihi[last]
		edge := append(outer, last)
		if ia > ib {
			seg(base+lo, base+hi, edge)
		} else {
			if lo < ia {
				seg(base+lo, base+ia-1, edge)
			}
			seg(base+ia, base+ib, outer)
			if ib < hi {
				seg(base+ib+1, base+hi, edge)
			}
		}
		j := last - 1
		for ; j >= 0; j-- {
			coord[j]++
			if coord[j] <= w.hi[j] {
				break
			}
			coord[j] = w.lo[j]
		}
		if j < 0 {
			return
		}
	}
}

// rows returns the CSR rows of the cell run [a, b].
func (g *GridIndex) rows(a, b int) []int32 { return g.idx[g.start[a]:g.start[b+1]] }

// matchBlock is how many rows eachMatch tests at a time.
const matchBlock = 64

// eachMatch passes fn the rows of the cell run [a, b] that lie inside
// the region in the tested dimensions, in row order, a block at a time.
// It gathers a block's coordinates before comparing any of them, so the
// scattered loads of a block overlap instead of each waiting on a
// mispredicted branch; the comparisons and the compaction are
// branch-free. With no tested dimension every row matches.
func (g *GridIndex) eachMatch(region geom.Rect, w window, tests []int, a, b int, fn func(rows []int32)) {
	rows := g.rows(a, b)
	if len(tests) == 0 {
		fn(rows)
		return
	}
	var v [matchBlock]float64
	var keep [matchBlock]int
	out := w.match
	for len(rows) > 0 {
		block := rows[:min(len(rows), matchBlock)]
		rows = rows[len(block):]
		for k := range block {
			keep[k] = 1
		}
		for _, j := range tests {
			col := g.filters[j]
			for k, i := range block {
				v[k] = col[i]
			}
			lo, hi := region.Min[j], region.Max[j]
			for k := range block {
				if v[k] < lo {
					keep[k] = 0
				}
				if v[k] > hi {
					keep[k] = 0
				}
			}
		}
		n := 0
		for k, i := range block {
			out[n] = i
			n += keep[k]
		}
		fn(out[:n])
	}
}

// blockSum sums the per-cell values behind the inclusive prefix table p
// over the window's interior block, by inclusion–exclusion over its 2^d
// corners.
func (g *GridIndex) blockSum(p []int32, w window) int {
	total := 0
corners:
	for mask := 0; mask < 1<<len(w.ilo); mask++ {
		id, neg := 0, false
		for j := range w.ilo {
			c := w.ihi[j]
			if mask&(1<<j) != 0 {
				c = w.ilo[j] - 1
				if c < 0 {
					continue corners
				}
				neg = !neg
			}
			id = id*g.res + c
		}
		if neg {
			total -= int(p[id])
		} else {
			total += int(p[id])
		}
	}
	return total
}

// identity is the fold's starting value: 0 for a sum, ±Inf for a
// minimum or maximum.
func (g *GridIndex) identity() float64 {
	switch g.spec.Stat {
	case stats.Min:
		return math.Inf(1)
	case stats.Max:
		return math.Inf(-1)
	}
	return 0
}

// fold merges v into the running partial m the way the statistic
// combines values: a minimum for Min, a maximum for Max, a sum for Sum
// and Mean.
func (g *GridIndex) fold(m, v float64) float64 {
	switch g.spec.Stat {
	case stats.Min:
		if v < m {
			return v
		}
		return m
	case stats.Max:
		if v > m {
			return v
		}
		return m
	}
	return m + v
}

// Evaluate computes f over the region using the grid.
func (g *GridIndex) Evaluate(region geom.Rect) (float64, int) {
	if region.Dims() != g.Dims() {
		panic(fmt.Sprintf("dataset: region of dimension %d for index of dimension %d", region.Dims(), g.Dims()))
	}
	customFn, isCustom := stats.CustomFunc(g.spec.Stat)
	w, ok := g.window(region)
	if !ok {
		// Custom statistics define their own empty-set value, so an
		// off-domain region goes through the registered function
		// exactly as the scan evaluators do.
		if isCustom {
			return customFn(nil), 0
		}
		return g.emptyResult()
	}

	switch g.spec.Stat {
	case stats.Count, stats.Ratio:
		count, nonzero := 0, 0
		if w.interior {
			count = g.blockSum(g.countPrefix, w)
			if g.nonzeroPrefix != nil {
				nonzero = g.blockSum(g.nonzeroPrefix, w)
			}
		}
		g.visit(w, func(a, b int, tests []int) {
			if len(tests) == 0 {
				return // counted from the prefix tables
			}
			g.eachMatch(region, w, tests, a, b, func(rows []int32) {
				count += len(rows)
				if g.nonzeroPrefix == nil {
					return
				}
				for _, i := range rows {
					if g.target[i] != 0 {
						nonzero++
					}
				}
			})
		})
		return g.finishDecomposable(count, nonzero, 0)
	case stats.Sum, stats.Mean, stats.Min, stats.Max:
		count, m := 0, g.identity()
		g.visit(w, func(a, b int, tests []int) {
			if len(tests) == 0 {
				// An empty cell's partial is the fold's identity, and a
				// sum that starts at +0 never reaches -0, so folding it
				// changes nothing.
				for c := a; c <= b; c++ {
					count += int(g.start[c+1] - g.start[c])
					m = g.fold(m, g.part[c])
				}
				return
			}
			g.eachMatch(region, w, tests, a, b, func(rows []int32) {
				count += len(rows)
				for _, i := range rows {
					m = g.fold(m, g.target[i])
				}
			})
		})
		return g.finishDecomposable(count, 0, m)
	}

	// Custom statistics collect the in-region rows and apply the
	// registered row function; the rest stream values through an
	// accumulator.
	var idx []int
	var acc stats.Accumulator
	if !isCustom {
		acc = g.spec.Stat.NewAccumulator()
	}
	g.visit(w, func(a, b int, tests []int) {
		g.eachMatch(region, w, tests, a, b, func(rows []int32) {
			for _, i := range rows {
				if isCustom {
					idx = append(idx, int(i))
				} else {
					acc.Add(g.target[i])
				}
			}
		})
	})
	if isCustom {
		return customFn(g.d.materializeRows(idx)), len(idx)
	}
	if acc.Count() == 0 {
		return math.NaN(), 0
	}
	return acc.Value(), acc.Count()
}

func (g *GridIndex) emptyResult() (float64, int) {
	switch g.spec.Stat {
	case stats.Count:
		return 0, 0
	case stats.Sum:
		return 0, 0
	default:
		return math.NaN(), 0
	}
}

// finishDecomposable turns merged partials into the statistic: the
// row count, the non-zero count (Ratio) and the folded target values
// (Sum, Mean, Min, Max).
func (g *GridIndex) finishDecomposable(count, nonzero int, m float64) (float64, int) {
	if count == 0 {
		return g.emptyResult()
	}
	switch g.spec.Stat {
	case stats.Count:
		return float64(count), count
	case stats.Sum, stats.Min, stats.Max:
		return m, count
	case stats.Mean:
		return m / float64(count), count
	case stats.Ratio:
		return float64(nonzero) / float64(count), count
	}
	panic(fmt.Sprintf("dataset: finishDecomposable on %v", g.spec.Stat))
}

func pow(base, exp int) int {
	out := 1
	for i := 0; i < exp; i++ {
		if out > maxGridCells {
			return out
		}
		out *= base
	}
	return out
}
