package dataset

import (
	"math"
	"math/rand/v2"
	"testing"

	"surf/internal/geom"
	"surf/internal/stats"
)

// The tests in this file pin the evaluator-parity contract: LinearScan
// is the reference semantics, and GridIndex must report the same
// (value, count) for any region. The deterministic cases below
// are regressions for the grid's boundary-cell bug, where the last
// cell's float-accumulated rect fell short of the true domain maximum:
// a region containing that rect took the pre-merged interior fast path
// and counted the edge-clamped rows a per-row test rejects.

// boundaryDataset builds a single-column dataset spanning [0.1, 0.7]
// with one row exactly at the domain maximum — the row the pre-fix
// grid miscounted — plus a target column for aggregate statistics.
func boundaryDataset() *Dataset {
	xs := []float64{0.1, 0.15, 0.22, 0.31, 0.44, 0.58, 0.65, 0.69, 0.7}
	vs := make([]float64, len(xs))
	for i, x := range xs {
		vs[i] = 10 * x
	}
	return MustNew([]string{"x", "v"}, [][]float64{xs, vs})
}

// TestGridBoundaryCellParity reproduces the boundary-slab
// disagreement: with res=13 over [0.1, 0.7] the last cell's
// accumulated upper bound lands at 0.6999999999999998 < 0.7, so a
// region ending just below the domain maximum used to contain the
// cell's rect while excluding the row at 0.7.
func TestGridBoundaryCellParity(t *testing.T) {
	d := boundaryDataset()
	below := math.Nextafter(0.7, math.Inf(-1))
	for _, tc := range []struct {
		name string
		spec Spec
	}{
		{"count", Spec{FilterCols: []int{0}, Stat: stats.Count}},
		{"sum", Spec{FilterCols: []int{0}, Stat: stats.Sum, TargetCol: 1}},
		{"mean", Spec{FilterCols: []int{0}, Stat: stats.Mean, TargetCol: 1}},
		{"max", Spec{FilterCols: []int{0}, Stat: stats.Max, TargetCol: 1}},
		{"median", Spec{FilterCols: []int{0}, Stat: stats.Median, TargetCol: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ls, err := NewLinearScan(d, tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			for res := 2; res <= 64; res++ {
				g, err := NewGridIndex(d, tc.spec, res)
				if err != nil {
					t.Fatal(err)
				}
				// Regions ending at every cell boundary, at the domain
				// maximum, and one ulp below it.
				maxes := append([]float64{0.7, below}, cellBoundaries(g, 0)...)
				for _, hi := range maxes {
					region := geom.Rect{Min: []float64{0.05}, Max: []float64{hi}}
					assertSameEval(t, ls, g, region)
				}
			}
		})
	}
}

// TestGridDegenerateBoundaryParity covers the degenerate-dimension
// path (zero extent forces width 1): the synthetic cell rects extend a
// full unit past the domain, and cell assignment must stay consistent
// with them.
func TestGridDegenerateBoundaryParity(t *testing.T) {
	n := 50
	xs := make([]float64, n)
	ys := make([]float64, n)
	vs := make([]float64, n)
	for i := range xs {
		xs[i] = 2.5 // degenerate: every row at the same coordinate
		ys[i] = float64(i%10) / 10
		vs[i] = float64(i)
	}
	d := MustNew([]string{"x", "y", "v"}, [][]float64{xs, ys, vs})
	spec := Spec{FilterCols: []int{0, 1}, Stat: stats.Sum, TargetCol: 2}
	ls, err := NewLinearScan(d, spec)
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGridIndex(d, spec, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, region := range []geom.Rect{
		{Min: []float64{2.5, 0}, Max: []float64{2.5, 1}},            // exactly the degenerate slab
		{Min: []float64{2.4, 0}, Max: []float64{3.6, 1}},            // contains the synthetic [2.5, 3.5] rect
		{Min: []float64{2.4, 0.15}, Max: []float64{2.6, 0.85}},      // boundary cells in y
		{Min: []float64{2.6, 0}, Max: []float64{3.4, 1}},            // inside the synthetic rect but past all rows
		{Min: []float64{0, 0}, Max: []float64{2.5, 0.9}},            // region max at the degenerate coordinate
		{Min: []float64{2.5, 0.9}, Max: []float64{2.5, 0.9}},        // point region on a row
		{Min: []float64{1, -1}, Max: []float64{2, 2}},               // fully below the slab
		{Min: []float64{2.5, -0.5}, Max: []float64{2.5, 1.5}},       // y range exceeding the domain
		{Min: []float64{2.49999, 0.299}, Max: []float64{2.5, 0.31}}, // thin boundary sliver
	} {
		assertSameEval(t, ls, g, region)
	}
}

// TestRandomizedEvaluatorParity sweeps random datasets and regions
// through all three evaluators, biased toward cell-boundary and
// domain-edge region bounds where the historic disagreements lived.
func TestRandomizedEvaluatorParity(t *testing.T) {
	kinds := []stats.Kind{
		stats.Count, stats.Sum, stats.Mean, stats.Min, stats.Max,
		stats.Median, stats.Variance, stats.StdDev, stats.Ratio,
	}
	rng := rand.New(rand.NewPCG(7, 11))
	for trial := 0; trial < 25; trial++ {
		n := 1 + rng.IntN(200)
		d := randomParityDataset(rng, n)
		spec := Spec{FilterCols: []int{0, 1}, Stat: kinds[trial%len(kinds)], TargetCol: 2}
		res := 2 + rng.IntN(30)
		ls, err := NewLinearScan(d, spec)
		if err != nil {
			t.Fatal(err)
		}
		g, err := NewGridIndex(d, spec, res)
		if err != nil {
			t.Fatal(err)
		}
		for q := 0; q < 20; q++ {
			region := randomParityRegion(rng, g)
			assertSameEval(t, ls, g, region)
		}
	}
}

// assertSameEval compares an evaluator against the linear-scan
// reference on one region. Counts must match exactly; values must
// match up to accumulation-order rounding (the grid merges pre-merged
// partials in cell order, the scan adds in row order).
func assertSameEval(t *testing.T, ref, got Evaluator, region geom.Rect) {
	t.Helper()
	rv, rc := ref.Evaluate(region)
	gv, gc := got.Evaluate(region)
	if rc != gc {
		t.Fatalf("%T count %d, LinearScan count %d on region %v", got, gc, rc, region)
	}
	if !sameValue(rv, gv) {
		t.Fatalf("%T value %v, LinearScan value %v on region %v", got, gv, rv, region)
	}
}

// sameValue compares statistic values NaN-aware with a tolerance for
// accumulation-order differences (the grid merges pre-merged partials
// in cell order, the scans add in row order). The absolute floor of 1
// covers catastrophic cancellation: summands that ought to cancel to
// zero exactly leave an order-dependent ~1e-16 residue.
func sameValue(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	if a == b {
		return true
	}
	diff := math.Abs(a - b)
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return diff <= 1e-9*scale
}

// randomParityDataset draws a 3-column dataset (x, y filters, v
// target) whose coordinates cluster on a coarse lattice so rows land
// exactly on domain edges and cell boundaries often.
func randomParityDataset(rng *rand.Rand, n int) *Dataset {
	xs := make([]float64, n)
	ys := make([]float64, n)
	vs := make([]float64, n)
	for i := 0; i < n; i++ {
		xs[i] = latticeCoord(rng, 0.1, 0.7)
		ys[i] = latticeCoord(rng, -1.3, 2.9)
		vs[i] = math.Round(rng.Float64()*20) - 10 // includes zeros for Ratio
	}
	return MustNew([]string{"x", "y", "v"}, [][]float64{xs, ys, vs})
}

// latticeCoord picks a coordinate in [lo, hi]: usually a lattice
// point (so duplicates and exact edge hits are common), sometimes the
// exact bounds, sometimes uniform.
func latticeCoord(rng *rand.Rand, lo, hi float64) float64 {
	switch rng.IntN(10) {
	case 0:
		return lo
	case 1:
		return hi
	case 2, 3:
		return lo + (hi-lo)*rng.Float64()
	default:
		return lo + (hi-lo)*float64(rng.IntN(17))/16
	}
}

// randomParityRegion draws a region whose bounds are biased toward
// the grid's own cell boundaries and the domain edges.
func randomParityRegion(rng *rand.Rand, g *GridIndex) geom.Rect {
	dims := g.Dims()
	min := make([]float64, dims)
	max := make([]float64, dims)
	for j := 0; j < dims; j++ {
		a := parityBound(rng, g, j)
		b := parityBound(rng, g, j)
		if b < a {
			a, b = b, a
		}
		min[j], max[j] = a, b
	}
	return geom.Rect{Min: min, Max: max}
}

// cellBoundaries reports the grid's cell boundary positions along one
// dimension: the array rows are assigned with and interior ranges are
// read from.
func cellBoundaries(g *GridIndex, dim int) []float64 {
	return append([]float64(nil), g.bounds[dim]...)
}

// parityBound picks one region bound: a cell boundary, a boundary
// nudged one ulp, a domain edge, or a uniform draw slightly past the
// domain.
func parityBound(rng *rand.Rand, g *GridIndex, dim int) float64 {
	b := cellBoundaries(g, dim)
	lo, hi := g.domain.Min[dim], g.domain.Max[dim]
	switch rng.IntN(6) {
	case 0:
		return lo
	case 1:
		return hi
	case 2:
		return math.Nextafter(b[rng.IntN(len(b))], math.Inf(-1))
	case 3:
		return math.Nextafter(b[rng.IntN(len(b))], math.Inf(1))
	case 4:
		return b[rng.IntN(len(b))]
	default:
		span := hi - lo
		return lo - 0.1*span + 1.2*span*rng.Float64()
	}
}

// TestGridSumFoldOrder pins the float statistics to their summation
// order, bit for bit: overlapped cells in mixed-radix order, a cell the
// region contains entirely adding its rows' pre-summed partial, any
// other cell adding its in-region rows one by one in row order. Parity
// tests compare with a tolerance, so only this test notices a cell
// misclassified as boundary or interior.
func TestGridSumFoldOrder(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 17))
	for dims := 1; dims <= 3; dims++ {
		cols := make([][]float64, dims+1)
		names := make([]string, dims+1)
		for j := range cols {
			names[j] = string(rune('a' + j))
			cols[j] = make([]float64, 3000)
			for i := range cols[j] {
				cols[j][i] = latticeCoord(rng, -1, 2)
			}
		}
		for i := range cols[dims] {
			cols[dims][i] = rng.NormFloat64() * 1e3 // sums that round
		}
		d := MustNew(names, cols)
		filter := make([]int, dims)
		for j := range filter {
			filter[j] = j
		}
		g, err := NewGridIndex(d, Spec{FilterCols: filter, Stat: stats.Sum, TargetCol: dims}, 9)
		if err != nil {
			t.Fatal(err)
		}
		cells := cellBuckets(g)
		for q := 0; q < 300; q++ {
			region := randomParityRegion(rng, g)
			want, wantN := cellWalkSum(g, cells, region)
			got, gotN := g.Evaluate(region)
			if math.Float64bits(got) != math.Float64bits(want) || gotN != wantN {
				t.Fatalf("dims=%d region %v: grid %v (n=%d), cell walk %v (n=%d)", dims, region, got, gotN, want, wantN)
			}
		}
	}
}

// cellBuckets lists each cell's rows in row order, built apart from the
// grid's CSR layout.
func cellBuckets(g *GridIndex) map[int][]int {
	cells := make(map[int][]int)
	for i := 0; i < g.d.Len(); i++ {
		id := 0
		for j, col := range g.filters {
			id = id*g.res + g.cellOf(col[i], j)
		}
		cells[id] = append(cells[id], i)
	}
	return cells
}

// cellWalkSum is the grid's Sum written out cell by cell, with a
// rect-containment test per cell.
func cellWalkSum(g *GridIndex, cells map[int][]int, region geom.Rect) (float64, int) {
	dims := g.Dims()
	lo := make([]int, dims)
	hi := make([]int, dims)
	for j := 0; j < dims; j++ {
		if region.Max[j] < g.domain.Min[j] || region.Min[j] > g.domain.Max[j] {
			return 0, 0
		}
		lo[j] = g.cellOf(region.Min[j], j)
		hi[j] = max(g.cellOf(region.Max[j], j), lo[j])
	}
	sum, n := 0.0, 0
	coord := append([]int(nil), lo...)
	for {
		id := 0
		rect := geom.Rect{Min: make([]float64, dims), Max: make([]float64, dims)}
		for j, c := range coord {
			id = id*g.res + c
			rect.Min[j], rect.Max[j] = g.bounds[j][c], g.bounds[j][c+1]
		}
		if rows := cells[id]; len(rows) > 0 {
			if region.ContainsRect(rect) {
				partial := 0.0
				for _, i := range rows {
					partial += g.target[i]
				}
				sum += partial
				n += len(rows)
			} else {
			rows:
				for _, i := range rows {
					for j, col := range g.filters {
						if col[i] < region.Min[j] || col[i] > region.Max[j] {
							continue rows
						}
					}
					sum += g.target[i]
					n++
				}
			}
		}
		j := dims - 1
		for ; j >= 0; j-- {
			coord[j]++
			if coord[j] <= hi[j] {
				break
			}
			coord[j] = lo[j]
		}
		if j < 0 {
			return sum, n
		}
	}
}
