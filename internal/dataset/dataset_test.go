package dataset

import (
	"bytes"
	"math"
	"math/rand"
	"strconv"
	"testing"

	"surf/internal/geom"
	"surf/internal/stats"
)

func toyDataset() *Dataset {
	// 6 points in 2D plus a value column.
	return MustNew(
		[]string{"a1", "a2", "val"},
		[][]float64{
			{0.1, 0.2, 0.5, 0.6, 0.9, 0.95},
			{0.1, 0.3, 0.5, 0.4, 0.8, 0.9},
			{1, 2, 3, 4, 5, 6},
		},
	)
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, nil); err != ErrNoColumns {
		t.Errorf("want ErrNoColumns, got %v", err)
	}
	if _, err := New([]string{"a"}, [][]float64{{1}, {2}}); err == nil {
		t.Error("expected error for name/column count mismatch")
	}
	if _, err := New([]string{"a", "b"}, [][]float64{{1, 2}, {1}}); err == nil {
		t.Error("expected error for ragged columns")
	}
	if _, err := New([]string{"a", "a"}, [][]float64{{1}, {2}}); err == nil {
		t.Error("expected error for duplicate column names")
	}
}

func TestAccessors(t *testing.T) {
	d := toyDataset()
	if d.Len() != 6 || d.NumCols() != 3 {
		t.Fatalf("Len=%d NumCols=%d", d.Len(), d.NumCols())
	}
	if d.ColByName("val") != 2 || d.ColByName("nope") != -1 {
		t.Error("ColByName wrong")
	}
	row := d.Row(2)
	if row[0] != 0.5 || row[1] != 0.5 || row[2] != 3 {
		t.Errorf("Row(2) = %v", row)
	}
	names := d.Names()
	names[0] = "mutated"
	if d.names[0] == "mutated" {
		t.Error("Names should return a copy")
	}
}

func TestDomain(t *testing.T) {
	d := toyDataset()
	dom := d.Domain([]int{0, 1})
	if dom.Min[0] != 0.1 || dom.Max[0] != 0.95 {
		t.Errorf("domain dim0 = [%g,%g]", dom.Min[0], dom.Max[0])
	}
	if dom.Min[1] != 0.1 || dom.Max[1] != 0.9 {
		t.Errorf("domain dim1 = [%g,%g]", dom.Min[1], dom.Max[1])
	}
}

func TestSpecValidate(t *testing.T) {
	d := toyDataset()
	good := Spec{FilterCols: []int{0, 1}, Stat: stats.Mean, TargetCol: 2}
	if err := good.Validate(d); err != nil {
		t.Errorf("good spec: %v", err)
	}
	bad := []Spec{
		{FilterCols: nil, Stat: stats.Count},
		{FilterCols: []int{7}, Stat: stats.Count},
		{FilterCols: []int{0}, Stat: stats.Mean, TargetCol: 9},
		// Target also a filter: Definition 2 forbids this.
		{FilterCols: []int{0, 2}, Stat: stats.Mean, TargetCol: 2},
	}
	for i, s := range bad {
		if err := s.Validate(d); err == nil {
			t.Errorf("bad spec %d validated", i)
		}
	}
}

func TestLinearScanCount(t *testing.T) {
	d := toyDataset()
	ev, err := NewLinearScan(d, Spec{FilterCols: []int{0, 1}, Stat: stats.Count})
	if err != nil {
		t.Fatal(err)
	}
	// Points (0.1,0.1), (0.2,0.3), (0.5,0.5) are inside; (0.6,0.4) is not.
	y, n := ev.Evaluate(geom.NewRect([]float64{0, 0}, []float64{0.55, 0.55}))
	if y != 3 || n != 3 {
		t.Errorf("count = %g (n=%d), want 3", y, n)
	}
	// Empty region.
	y, n = ev.Evaluate(geom.NewRect([]float64{2, 2}, []float64{3, 3}))
	if y != 0 || n != 0 {
		t.Errorf("empty count = %g (n=%d), want 0", y, n)
	}
}

func TestLinearScanMean(t *testing.T) {
	d := toyDataset()
	ev, err := NewLinearScan(d, Spec{FilterCols: []int{0, 1}, Stat: stats.Mean, TargetCol: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Points 1..4 are inside; mean(1,2,3,4) = 2.5.
	y, n := ev.Evaluate(geom.NewRect([]float64{0, 0}, []float64{0.62, 0.55}))
	if n != 4 || y != 2.5 {
		t.Errorf("mean = %g (n=%d), want 2.5 (4)", y, n)
	}
	// Mean over an empty region is NaN.
	y, n = ev.Evaluate(geom.NewRect([]float64{2, 2}, []float64{3, 3}))
	if !math.IsNaN(y) || n != 0 {
		t.Errorf("empty mean = %g (n=%d), want NaN (0)", y, n)
	}
}

func TestLinearScanBoundsInclusive(t *testing.T) {
	d := MustNew([]string{"a"}, [][]float64{{1, 2, 3}})
	ev, _ := NewLinearScan(d, Spec{FilterCols: []int{0}, Stat: stats.Count})
	y, _ := ev.Evaluate(geom.NewRect([]float64{1}, []float64{3}))
	if y != 3 {
		t.Errorf("inclusive count = %g, want 3", y)
	}
	y, _ = ev.Evaluate(geom.NewRect([]float64{2}, []float64{2}))
	if y != 1 {
		t.Errorf("point region count = %g, want 1", y)
	}
}

func TestLinearScanPanicsOnWrongDims(t *testing.T) {
	d := toyDataset()
	ev, _ := NewLinearScan(d, Spec{FilterCols: []int{0, 1}, Stat: stats.Count})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for 1-dim region on 2-dim spec")
		}
	}()
	ev.Evaluate(geom.Unit(1))
}

func randomDataset(rng *rand.Rand, n, dims int) *Dataset {
	names := make([]string, dims+1)
	cols := make([][]float64, dims+1)
	for j := 0; j <= dims; j++ {
		col := make([]float64, n)
		for i := range col {
			col[i] = rng.Float64()
		}
		cols[j] = col
	}
	for j := 0; j < dims; j++ {
		names[j] = string(rune('a' + j))
	}
	names[dims] = "val"
	return MustNew(names, cols)
}

func randomRegion(rng *rand.Rand, dims int) geom.Rect {
	x := make([]float64, dims)
	l := make([]float64, dims)
	for j := 0; j < dims; j++ {
		x[j] = rng.Float64()
		l[j] = rng.Float64() * 0.3
	}
	return geom.FromCenter(x, l)
}

// TestGridMatchesLinearScan is the core correctness property: the grid
// index must agree with a full scan for every statistic kind,
// dimensionality and region — exactly for Count and Ratio, whose
// interior blocks come from the integer prefix tables, and up to
// summation order for the float statistics. Forced resolutions keep
// most regions several cells wide, so interior blocks are non-empty.
func TestGridMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	kinds := []stats.Kind{stats.Count, stats.Sum, stats.Mean, stats.Min, stats.Max, stats.Median, stats.Variance, stats.StdDev, stats.Ratio}
	resolution := map[int]int{1: 64, 2: 32, 3: 12, 4: 8}
	for dims := 1; dims <= 4; dims++ {
		d := randomDataset(rng, 5000, dims)
		filter := make([]int, dims)
		for j := range filter {
			filter[j] = j
		}
		interiors := 0
		for _, kind := range kinds {
			spec := Spec{FilterCols: filter, Stat: kind, TargetCol: dims}
			scan, err := NewLinearScan(d, spec)
			if err != nil {
				t.Fatal(err)
			}
			grid, err := NewGridIndex(d, spec, resolution[dims])
			if err != nil {
				t.Fatal(err)
			}
			exact := kind == stats.Count || kind == stats.Ratio
			for trial := 0; trial < 60; trial++ {
				r := randomRegion(rng, dims)
				if w, ok := grid.window(r); ok && w.interior {
					interiors++
				}
				ys, ns := scan.Evaluate(r)
				yg, ng := grid.Evaluate(r)
				if ns != ng {
					t.Fatalf("dims=%d stat=%v region=%v: scan n=%d grid n=%d", dims, kind, r, ns, ng)
				}
				if math.IsNaN(ys) != math.IsNaN(yg) {
					t.Fatalf("dims=%d stat=%v region=%v: scan y=%g grid y=%g", dims, kind, r, ys, yg)
				}
				if exact && !math.IsNaN(ys) && ys != yg {
					t.Fatalf("dims=%d stat=%v region=%v: scan y=%g grid y=%g, want exact", dims, kind, r, ys, yg)
				}
				if !math.IsNaN(ys) && math.Abs(ys-yg) > 1e-9*math.Max(1, math.Abs(ys)) {
					t.Fatalf("dims=%d stat=%v region=%v: scan y=%g grid y=%g", dims, kind, r, ys, yg)
				}
			}
		}
		if interiors < len(kinds)*60/10 {
			t.Errorf("dims=%d: only %d of %d regions had a non-empty interior block", dims, interiors, len(kinds)*60)
		}
	}
}

// TestGridEvaluateAllocsFlat pins the allocation-free interior test:
// the decomposable statistics allocate the same per call whether the
// region covers one cell or the whole domain.
func TestGridEvaluateAllocsFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	d := randomDataset(rng, 20000, 2)
	oneCell := geom.NewRect([]float64{0.51, 0.51}, []float64{0.52, 0.52})
	domain := geom.NewRect([]float64{-1, -1}, []float64{2, 2})
	for _, kind := range []stats.Kind{stats.Count, stats.Sum, stats.Mean, stats.Min, stats.Max, stats.Ratio} {
		g, err := NewGridIndex(d, Spec{FilterCols: []int{0, 1}, Stat: kind, TargetCol: 2}, 32)
		if err != nil {
			t.Fatal(err)
		}
		if _, n := g.Evaluate(oneCell); n == 0 {
			t.Fatalf("%v: one-cell region matched no rows", kind)
		}
		small := testing.AllocsPerRun(50, func() { g.Evaluate(oneCell) })
		large := testing.AllocsPerRun(50, func() { g.Evaluate(domain) })
		if small != large {
			t.Errorf("%v: %v allocs for a one-cell region, %v for the whole domain", kind, small, large)
		}
	}
}

// TestGridRowLimit checks the guard that keeps row indices, CSR offsets
// and prefix-table entries inside int32.
func TestGridRowLimit(t *testing.T) {
	if err := checkGridRows(maxGridRows); err != nil {
		t.Errorf("%d rows: %v", maxGridRows, err)
	}
	if strconv.IntSize == 32 {
		t.Skip("int cannot exceed MaxInt32 rows")
	}
	n := maxGridRows
	n++
	if err := checkGridRows(n); err == nil {
		t.Errorf("%d rows accepted", n)
	}
}

func TestGridIndexDisjointRegion(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := randomDataset(rng, 100, 2)
	grid, _ := NewGridIndex(d, Spec{FilterCols: []int{0, 1}, Stat: stats.Count}, 8)
	y, n := grid.Evaluate(geom.NewRect([]float64{5, 5}, []float64{6, 6}))
	if y != 0 || n != 0 {
		t.Errorf("disjoint count = %g (n=%d), want 0", y, n)
	}
	gm, _ := NewGridIndex(d, Spec{FilterCols: []int{0, 1}, Stat: stats.Mean, TargetCol: 2}, 8)
	y, n = gm.Evaluate(geom.NewRect([]float64{5, 5}, []float64{6, 6}))
	if !math.IsNaN(y) || n != 0 {
		t.Errorf("disjoint mean = %g (n=%d), want NaN", y, n)
	}
}

func TestGridResolutionCap(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	d := randomDataset(rng, 50, 5)
	grid, err := NewGridIndex(d, Spec{FilterCols: []int{0, 1, 2, 3, 4}, Stat: stats.Count}, 64)
	if err != nil {
		t.Fatal(err)
	}
	cells := pow(grid.Resolution(), 5)
	if cells > maxGridCells {
		t.Errorf("grid allocated %d cells, above cap %d", cells, maxGridCells)
	}
	// Sanity: still answers correctly.
	scan, _ := NewLinearScan(d, Spec{FilterCols: []int{0, 1, 2, 3, 4}, Stat: stats.Count})
	r := geom.Unit(5)
	ys, _ := scan.Evaluate(r)
	yg, _ := grid.Evaluate(r)
	if ys != yg {
		t.Errorf("scan=%g grid=%g", ys, yg)
	}
}

func TestGridDegenerateDimension(t *testing.T) {
	// A constant column must not produce zero cell widths.
	d := MustNew([]string{"a", "b"}, [][]float64{{1, 1, 1}, {0.1, 0.5, 0.9}})
	grid, err := NewGridIndex(d, Spec{FilterCols: []int{0, 1}, Stat: stats.Count}, 4)
	if err != nil {
		t.Fatal(err)
	}
	y, _ := grid.Evaluate(geom.NewRect([]float64{0, 0}, []float64{2, 1}))
	if y != 3 {
		t.Errorf("count = %g, want 3", y)
	}
}

func TestDatasetCSVRoundTrip(t *testing.T) {
	d := toyDataset()
	var buf bytes.Buffer
	if err := d.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != d.Len() || back.NumCols() != d.NumCols() {
		t.Fatalf("shape mismatch after round trip")
	}
	for c := 0; c < d.NumCols(); c++ {
		for i := 0; i < d.Len(); i++ {
			if back.Col(c)[i] != d.Col(c)[i] {
				t.Fatalf("col %d row %d: %g != %g", c, i, back.Col(c)[i], d.Col(c)[i])
			}
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSV(bytes.NewBufferString("")); err == nil {
		t.Error("expected error for empty input")
	}
	if _, err := ReadCSV(bytes.NewBufferString("a,b\n1,notanumber\n")); err == nil {
		t.Error("expected error for non-numeric field")
	}
}

func TestQueryLogRoundTrip(t *testing.T) {
	log := QueryLog{
		{X: []float64{0.5, 0.5}, L: []float64{0.1, 0.2}, Y: 42},
		{X: []float64{0.1, 0.9}, L: []float64{0.05, 0.05}, Y: 7},
	}
	var buf bytes.Buffer
	if err := log.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadQueryLogCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 {
		t.Fatalf("len = %d, want 2", len(back))
	}
	if back[0].Y != 42 || back[1].X[1] != 0.9 || back[0].L[1] != 0.2 {
		t.Errorf("round trip mismatch: %+v", back)
	}
}

func TestQueryLogFeatures(t *testing.T) {
	log := QueryLog{{X: []float64{1, 2}, L: []float64{3, 4}, Y: 5}}
	X, y := log.Features()
	want := []float64{1, 2, 3, 4}
	for i, v := range want {
		if X[0][i] != v {
			t.Errorf("X[0][%d] = %g, want %g", i, X[0][i], v)
		}
	}
	if y[0] != 5 {
		t.Errorf("y[0] = %g, want 5", y[0])
	}
}

func TestQueryLogEmptyWrite(t *testing.T) {
	var buf bytes.Buffer
	if err := QueryLog(nil).WriteCSV(&buf); err == nil {
		t.Error("expected error for empty log")
	}
}
