package kernel

import (
	"math"
	"testing"
)

// reachedLeaf is the leaf weight a plain walk of tree reaches for row.
func reachedLeaf(tree []Node, row []float64) float64 {
	return referencePredict(Ensemble{Trees: [][]Node{tree}}, row)
}

// nudge moves y by ulps units in the last place.
func nudge(y float64, ulps int) float64 {
	for ; ulps > 0; ulps-- {
		y = math.Nextafter(y, math.Inf(1))
	}
	for ; ulps < 0; ulps++ {
		y = math.Nextafter(y, math.Inf(-1))
	}
	return y
}

// assertSide holds the bounded walk to its contract on e and rows:
//   - every row's cell bounds the leaves it reaches (assertCellBounds);
//   - at yR equal to each row's own prediction moved by ulps, in both
//     directions, a dropped row reads −Inf (Above) or +Inf (Below) and
//     its full prediction lies on the invalid side, ≤ yR or ≥ yR, and
//     every other row equals PredictBatch bit for bit;
//   - at a non-finite yR nothing is dropped.
func assertSide(t *testing.T, e Ensemble, rows [][]float64, ulps int) {
	t.Helper()
	m := Compile(e).WithSideBounds()
	assertCellBounds(t, e, m, rows)
	full := make([]float64, len(rows))
	m.PredictBatch(rows, full)
	out := make([]float64, len(rows))
	yRs := []float64{math.Inf(-1), math.Inf(1), math.NaN()}
	for _, y := range full {
		yRs = append(yRs, nudge(y, ulps))
	}
	for _, yR := range yRs {
		for _, below := range []bool{false, true} {
			walked := m.PredictSide(rows, out, yR, below)
			finite := !math.IsInf(yR, 0) && !math.IsNaN(yR)
			if all := len(rows) * len(e.Trees); walked > all || !finite && walked != all {
				t.Fatalf("yR %v below %v: %d tree walks, full walk %d", yR, below, walked, all)
			}
			for i := range rows {
				if math.Float64bits(out[i]) == math.Float64bits(full[i]) {
					continue
				}
				dropped, invalid := math.Inf(-1), full[i] <= yR
				if below {
					dropped, invalid = math.Inf(1), full[i] >= yR
				}
				if out[i] != dropped || !invalid || !finite {
					t.Fatalf("yR %v below %v: row %d %v reads %v, full walk %v", yR, below, i, rows[i], out[i], full[i])
				}
			}
		}
	}
}

// assertCellBounds checks the tables against the trees: for every row
// and block boundary, the sum of the leaves the row reaches in the
// remaining trees, added last tree first as the tables add them, is at
// most the row's cell bound, and the sum of the negated leaves at most
// the negated bound. A failure means the box walk missed a branch gt
// takes.
func assertCellBounds(t *testing.T, e Ensemble, m *Model, rows [][]float64) {
	t.Helper()
	s := m.side
	for _, row := range rows {
		cell := s.cellOf(row)
		var up, down float64
		for tr := len(e.Trees) - 1; tr >= 0; tr-- {
			w := reachedLeaf(e.Trees[tr], row)
			up += w
			down += -w
			if tr%sideBlock != 0 {
				continue
			}
			j := int32(tr / sideBlock)
			if up > s.up[cell+j] || down > s.down[cell+j] {
				t.Fatalf("row %v from tree %d: leaves sum %v / %v, cell bounds %v / %v",
					row, tr, up, down, s.up[cell+j], s.down[cell+j])
			}
		}
	}
}

// sideEnsemble is 20 stumps alternating over two features, with leaf
// weights large enough that most rows are decided within a block.
func sideEnsemble() Ensemble {
	e := Ensemble{BaseScore: 0.5, NumFeatures: 2}
	for i := range 20 {
		thr := float64(i%5) * 0.25
		e.Trees = append(e.Trees, stump(int32(i%2), thr, -float64(i+1), float64(i+1)))
	}
	return e
}

// sideRows are n rows over the unit square, with a NaN and ±Inf row.
func sideRows(n int) [][]float64 {
	rows := [][]float64{{math.NaN(), 0.5}, {math.Inf(-1), math.Inf(1)}, {math.Inf(1), math.Inf(-1)}}
	for i := len(rows); i < n; i++ {
		rows = append(rows, []float64{float64(i%17) / 16, float64(i%13) / 12})
	}
	return rows
}

// TestPredictSideSkips: on an ensemble whose early trees decide most
// rows, the bounded walk skips tree work in both directions and keeps
// its contract, over more rows than one stack chunk holds.
func TestPredictSideSkips(t *testing.T) {
	e, rows := sideEnsemble(), sideRows(600)
	assertSide(t, e, rows, 0)
	m := Compile(e).WithSideBounds()
	out := make([]float64, len(rows))
	for _, below := range []bool{false, true} {
		if walked := m.PredictSide(rows, out, 0.5, below); walked >= len(rows)*len(e.Trees)*3/4 {
			t.Errorf("below %v: %d tree walks of %d, want under three quarters", below, walked, len(rows)*len(e.Trees))
		}
	}
	// Without tables PredictSide is the full walk.
	if walked := Compile(e).PredictSide(rows, out, 0.5, false); walked != len(rows)*len(e.Trees) {
		t.Errorf("model without tables walked %d, want %d", walked, len(rows)*len(e.Trees))
	}
}

// TestPredictSideNonFinite: NaN leaves, infinite leaves and sums that
// overflow make bounds NaN or infinite, and such a bound drops no row.
func TestPredictSideNonFinite(t *testing.T) {
	rows := sideRows(40)
	for name, lw := range map[string]float64{"nan": math.NaN(), "inf": math.Inf(1), "-inf": math.Inf(-1), "overflow": 1e308} {
		e := Ensemble{NumFeatures: 2}
		for i := range 12 {
			e.Trees = append(e.Trees, stump(int32(i%2), 0.5, lw, lw))
		}
		assertSide(t, e, rows, 0)
		m := Compile(e).WithSideBounds()
		out := make([]float64, len(rows))
		for _, below := range []bool{false, true} {
			if walked := m.PredictSide(rows, out, 0, below); walked != len(rows)*len(e.Trees) {
				t.Errorf("%s below %v: %d tree walks, want the full %d", name, below, walked, len(rows)*len(e.Trees))
			}
		}
	}
}

// TestSideCells: the cell count stays within maxSideCells however many
// features split, each feature getting fewer bins as features grow,
// and a model with more features than the cap allows one bin each
// falls back to the global bound alone.
func TestSideCells(t *testing.T) {
	for nfeat, want := range map[int]int32{1: 4, 2: 16, 4: 256, 5: 243, 8: 256, 9: 1} {
		e := Ensemble{NumFeatures: nfeat}
		for f := range nfeat {
			for k := range 8 {
				e.Trees = append(e.Trees, stump(int32(f), float64(k), -1, 1))
			}
		}
		if got := Compile(e).WithSideBounds().side.ncell; got != want {
			t.Errorf("%d features: %d cells, want %d", nfeat, got, want)
		}
		rows := [][]float64{make([]float64, nfeat)}
		assertSide(t, e, rows, 0)
	}
}

// TestPredictSideNoAllocs: the bounded walk keeps its rows in stack
// chunks and allocates nothing per call.
func TestPredictSideNoAllocs(t *testing.T) {
	m := Compile(sideEnsemble()).WithSideBounds()
	rows := sideRows(700)
	out := make([]float64, len(rows))
	if n := testing.AllocsPerRun(20, func() { m.PredictSide(rows, out, 0.5, false) }); n != 0 {
		t.Fatalf("PredictSide allocates %v times per call", n)
	}
}

// TestPredictSideCounters: the counters count the rows entering a
// bounded call, not the trees it walks.
func TestPredictSideCounters(t *testing.T) {
	m := Compile(sideEnsemble()).WithSideBounds()
	rows0, calls0 := Rows.Value(), Calls.Value()
	m.PredictSide(sideRows(5), make([]float64, 5), 100, false)
	if rows, calls := Rows.Value()-rows0, Calls.Value()-calls0; rows != 5 || calls != 1 {
		t.Fatalf("counters advanced by %d rows and %d calls, want 5 and 1", rows, calls)
	}
}
